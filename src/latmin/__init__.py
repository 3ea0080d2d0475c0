"""Exact toolkit for normed free Z-modules.

Counts effective sections, computes successive minima and Euler
characteristics with exact rational arithmetic, verifies section-counting
inequalities on randomized corpora, and mechanically checks the
bound-chaining arithmetic of abstract degree-reduction ledgers.

The names below are resolved on first access (PEP 562), so importing the
package, or one light submodule such as ``latmin.ledger``, loads no
lattice code.
"""

from importlib import import_module

__version__ = "0.1.0"

# home module -> the public names it exports here
_EXPORTS = {
    "enumeration": ("effective_sections", "h0_hat", "h0_hat_sef",
                    "strictly_effective_sections"),
    "linalg": ("span_rank",),
    "minima": ("ball_volume", "euler_characteristic", "successive_minima"),
    "norms": ("NormedModule", "make_ellipsoid", "make_normed_module",
              "make_polymax", "make_scaled", "norm_eval", "twist"),
}
_HOME = {name: home for home, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{home}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
