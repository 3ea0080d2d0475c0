"""Exact toolkit for normed free Z-modules.

Counts effective sections, computes successive minima and Euler
characteristics with exact rational arithmetic, verifies section-counting
inequalities on randomized corpora, and mechanically checks the
bound-chaining arithmetic of abstract degree-reduction ledgers.
"""

__version__ = "0.1.0"

from .enumeration import (effective_sections, enclosing_box, h0_hat,
                          h0_hat_sef, strictly_effective_sections)
from .linalg import span_rank
from .minima import ball_volume, euler_characteristic, successive_minima
from .norms import (NormedModule, make_ellipsoid, make_normed_module,
                    make_polymax, make_scaled, norm_eval, twist)

__all__ = [
    "NormedModule",
    "ball_volume",
    "effective_sections",
    "enclosing_box",
    "euler_characteristic",
    "h0_hat",
    "h0_hat_sef",
    "make_ellipsoid",
    "make_normed_module",
    "make_polymax",
    "make_scaled",
    "norm_eval",
    "span_rank",
    "strictly_effective_sections",
    "successive_minima",
    "twist",
]
