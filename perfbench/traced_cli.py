"""Run one latmin CLI command with a span around each layer's public calls.

    PYTHONPATH=src python perfbench/traced_cli.py SPANS_JSON [latmin args...]

The wrappers are installed from outside the library: every binding of a
traced function in every `latmin.*` module namespace is replaced, because
`from .x import f` gives each importing module its own name for `f`.  Spans
(name, start, end, parent, notes) are kept in a list and written to
SPANS_JSON once, after the command returns; layers.py turns them into
per-layer metrics.  All spans of one process belong to one op.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time

from latmin import (cli, enumeration, inequalities, intervals, ledger, linalg,
                    minima, norms, rng)

# module -> public functions that get a span named "<module>.<function>"
SPANNED = {
    enumeration: ("effective_sections", "strictly_effective_sections",
                  "vectors_with_keys"),
    minima: ("successive_minima", "ball_volume"),
    inequalities: ("check_norm_scaling", "check_sef_gap", "check_filtration",
                   "check_second_minima", "check_gs_count",
                   "check_minkowski_count", "run_suite"),
    intervals: ("compare_exp", "exp_interval", "exp_upper"),
    linalg: ("span_rank", "invert", "determinant", "independent_rows"),
    norms: ("load_module", "make_normed_module", "twist"),
    ledger: ("simulate_reduction", "theorem_chain_check", "sum_ci_bound",
             "verify_constant_chain"),
    cli: ("main",),
}


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self):
        self.spans = []   # [name, start, end, parent index or -1, notes]
        self.stack = []   # indices of the open spans
        self.derive_calls = 0
        self.missing = []
        self.caches = {}  # span name -> the lru-cached function behind it

    def wrap(self, name, fn, cache=None, note=None):
        """A span around fn; `cache` marks the call a hit or a miss from the
        cache_info() delta, `note(notes, args, kwargs, result)` adds notes."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        if cache is not None:
            self.caches[name] = cache

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, {}]
            stack.append(len(spans))
            spans.append(span)
            misses = cache.cache_info().misses if cache is not None else 0
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[4]["raised"] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if cache is not None:
                span[4]["miss"] = cache.cache_info().misses > misses
            if note is not None:
                note(span[4], args, kwargs, result)
            return result
        return traced

    def outermost(self, fn, name):
        """A span around the outermost call of a recursive function only."""
        traced = self.wrap(name, fn)
        depth = [0]

        @functools.wraps(fn)
        def call(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] += 1
            try:
                return traced(*args, **kwargs)
            finally:
                depth[0] -= 1
        return call

    def install(self):
        for module, names in SPANNED.items():
            for attr in names:
                self._replace(module, attr, lambda fn, name: self.wrap(
                    name, fn, cache=_cache_of(module, attr, fn),
                    note=NOTES.get(name)))
        self._replace(cli, "jsonable", self.outermost)
        self._replace(rng, "derive", lambda fn, name: self._counted(fn))
        self._replace(enumeration, "_check_budget",
                      lambda fn, name: self._candidates(fn))
        add = getattr(linalg.IncrementalSpan, "add", None)
        if add is None:
            self.missing.append("linalg.IncrementalSpan.add")
        else:
            linalg.IncrementalSpan.add = self.wrap("linalg.IncrementalSpan.add", add)

    def _replace(self, module, attr, make):
        name = f"{_short(module)}.{attr}"
        orig = getattr(module, attr, None)
        if orig is None:
            self.missing.append(name)
            return
        new = make(orig, name)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "latmin" or mod_name.startswith("latmin."):
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, new)

    def _counted(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.derive_calls += 1
            return fn(*args, **kwargs)
        return counted

    def _candidates(self, fn):
        """Notes the box size on the enumeration span that passed the budget."""
        @functools.wraps(fn)
        def check(bounds, budget):
            fn(bounds, budget)
            if self.stack:
                self.spans[self.stack[-1]][4]["candidates"] = math.prod(
                    2 * b + 1 for b in bounds)
        return check

    def dump(self, path):
        cache_of = {name: fn.__name__ for name, fn in self.caches.items()}
        cache = {fn.__name__: list(fn.cache_info()[:2])
                 for fn in self.caches.values()}
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "cache": cache, "cache_of": cache_of,
                       "derive_calls": self.derive_calls,
                       "missing": self.missing}, fh)


def _cache_of(module, attr, fn):
    """The lru cache that answers a call of module.attr, if there is one."""
    if hasattr(fn, "cache_info"):
        return fn
    if module is enumeration and attr.endswith("effective_sections"):
        return getattr(enumeration, "_sections", None)
    return None


def _arg(fn, name, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


# a call without a "miss" note has no cache in front of it, so it computed

def _note_vectors(notes, args, kwargs, result):
    if notes.get("miss", True):
        notes["accepted"] = len(result[1])


def _note_volume(notes, args, kwargs, result):
    notes["method"] = result.method
    if result.method == "monte-carlo" and notes.get("miss", True):
        notes["samples"] = _arg(minima.ball_volume, "samples", args, kwargs)


def _note_prec(notes, args, kwargs, result):
    notes["prec"] = _arg(intervals.exp_interval, "prec", args, kwargs)


def _note_verdicts(notes, args, kwargs, result):
    reports = result if isinstance(result, list) else [result]
    notes["inconclusive"] = sum(r.verdict == "inconclusive" for r in reports)


NOTES = {
    "enumeration.vectors_with_keys": _note_vectors,
    "minima.ball_volume": _note_volume,
    "intervals.exp_interval": _note_prec,
}
NOTES.update((f"inequalities.{name}", _note_verdicts)
             for name in SPANNED[inequalities] if name.startswith("check_"))


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
