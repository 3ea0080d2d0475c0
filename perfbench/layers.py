"""Per-layer metrics from the spans that traced_cli.py writes.

A span's self time is its duration minus the time its child spans cover.
Layers are latmin's modules; PER_LAYER lists every metric with its unit and
direction, in the order BENCHMARK.json gives them.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Iterable, List, Tuple

VOLUME_METHODS = ("exact-ellipsoid", "exact-parallelepiped", "exact-polygon",
                  "monte-carlo")
CHECKS = ("check_norm_scaling", "check_sef_gap", "check_filtration",
          "check_second_minima", "check_gs_count", "check_minkowski_count")
LEDGER_FNS = ("simulate_reduction", "theorem_chain_check", "sum_ci_bound",
              "verify_constant_chain")
ENUMERATION = ("enumeration.effective_sections",
               "enumeration.strictly_effective_sections",
               "enumeration.vectors_with_keys")
INTERVALS = ("intervals.compare_exp", "intervals.exp_interval",
             "intervals.exp_upper")
LINALG = ("linalg.span_rank", "linalg.IncrementalSpan.add", "linalg.invert",
          "linalg.determinant", "linalg.independent_rows")
NORMS = ("norms.load_module", "norms.make_normed_module", "norms.twist")

# (name, unit, better)
PER_LAYER: List[Tuple[str, str, str]] = [
    ("enumeration.calls", "count", "lower"),
    ("enumeration.cache_hit_ratio", "ratio", "higher"),
    ("enumeration.candidates", "count", "lower"),
    ("enumeration.accepted", "count", "higher"),
    ("enumeration.candidates_per_accepted", "ratio", "lower"),
    ("enumeration.us_per_candidate", "us", "lower"),
    ("enumeration.self_s", "s", "lower"),
    ("enumeration.budget_exceeded", "count", "lower"),
    ("minima.minima_calls", "count", "lower"),
    ("minima.minima_self_s", "s", "lower"),
    ("minima.radius_rounds_mean", "count", "lower"),
    ("minima.radius_rounds_max", "count", "lower"),
    *[(f"minima.volume_calls.{m}", "count",
       "lower" if m == "monte-carlo" else "higher") for m in VOLUME_METHODS],
    *[(f"minima.volume_self_s.{m}", "s", "lower") for m in VOLUME_METHODS],
    ("minima.mc_samples", "count", "lower"),
    *[(f"inequalities.{c}_self_s", "s", "lower") for c in CHECKS],
    ("inequalities.run_suite_self_s", "s", "lower"),
    ("inequalities.inconclusive", "count", "lower"),
    ("intervals.compare_exp_calls", "count", "lower"),
    ("intervals.exp_interval_calls", "count", "lower"),
    ("intervals.max_prec_bits", "bits", "lower"),
    ("intervals.self_s", "s", "lower"),
    ("linalg.calls", "count", "lower"),
    ("linalg.span_adds", "count", "lower"),
    ("linalg.self_s", "s", "lower"),
    ("norms.calls", "count", "lower"),
    ("norms.load_self_s", "s", "lower"),
    ("ledger.calls", "count", "lower"),
    *[(f"ledger.{f}_self_s", "s", "lower") for f in LEDGER_FNS],
    ("cli.self_s", "s", "lower"),
    ("cli.serialize_self_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("rng.derive_calls", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "higher"),
    ("trace.spans", "count", "lower"),
]


class SpanMismatch(Exception):
    """Span counts disagree with the lru caches' own counts: some binding of
    a traced function was missed, so calls bypassed the wrappers."""


def self_times(spans) -> List[float]:
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def check_cache_counts(trace: dict) -> None:
    """Calls through the wrappers must equal the lookups the caches saw."""
    calls = Counter(span[0] for span in trace["spans"])
    lookups = Counter()
    for name, cache in trace["cache_of"].items():
        lookups[cache] += calls[name]
    for cache, (hits, misses) in trace["cache"].items():
        if lookups[cache] != hits + misses:
            raise SpanMismatch(f"{lookups[cache]} traced calls reach cache "
                               f"{cache}, which counts {hits + misses} lookups")


class LayerTotals:
    """Sums over the traced ops of one run."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.n = Counter()        # other counters, by metric name
        self.rounds: List[int] = []
        self.max_prec = 0
        self.output_bytes = 0

    def add(self, trace: dict, output_bytes: int) -> None:
        spans = trace["spans"]
        own = self_times(spans)
        children = defaultdict(list)
        for i, (_, _, _, parent, _) in enumerate(spans):
            children[parent].append(i)
        in_load = [False] * len(spans)
        for i, (name, _, _, parent, notes) in enumerate(spans):
            in_load[i] = name == "norms.load_module" or (parent >= 0 and in_load[parent])
            self.calls[name] += 1
            self.self_s[name] += own[i]
            # calls without a cache in front of them always compute
            miss = notes.get("miss", True)
            if not miss:
                self.n["lru_hits." + name] += 1
            if name == "enumeration.vectors_with_keys":
                self.n["candidates"] += notes.get("candidates", 0)
                self.n["accepted"] += notes.get("accepted", 0)
                if miss:
                    self.self_s["vectors_with_keys_miss"] += own[i]
                if notes.get("raised") == "EnumerationBudgetExceeded":
                    self.n["budget_exceeded"] += 1
            elif name == "minima.successive_minima" and miss:
                self.rounds.append(sum(spans[c][0] == "enumeration.vectors_with_keys"
                                       for c in children[i]))
            elif name == "minima.ball_volume" and "method" in notes:
                self.n["volume_calls." + notes["method"]] += 1
                self.self_s["volume." + notes["method"]] += own[i]
                self.n["mc_samples"] += notes.get("samples", 0)
            elif name == "intervals.exp_interval":
                self.max_prec = max(self.max_prec, notes.get("prec", 0))
            if name.startswith("norms.") and in_load[i]:
                self.self_s["norms.load"] += own[i]
            self.n["inconclusive"] += notes.get("inconclusive", 0)
        self.n["derive_calls"] += trace["derive_calls"]
        self.n["spans"] += len(spans)
        self.output_bytes += output_bytes

    def metrics(self, overhead_ratio: float) -> dict:
        calls, own, n = self.calls, self.self_s, self.n

        def total(names: Iterable[str], of=None) -> float:
            return sum((of or calls)[name] for name in names)

        enum_calls = total(ENUMERATION)
        hits = sum(n["lru_hits." + name] for name in ENUMERATION)
        out = {
            "enumeration.calls": enum_calls,
            "enumeration.cache_hit_ratio": hits / enum_calls if enum_calls else 0.0,
            "enumeration.candidates": n["candidates"],
            "enumeration.accepted": n["accepted"],
            "enumeration.candidates_per_accepted":
                n["candidates"] / n["accepted"] if n["accepted"] else 0.0,
            "enumeration.us_per_candidate":
                1e6 * own["vectors_with_keys_miss"] / n["candidates"]
                if n["candidates"] else 0.0,
            "enumeration.self_s": total(ENUMERATION, own),
            "enumeration.budget_exceeded": n["budget_exceeded"],
            "minima.minima_calls": calls["minima.successive_minima"],
            "minima.minima_self_s": own["minima.successive_minima"],
            "minima.radius_rounds_mean":
                sum(self.rounds) / len(self.rounds) if self.rounds else 0.0,
            "minima.radius_rounds_max": max(self.rounds, default=0),
            "minima.mc_samples": n["mc_samples"],
            "inequalities.run_suite_self_s": own["inequalities.run_suite"],
            "inequalities.inconclusive": n["inconclusive"],
            "intervals.compare_exp_calls": calls["intervals.compare_exp"],
            "intervals.exp_interval_calls": calls["intervals.exp_interval"],
            "intervals.max_prec_bits": self.max_prec,
            "intervals.self_s": total(INTERVALS, own),
            "linalg.calls": total(LINALG),
            "linalg.span_adds": calls["linalg.IncrementalSpan.add"],
            "linalg.self_s": total(LINALG, own),
            "norms.calls": total(NORMS),
            "norms.load_self_s": own["norms.load"],
            "ledger.calls": total(f"ledger.{f}" for f in LEDGER_FNS),
            "cli.self_s": own["cli.main"],
            "cli.serialize_self_s": own["cli.jsonable"],
            "cli.output_bytes": self.output_bytes,
            "rng.derive_calls": n["derive_calls"],
            "trace.overhead_ratio": overhead_ratio,
            "trace.spans": n["spans"],
        }
        for m in VOLUME_METHODS:
            out[f"minima.volume_calls.{m}"] = n["volume_calls." + m]
            out[f"minima.volume_self_s.{m}"] = own["volume." + m]
        for c in CHECKS:
            out[f"inequalities.{c}_self_s"] = own["inequalities." + c]
        for f in LEDGER_FNS:
            out[f"ledger.{f}_self_s"] = own["ledger." + f]
        units = {name: unit for name, unit, _ in PER_LAYER}
        return {name: {"value": out[name], "unit": units[name]} for name, _, _ in PER_LAYER}
