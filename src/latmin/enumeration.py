"""Exact enumeration of effective sections.

Each threshold becomes one integer first: ``CompiledNorm.cap(t)`` is the
largest key K with ||v|| <= t exactly when key(v) <= K, and the strict
ball {||v|| < t} has its own cap.  The lattice vectors with key at most K
are walked depth first, x_0 outermost, over the module's compiled norm
(``norms.CompiledNorm``): each level admits only the integers x_i that can
still finish with a key at most K, exact ranges from the integer LDL^T
chain for ellipsoids (Fincke & Pohst, Math. Comp. 44, 1985), and per-row
intervals for PolyMax norms.  Every vector the walk reaches is kept.  The
enclosing box of the cap clips every level and is what the budget is
charged on.

The key-sorted closed unit ball is the one list behind every count: the
strict set {||v|| < 1} is its prefix up to the strict cap.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Tuple

from .errors import EnumerationBudgetExceeded
from .norms import CompiledNorm, NormedModule, NormSpec, compile_norm

DEFAULT_BUDGET = 10 ** 8
ONE = Fraction(1)


def enclosing_box(norm: NormSpec) -> List[int]:
    """Per-coordinate integer bounds B_k with ||x|| <= 1 => |x_k| <= B_k: the
    box of the window's upper key, at least the cap, found with no ``cmp``."""
    compiled = compile_norm(norm)
    k_in, k_out = compiled.window(ONE)
    return compiled.box(max(k_in, k_out - 1))


def _check_budget(bounds: List[int], budget: int) -> None:
    predicted = math.prod(2 * b + 1 for b in bounds)
    if predicted > budget:
        raise EnumerationBudgetExceeded(predicted, budget)


def _pools(bounds: List[int]) -> List[tuple]:
    """The integers -B..B per coordinate, built once per walk, so that all
    vectors share one int object per value (ints below -5 are not cached)."""
    return [tuple(range(-b, b + 1)) for b in bounds]


def _ellipsoid_walk(compiled: CompiledNorm, cap: int, bounds: List[int]):
    """(key, v) for the v in the box with key v^T G' v <= cap, depth first.

    x_0 is the outermost coordinate.  At level i, with P the value at
    x_{<i} of the chain (``linalg.ldl_chain``), x_i = t is admissible iff
    S_i <= cap, i.e. (a t + b)^2 <= d (a cap - P), so with s = isqrt of the
    right side t runs over [-((b + s) // a), (s - b) // a], clipped to the box.
    """
    chain, last = compiled.chain, len(bounds) - 1
    x, pools = [0] * len(bounds), _pools(bounds)

    def level(i: int, p: int):
        a, d, row = chain[i]
        room = d * (a * cap - p)
        if room < 0:
            return
        b = sum(map(operator.mul, row, x))
        s = math.isqrt(room)
        lo, hi = max(-((b + s) // a), -bounds[i]), min((s - b) // a, bounds[i])
        if lo > hi:
            return
        line, base = pools[i][lo + bounds[i]:hi + bounds[i] + 1], d * p
        if i == last:  # d = 1 and the chain value is the key
            head = tuple(x[:i])
            for t in line:
                u = a * t + b
                yield (u * u + base) // a, head + (t,)
            return
        for t in line:
            u = a * t + b
            x[i] = t
            yield from level(i + 1, (u * u + base) // a)

    yield from level(0, 0)


def _polymax_walk(compiled: CompiledNorm, cap: int, bounds: List[int]):
    """(key, v) for the v in the box with key max_j |A'_j . v| <= cap.

    With p_j the partial sum over x_{<i} and tail_j = sum_{l>i} |a'_jl| B_l,
    row j admits x_i = t only if |p_j + a'_ji t| <= cap + tail_j; a row with
    a'_ji = 0 prunes the branch when |p_j| exceeds that limit.  The tails
    vanish at the innermost level, so every vector reached there is kept.
    """
    rows, r = compiled.int_rows, len(bounds)
    columns = [[row[i] for row in rows] for i in range(r)]
    limits = [[cap + sum(abs(row[l]) * bounds[l] for l in range(i + 1, r))
               for row in rows] for i in range(r)]
    x, pools = [0] * r, _pools(bounds)

    def level(i: int, partial: list):
        lo, hi = -bounds[i], bounds[i]
        for p, a, lim in zip(partial, columns[i], limits[i]):
            if a > 0:
                lo, hi = max(lo, -((lim + p) // a)), min(hi, (lim - p) // a)
            elif a < 0:
                lo, hi = max(lo, -((lim - p) // -a)), min(hi, (lim + p) // -a)
            elif abs(p) > lim:
                return
        if lo > hi:
            return
        column, line = columns[i], pools[i][lo + bounds[i]:hi + bounds[i] + 1]
        if i == r - 1:
            head = tuple(x[:i])
            values = [p + a * lo for p, a in zip(partial, column)]
            for t in line:
                yield max(map(abs, values)), head + (t,)
                values = list(map(operator.add, values, column))
            return
        for t in line:
            x[i] = t
            yield from level(i + 1, [p + a * t for p, a in zip(partial, column)])

    yield from level(0, [0] * len(rows))


# Over the corpus (verify --max-rank 5 --trials 6, seeds 0-17) at most 3
# other lists are used between two uses of one list; 32 leaves a wide margin.
@lru_cache(maxsize=32)
def vectors_with_keys(module: NormedModule, cap: int,
                      budget: int = DEFAULT_BUDGET) -> Tuple[CompiledNorm, list]:
    """All lattice vectors with key <= cap, as (key, vector) pairs.

    The budget is charged on the box of the cap.  The list is sorted by
    (key, vector) so downstream consumers are deterministic regardless of
    enumeration order.
    """
    compiled = compile_norm(module.norm)
    bounds = compiled.box(cap)
    _check_budget(bounds, budget)
    walk = _ellipsoid_walk if compiled.squared else _polymax_walk
    # rank 0: the zero vector, key 0, is the only lattice vector
    return compiled, sorted(walk(compiled, cap, bounds)) if bounds else [(0, ())]


def unit_ball(module: NormedModule,
              budget: int = DEFAULT_BUDGET) -> Tuple[CompiledNorm, list]:
    """The key-sorted closed unit ball; the budget is charged on the
    enclosing box first, so a huge twist never bisects its window's gap."""
    _check_budget(enclosing_box(module.norm), budget)
    compiled = compile_norm(module.norm)
    return vectors_with_keys(module, compiled.cap(ONE), budget)


def _strict_end(compiled: CompiledNorm, pairs: list) -> int:
    """Length of the prefix of the closed unit ball with ||v|| < 1."""
    return bisect_right(pairs, compiled.cap(ONE, True), key=operator.itemgetter(0))


@dataclass(frozen=True)
class SectionSet:
    vectors: tuple
    threshold_kind: str  # "closed" or "open"
    count: int
    log_count: float


def _section_set(pairs: list, kind: str) -> SectionSet:
    return SectionSet(tuple(v for _, v in pairs), kind, len(pairs),
                      math.log(len(pairs)))


def effective_sections(module: NormedModule, budget: int = DEFAULT_BUDGET) -> SectionSet:
    """{v in Z^r : ||v|| <= 1}, exactly."""
    _, pairs = unit_ball(module, budget)
    return _section_set(pairs, "closed")


def strictly_effective_sections(module: NormedModule,
                                budget: int = DEFAULT_BUDGET) -> SectionSet:
    """{v in Z^r : ||v|| < 1}, exactly: a prefix of the closed-ball list."""
    compiled, pairs = unit_ball(module, budget)
    return _section_set(pairs[:_strict_end(compiled, pairs)], "open")


def h0_hat(module: NormedModule, budget: int = DEFAULT_BUDGET) -> float:
    """log # {v : ||v|| <= 1}."""
    return math.log(len(unit_ball(module, budget)[1]))


def h0_hat_sef(module: NormedModule, budget: int = DEFAULT_BUDGET) -> float:
    """log # {v : ||v|| < 1}."""
    return math.log(_strict_end(*unit_ball(module, budget)))


__all__ = [
    "DEFAULT_BUDGET",
    "SectionSet",
    "effective_sections",
    "strictly_effective_sections",
    "enclosing_box",
    "h0_hat",
    "h0_hat_sef",
    "unit_ball",
    "vectors_with_keys",
]
