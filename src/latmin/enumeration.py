"""Exact enumeration of effective sections.

Every vector of the enclosing box of the ball of radius t is tested through
the module's compiled norm (``norms.CompiledNorm``): its integer key is
compared against the integer acceptance window for t, and only keys inside
the window's gap (twisted norms, near the boundary) need the exact e^alpha
comparison.

The key-sorted closed unit ball is the one list behind every count: the
strict set {||v|| < 1} is its prefix below the sphere, found by bisection
on the keys.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Tuple

from .errors import EnumerationBudgetExceeded
from .norms import CompiledNorm, NormedModule, NormSpec, compile_norm

DEFAULT_BUDGET = 10 ** 8
ONE = Fraction(1)


def enclosing_box(norm: NormSpec, radius=1) -> List[int]:
    """Per-coordinate integer bounds B_k with ||x|| <= radius => |x_k| <= B_k."""
    return compile_norm(norm).box(radius)


def _check_budget(bounds: List[int], budget: int) -> None:
    predicted = 1
    for b in bounds:
        predicted *= 2 * b + 1
    if predicted > budget:
        raise EnumerationBudgetExceeded(predicted, budget)


# Over the corpus (verify --max-rank 5 --trials 6, seeds 0-17) at most 3
# other lists are used between two uses of one list; 32 leaves a wide margin.
@lru_cache(maxsize=32)
def vectors_with_keys(module: NormedModule, radius: Fraction,
                      budget: int = DEFAULT_BUDGET) -> Tuple[CompiledNorm, list]:
    """All lattice vectors with norm <= radius, as (key, vector) pairs.

    The list is sorted by (key, vector) so downstream consumers are
    deterministic regardless of enumeration order.
    """
    compiled = compile_norm(module.norm)
    bounds = compiled.box(radius)
    _check_budget(bounds, budget)
    k_in, k_out = compiled.window(radius)
    key_f = compiled.key
    out = []
    for v in itertools.product(*[range(-b, b + 1) for b in bounds]):
        key = key_f(v)
        if key <= k_in:
            out.append((key, v))
        elif key < k_out and compiled.cmp(key, radius) <= 0:
            out.append((key, v))
    out.sort()
    return compiled, out


def _strict_end(compiled: CompiledNorm, pairs: list) -> int:
    """Length of the prefix of the closed unit ball with ||v|| < 1.

    ``cmp`` is monotone in the key and the list is key-sorted, so the first
    pair on or outside the sphere is found in O(log n) comparisons.
    """
    return bisect_left(pairs, 0, key=lambda pair: compiled.cmp(pair[0], ONE))


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
    _, pairs = vectors_with_keys(module, ONE, budget)
    return _section_set(pairs, "closed")


def strictly_effective_sections(module: NormedModule,
                                budget: int = DEFAULT_BUDGET) -> SectionSet:
    """{v in Z^r : ||v|| < 1}, exactly: a prefix of the closed-ball list."""
    compiled, pairs = vectors_with_keys(module, ONE, budget)
    return _section_set(pairs[:_strict_end(compiled, pairs)], "open")


def h0_hat(module: NormedModule, budget: int = DEFAULT_BUDGET) -> float:
    """log # {v : ||v|| <= 1}."""
    return math.log(len(vectors_with_keys(module, ONE, budget)[1]))


def h0_hat_sef(module: NormedModule, budget: int = DEFAULT_BUDGET) -> float:
    """log # {v : ||v|| < 1}."""
    return math.log(_strict_end(*vectors_with_keys(module, ONE, budget)))


__all__ = [
    "DEFAULT_BUDGET",
    "SectionSet",
    "effective_sections",
    "strictly_effective_sections",
    "enclosing_box",
    "h0_hat",
    "h0_hat_sef",
    "vectors_with_keys",
]
