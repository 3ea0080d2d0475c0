"""Exact enumeration of effective sections.

Every vector of the enclosing box of the ball of radius t is tested through
the module's compiled norm (``norms.CompiledNorm``): its integer key is
compared against the integer acceptance window for t, and only keys inside
the window's gap (twisted norms, near the boundary) need the exact e^alpha
comparison.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Tuple

from .errors import EnumerationBudgetExceeded
from .norms import CompiledNorm, NormedModule, NormSpec, compile_norm

DEFAULT_BUDGET = 10 ** 8


def enclosing_box(norm: NormSpec, radius=1) -> List[int]:
    """Per-coordinate integer bounds B_k with ||x|| <= radius => |x_k| <= B_k."""
    return compile_norm(norm).box(radius)


def _check_budget(bounds: List[int], budget: int) -> None:
    predicted = 1
    for b in bounds:
        predicted *= 2 * b + 1
    if predicted > budget:
        raise EnumerationBudgetExceeded(predicted, budget)


@lru_cache(maxsize=2048)
def vectors_with_keys(module: NormedModule, radius: Fraction,
                      budget: int = DEFAULT_BUDGET) -> Tuple[CompiledNorm, list]:
    """All lattice vectors with norm <= radius, as (key, vector) pairs.

    The list is sorted by (key, vector) so downstream consumers are
    deterministic regardless of enumeration order.
    """
    compiled = compile_norm(module.norm)
    bounds = compiled.box(radius)
    _check_budget(bounds, budget)
    if module.rank == 0:
        return compiled, [(0, ())]
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


@dataclass(frozen=True)
class SectionSet:
    vectors: tuple
    threshold_kind: str  # "closed" or "open"
    count: int
    log_count: float


@lru_cache(maxsize=2048)
def _sections(module: NormedModule, strict: bool, budget: int) -> SectionSet:
    compiled, pairs = vectors_with_keys(module, Fraction(1), budget)
    if strict:
        keep = tuple(v for k, v in pairs if compiled.cmp(k, Fraction(1)) < 0)
    else:
        keep = tuple(v for _, v in pairs)
    return SectionSet(keep, "open" if strict else "closed", len(keep),
                      math.log(len(keep)))


def effective_sections(module: NormedModule, budget: int = DEFAULT_BUDGET) -> SectionSet:
    """{v in Z^r : ||v|| <= 1}, exactly."""
    return _sections(module, False, budget)


def strictly_effective_sections(module: NormedModule,
                                budget: int = DEFAULT_BUDGET) -> SectionSet:
    """{v in Z^r : ||v|| < 1}, exactly."""
    return _sections(module, True, budget)


def h0_hat(module: NormedModule, budget: int = DEFAULT_BUDGET) -> float:
    """log # {v : ||v|| <= 1}."""
    return effective_sections(module, budget).log_count


def h0_hat_sef(module: NormedModule, budget: int = DEFAULT_BUDGET) -> float:
    """log # {v : ||v|| < 1}."""
    return strictly_effective_sections(module, budget).log_count


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
