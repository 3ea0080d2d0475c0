"""Exact enumeration of effective sections.

Each threshold becomes one integer first: ``CompiledNorm.cap(t)`` is the
largest key K with ||v|| <= t exactly when key(v) <= K, and the strict
ball {||v|| < t} has its own cap.  The lattice vectors with key at most K
are walked depth first, x_0 outermost, over the module's compiled norm
(``norms.CompiledNorm``): each level admits only the integers x_i that can
still finish with a key at most K, exact ranges from the integer LDL^T
chain for ellipsoids (Fincke & Pohst, Math. Comp. 44, 1985), and per-row
intervals for PolyMax norms.  At the innermost level that range is a
line: every t in [lo, hi] ends in the ball.  Level i ranges over at most
2 B_i + 1 integers (``CompiledNorm.box``), and the budget is charged on
prod (2 B_i + 1) before any walk.  The unit ball finds the first key
t = 2^k whose widths pass the budget, doubling k and then bisecting, and
resolves its cap no higher than t, so a huge twist never computes its cap.
One budget governs every walk of a run: the context variable ``BUDGET``,
which the CLI sets once per subcommand, read only where a walk is charged.
A count already cached did its walk, so it is returned again without a
charge, also under a smaller budget.

A count adds hi - lo + 1 per line at the closed or the strict cap and
lists nothing, in O(r) memory.  The same lines expand into one list of
vectors per key: the vectors of a ``SectionSet`` (read on first access)
join them in key order, keeping no key per vector, and
``vectors_with_keys`` lists them as sorted (key, vector) pairs, or only
the shell of keys above a given key, for the rungs of the minima; no list
is shared, so none is cached.
"""

from __future__ import annotations

import math
import operator
from collections import defaultdict
from contextvars import ContextVar
from functools import cached_property, lru_cache
from itertools import repeat

from .errors import EnumerationBudgetExceeded
from .norms import CompiledNorm, NormedModule, compile_norm
from .record import record

DEFAULT_BUDGET = 10 ** 8
# the most candidates prod (2 B_i + 1) a walk may visit
BUDGET = ContextVar("budget", default=DEFAULT_BUDGET)


def _check_budget(bounds: list[int], budget: int) -> None:
    predicted = math.prod(2 * b + 1 for b in bounds)
    if predicted > budget:
        raise EnumerationBudgetExceeded(predicted, budget)


def _ellipsoid_walk(compiled: CompiledNorm, cap: int):
    """Lines (head, lo, hi, keys) of the lattice v with v^T G' v <= cap:
    the v = head + (t,) for lo <= t <= hi, keys() their keys, depth first.

    x_0 is the outermost coordinate.  At level i, with P the value at
    x_{<i} of the chain (``linalg.ldl_chain``), x_i = t is admissible iff
    S_i <= cap, i.e. (a t + b)^2 <= d (a cap - P), so with s = isqrt of the
    right side t runs over [-((b + s) // a), (s - b) // a], exactly.  The
    right side is never negative: the child's P, ((a t + b)^2 + d P) / a, is
    at most d cap, and d is the next level's a.  At the innermost level d = 1
    and the chain value is the key.
    """
    chain, last, x = compiled.chain, compiled.rank - 1, [0] * compiled.rank

    def level(i: int, p: int):
        a, d, row = chain[i]
        b = sum(map(operator.mul, row, x))
        s = math.isqrt(d * (a * cap - p))
        lo, hi = -((b + s) // a), (s - b) // a
        if i == last:
            if lo <= hi:
                yield tuple(x[:i]), lo, hi, lambda: [
                    (u * u + p) // a for u in range(a * lo + b, a * hi + b + 1, a)]
            return
        base = d * p
        for t in range(lo, hi + 1):
            u = a * t + b
            x[i] = t
            yield from level(i + 1, (u * u + base) // a)

    yield from level(0, 0)


def _polymax_walk(compiled: CompiledNorm, cap: int, bounds: list[int]):
    """Lines, as in ``_ellipsoid_walk``, of the v with max_j |A'_j . v| <= cap.

    With p_j the partial sum over x_{<i} and tail_j = sum_{l>i} |a'_jl| B_l,
    row j admits x_i = t only if |p_j + a'_ji t| <= cap + tail_j.  A row with
    a'_ji = 0 needs no test: p_j is 0 or met the same limit at the row's last
    nonzero coefficient, as the zero ones since took no term off the tail.
    The tails vanish at the innermost level, so every vector of a line is in
    the ball, and along a line row j runs through p_j + a'_ji t, a
    progression in t.
    """
    rows, r, x = compiled.int_rows, len(bounds), [0] * len(bounds)
    columns = [[row[i] for row in rows] for i in range(r)]
    limits = [[cap + sum(abs(row[l]) * bounds[l] for l in range(i + 1, r))
               for row in rows] for i in range(r)]

    def level(i: int, partial: list):
        lo, hi = -bounds[i], bounds[i]
        for p, a, lim in zip(partial, columns[i], limits[i]):
            if a > 0:
                lo, hi = max(lo, -((lim + p) // a)), min(hi, (lim - p) // a)
            elif a < 0:
                lo, hi = max(lo, -((lim - p) // -a)), min(hi, (lim + p) // -a)
        if i == r - 1:
            if lo <= hi:
                yield tuple(x[:i]), lo, hi, lambda: list(map(max, zip(*(
                    map(abs, range(p + a * lo, p + a * (hi + 1), a) if a
                        else repeat(p, hi - lo + 1))
                    for p, a in zip(partial, columns[i])))))
            return
        for t in range(lo, hi + 1):
            x[i] = t
            yield from level(i + 1, [p + a * t for p, a in zip(partial, columns[i])])

    yield from level(0, [0] * len(rows))


def _lines(module: NormedModule, cap: int):
    """The compiled norm, the widths of the cap (charged) and the walk's lines."""
    compiled = compile_norm(module.norm)
    bounds = compiled.box(cap)
    _check_budget(bounds, BUDGET.get())
    return compiled, bounds, (_ellipsoid_walk(compiled, cap) if compiled.squared
                              else _polymax_walk(compiled, cap, bounds))


def _shells(module: NormedModule, cap: int, above: int) -> tuple[CompiledNorm, dict]:
    """The lattice vectors with above < key <= cap as {key: [vectors]}: the
    walk is depth first, x_0 outermost, so each key's vectors arrive in
    increasing order.  The budget is charged on the widths of the cap."""
    compiled, bounds, lines = _lines(module, cap)
    if not bounds:  # rank 0: the zero vector, key 0, is the only lattice vector
        return compiled, {0: [()]} if above < 0 else {}
    shells = defaultdict(list)
    for head, lo, hi, keys in lines:
        for t, k in enumerate(keys(), lo):
            if k > above:
                shells[k].append(head + (t,))
    return compiled, shells


def vectors_with_keys(module: NormedModule, cap: int,
                      above: int = -1) -> tuple[CompiledNorm, list]:
    """The lattice vectors with above < key <= cap (all up to cap by default),
    as (key, vector) pairs sorted so that consumers are deterministic; the
    budget is charged on the widths of the cap, and only that shell is listed."""
    compiled, shells = _shells(module, cap, above)
    return compiled, [(k, v) for k in sorted(shells) for v in shells[k]]


def _unit_cap(module: NormedModule, strict: bool) -> int:
    """cap(1), or the strict cap, no higher than the first key t = 1, 2, 4,
    ... whose widths prod (2 B_i(t) + 1) pass the budget: the box grows with
    the cap, so the charge every walk makes at its cap refuses a cap that
    reaches t, at the widths of t.  The box is monotone in the key, so t's
    exponent is found by doubling it (0, 1, 2, 4, ...) and then bisecting:
    O(log bits) boxes, each an isqrt as long as the entries, not one box
    per bit of t.  Rank 0, whose ball is {0} at any cap, has no widths to
    grow.  The box has no twist, so t is found once per base compile and
    budget (``CompiledNorm.box_limits``)."""
    compiled, budget = compile_norm(module.norm), BUDGET.get()
    t = compiled.box_limits.get(budget)
    if t is None:
        def passes(k):
            return math.prod(2 * b + 1 for b in compiled.box(1 << k)) <= budget

        lo, hi = -1, 0  # 2^lo passes (lo = -1: none yet), then 2^hi fails
        while compiled.rank and passes(hi):
            lo, hi = hi, 2 * hi or 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if passes(mid) else (lo, mid)
        t = compiled.box_limits[budget] = 1 << hi
    return compiled.cap(1, strict, limit=t)


# run_suite reads the counts of one module up to five times
@lru_cache(maxsize=2048)
def _unit_count(module: NormedModule, strict: bool) -> int:
    """# {v : ||v|| <= 1} (< 1 if strict): the walk at the cap adds up the
    lengths of its lines and lists no vector, in O(r) memory."""
    _, bounds, lines = _lines(module, _unit_cap(module, strict))
    return sum(hi - lo + 1 for _, lo, hi, _ in lines) if bounds else 1


@record
class SectionSet:
    """The count of a unit ball; its vectors are listed on first access."""
    module: NormedModule
    threshold_kind: str  # "closed" or "open"
    count: int

    @property
    def log_count(self) -> float:
        return math.log(self.count)

    @cached_property
    def vectors(self) -> tuple:
        """The vectors in key order, listed at the cap of the set's own kind."""
        cap = _unit_cap(self.module, self.threshold_kind == "open")
        shells = _shells(self.module, cap, -1)[1]
        return tuple(v for k in sorted(shells) for v in shells[k])


def effective_sections(module: NormedModule) -> SectionSet:
    """{v in Z^r : ||v|| <= 1}, exactly."""
    return SectionSet(module, "closed", _unit_count(module, False))


def strictly_effective_sections(module: NormedModule) -> SectionSet:
    """{v in Z^r : ||v|| < 1}, exactly."""
    return SectionSet(module, "open", _unit_count(module, True))


def h0_hat(module: NormedModule) -> float:
    """log # {v : ||v|| <= 1}."""
    return math.log(_unit_count(module, False))


def h0_hat_sef(module: NormedModule) -> float:
    """log # {v : ||v|| < 1}."""
    return math.log(_unit_count(module, True))


__all__ = [
    "BUDGET",
    "DEFAULT_BUDGET",
    "SectionSet",
    "effective_sections",
    "strictly_effective_sections",
    "h0_hat",
    "h0_hat_sef",
    "vectors_with_keys",
]
