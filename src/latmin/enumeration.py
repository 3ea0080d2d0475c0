"""Exact enumeration of effective sections.

Each threshold becomes one integer first: ``CompiledNorm.cap(t)`` is the
largest key K with ||v|| <= t exactly when key(v) <= K, and the strict
ball {||v|| < t} has its own cap.  The lattice vectors with key at most K
are walked by one recursion per norm kind, depth first, x_0 outermost,
over the module's compiled norm (``norms.CompiledNorm``): each level admits
only the integers x_i that can still finish with a key at most K, exact
ranges from the integer LDL^T chain for ellipsoids (Fincke & Pohst, Math.
Comp. 44, 1985), and per-row intervals for PolyMax norms.  At the innermost
level that range is a line: every t in [lo, hi] ends in the ball.  Level i
ranges over at most 2 B_i + 1 integers (``CompiledNorm.box``), and the
budget is charged on prod (2 B_i + 1) before any walk.  The unit ball
resolves its cap no higher than the first key t = 2^k whose box passes the
budget (``CompiledNorm.box_limit``), so a huge twist never computes its cap.
One budget governs every walk of a run: the context variable ``BUDGET``,
which the CLI sets once per subcommand, read only where a walk is charged.
A count already cached did its walk, so it is returned again without a
charge, also under a smaller budget.

Every count and every list is one call of ``_walk``: each level returns the
sum of its children's counts, and the innermost level returns the length
hi - lo + 1 of its line.  A count stops there, in O(r) memory.  Given a
dict of shells, the innermost level also appends its line's vectors to the
list of their key: the vectors of a ``SectionSet`` (read on first access)
join those lists in key order, keeping no key per vector, and
``vectors_with_keys`` lists them as sorted (key, vector) pairs, or only the
shell of keys above a given key, for the rungs of the minima; no list is
shared, so none is cached.
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


def _line(shells: dict, above: int, head: tuple, lo: int, keys) -> None:
    """Append the vectors head + (t,), t = lo, lo + 1, ..., of the keys
    ``keys`` in turn, to the shell of their key when it is above ``above``."""
    for t, k in enumerate(keys, lo):
        if k > above:
            shells[k].append(head + (t,))


def _ellipsoid_walk(compiled: CompiledNorm, cap: int, shells, above: int) -> int:
    """# of the lattice v with v^T G' v <= cap, depth first, each listed
    into ``shells`` (if given) as in ``_walk``.

    x_0 is the outermost coordinate.  At level i, with P the value at
    x_{<i} of the chain (``linalg.ldl_chain``), x_i = t is admissible iff
    S_i <= cap, i.e. (a t + b)^2 <= d (a cap - P), so with s = isqrt of the
    right side t runs over [-((b + s) // a), (s - b) // a], exactly.  The
    right side is never negative: the child's P, ((a t + b)^2 + d P) / a, is
    at most d cap, and d is the next level's a.  At the innermost level d = 1
    and the chain value is the key.
    """
    chain, last = compiled.chain, compiled.rank - 1

    def level(i: int, p: int, head: tuple) -> int:
        a, d, row = chain[i]
        b = sum(map(operator.mul, row, head))
        s = math.isqrt(d * (a * cap - p))
        lo, hi = -((b + s) // a), (s - b) // a
        if i < last:
            return sum(level(i + 1, ((a * t + b) ** 2 + d * p) // a, head + (t,))
                       for t in range(lo, hi + 1))
        if shells is not None:
            _line(shells, above, head, lo, (
                (u * u + p) // a for u in range(a * lo + b, a * hi + b + 1, a)))
        return max(hi - lo + 1, 0)

    return level(0, 0, ())


def _polymax_walk(compiled: CompiledNorm, cap: int, bounds: list[int],
                  shells, above: int) -> int:
    """# of the v with max_j |A'_j . v| <= cap, as in ``_ellipsoid_walk``.

    With p_j the partial sum over x_{<i}, row j admits x_i = t only if
    |p_j + a'_ji t| <= cap + tail_j, for tail_j any bound of |u . v| over
    the ball, u = (0, ..., 0, a'_j,i+1, ..., a'_j,r-1) the row after level i.
    It is the smaller of the box tail sum_{l>i} |a'_jl| B_l and the basis-dual
    tail floor(cap sum_k |(u adj(A'_0))_k| / |det A'_0|): v = adj(A'_0) y /
    det A'_0 with |y_k| <= cap on the ball.  Both depend on u alone, so a
    row with a'_ji = 0 needs no test: p_j is 0 or met the same limit at the
    row's last nonzero coefficient.  With c_j = cap + tail_j signed as a'_ji,
    the row admits exactly -((c_j + p_j) // a'_ji) <= t <= (c_j - p_j) // a'_ji.
    The tails vanish at the innermost level, so every vector of a line is in
    the ball, and along a line row j runs through p_j + a'_ji t, a
    progression in t.
    """
    rows, r, adj = compiled.int_rows, len(bounds), compiled.adjugate
    columns = [[row[i] for row in rows] for i in range(r)]
    limits = [[(-1) ** (row[i] < 0) * (cap + min(
        sum(abs(row[l]) * bounds[l] for l in range(i + 1, r)),
        cap * sum(abs(sum(row[l] * adj[l][k] for l in range(i + 1, r))) for k in range(r))
        // abs(compiled.int_det))) for row in rows] for i in range(r)]

    def level(i: int, partial: list, head: tuple) -> int:
        lo, hi = -bounds[i], bounds[i]
        for p, a, c in zip(partial, columns[i], limits[i]):
            if a:
                low, high = -((c + p) // a), (c - p) // a
                if low > lo:
                    lo = low
                if high < hi:
                    hi = high
        if i < r - 1:
            return sum(level(i + 1, [p + a * t for p, a in zip(partial, columns[i])],
                             head + (t,)) for t in range(lo, hi + 1))
        if shells is not None:
            _line(shells, above, head, lo, map(max, zip(*(
                map(abs, range(p + a * lo, p + a * (hi + 1), a) if a
                    else repeat(p, hi - lo + 1))
                for p, a in zip(partial, columns[i])))))
        return max(hi - lo + 1, 0)

    return level(0, [0] * len(rows), ())


def _walk(module: NormedModule, cap: int, shells: dict | None = None,
          above: int = -1) -> tuple[CompiledNorm, int]:
    """The compiled norm and the number of lattice vectors with key <= cap;
    given ``shells``, a defaultdict(list), also {key: [vectors]} for the
    keys above ``above``.  The walk is depth first, x_0 outermost, so each
    key's vectors arrive in increasing order.  The budget is charged on
    the widths of the cap."""
    compiled = compile_norm(module.norm)
    bounds = compiled.box(cap)
    _check_budget(bounds, BUDGET.get())
    if not bounds:  # rank 0: the zero vector, key 0, is the only lattice vector
        if shells is not None and above < 0:
            shells[0].append(())
        return compiled, 1
    return compiled, (_ellipsoid_walk(compiled, cap, shells, above) if compiled.squared
                      else _polymax_walk(compiled, cap, bounds, shells, above))


def vectors_with_keys(module: NormedModule, cap: int,
                      above: int = -1) -> tuple[CompiledNorm, list]:
    """The lattice vectors with above < key <= cap (all up to cap by default),
    as (key, vector) pairs sorted so that consumers are deterministic; the
    budget is charged on the widths of the cap, and only that shell is listed."""
    shells = defaultdict(list)
    compiled, _ = _walk(module, cap, shells, above)
    return compiled, [(k, v) for k in sorted(shells) for v in shells[k]]


def _unit_cap(module: NormedModule, strict: bool) -> int:
    """cap(1), or the strict cap, no higher than the first key t whose box
    passes the budget (``CompiledNorm.box_limit``): the box grows with the
    cap, so the charge every walk makes at its cap refuses a cap that
    reaches t, at the widths of t."""
    compiled = compile_norm(module.norm)
    return compiled.cap(1, strict, limit=compiled.box_limit(BUDGET.get()))


# run_suite reads the counts of one module up to five times
@lru_cache(maxsize=2048)
def _unit_count(module: NormedModule, strict: bool) -> int:
    """# {v : ||v|| <= 1} (< 1 if strict): ``_walk`` at the cap, given no
    shells, sums the lengths of its lines and lists no vector, in O(r)
    memory.  A twist's strict cap is its closed cap, so its strict count is
    its closed count."""
    if strict and compile_norm(module.norm).scale:
        return _unit_count(module, False)
    return _walk(module, _unit_cap(module, strict))[1]


@record
class SectionSet:
    """The count of a unit ball; its vectors are listed on first access, by
    one more ``_walk`` at the cap of the set's kind, into shells by key."""
    module: NormedModule
    threshold_kind: str  # "closed" or "open"
    count: int

    @property
    def log_count(self) -> float:
        return math.log(self.count)

    @cached_property
    def vectors(self) -> tuple:
        """The vectors in key order, listed at the cap of the set's own kind."""
        shells = defaultdict(list)
        _walk(self.module, _unit_cap(self.module, self.threshold_kind == "open"), shells)
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
