"""Section enumeration against an independent naive box-scan oracle.

The oracle shares nothing with the production enumerator: it computes its own
bounding box by exact Gauss-Jordan elimination, evaluates the norm of every
candidate exactly on its own integer-scaled copy of the data, and settles
twisted comparisons with high-precision mpmath directly.  The production
walk prunes by exact per-level ranges, so the oracle is run at every radius
the library enumerates at.
"""

import itertools
import json
import math
import operator
import random
from bisect import bisect_right
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from latmin import enumeration
from latmin.cli import main
from conftest import with_budget
from latmin.enumeration import (effective_sections, h0_hat, h0_hat_sef,
                                strictly_effective_sections, vectors_with_keys)
from latmin.errors import EnumerationBudgetExceeded, UnboundedBall
from latmin.intervals import exp_interval
from latmin.norms import (CompiledNorm, compile_norm, make_ellipsoid,
                          make_normed_module, make_polymax, norm_eval, twist)


# --- independent oracle ----------------------------------------------------

def _oracle_invert(matrix):
    n = len(matrix)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(matrix)]
    for col in range(n):
        piv = next(i for i in range(col, n) if aug[i][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]


def _oracle_box(module, radius=1):
    """Integer box guaranteed to contain the ball (slightly generous)."""
    spec = module.norm
    grow = math.exp(float(spec.alpha)) * (1 + 1e-9) + 1e-9
    r = module.rank
    if spec.kind == "ellipsoid":
        inv = _oracle_invert(spec.rows)
        reach = [math.sqrt(float(inv[k][k])) for k in range(r)]
    else:
        rows = [list(row) for row in spec.rows]
        # first r independent rows, then row sums of the inverse
        chosen, probe = [], []
        for row in rows:
            if len(chosen) == r:
                break
            trial = probe + [row]
            aug = [list(v) for v in trial]
            rank = 0
            for col in range(r):
                piv = next((i for i in range(rank, len(aug)) if aug[i][col]), None)
                if piv is None:
                    continue
                aug[rank], aug[piv] = aug[piv], aug[rank]
                for i in range(rank + 1, len(aug)):
                    f = Fraction(aug[i][col], 1) / aug[rank][col]
                    aug[i] = [a - f * b for a, b in zip(aug[i], aug[rank])]
                rank += 1
            if rank > len(chosen):
                chosen.append(row)
                probe.append(row)
        inv = _oracle_invert(chosen)
        reach = [float(sum(abs(inv[k][j]) for j in range(r))) for k in range(r)]
    return [int(math.floor(b * grow * radius)) + 1 for b in reach]


def _oracle_membership(module, strict, radius=1):
    """The test v -> ||v|| < radius (strict) or ||v|| <= radius, exactly."""
    spec, alpha, radius = module.norm, module.norm.alpha, Fraction(radius)
    squared = spec.kind == "ellipsoid"
    limit, power = (radius ** 2, 2 * alpha) if squared else (radius, alpha)
    # integer data: every entry times the lcm of the denominators
    scale = math.lcm(*(x.denominator for row in spec.rows for x in row))
    rows = [[int(x * scale) for x in row] for row in spec.rows]
    bound = limit * scale
    if squared:
        def value(v):
            return sum(x * sum(map(operator.mul, row, v))
                       for x, row in zip(v, rows))
    else:
        def value(v):
            return max(abs(sum(map(operator.mul, row, v))) for row in rows)
    if alpha == 0:
        if strict:
            return lambda v: value(v) < bound
        return lambda v: value(v) <= bound
    # integer value vs bound * e^power, ties impossible for alpha != 0
    with mpmath.workdps(60):
        thresh = (mpmath.exp(mpmath.mpf(power.numerator) / power.denominator)
                  * bound.numerator / bound.denominator)
    return lambda v: value(v) < thresh


def oracle_box_vectors(module, radius=1):
    return itertools.product(*[range(-b, b + 1)
                               for b in _oracle_box(module, radius)])


def oracle_sections(module, strict=False, radius=1):
    inside = _oracle_membership(module, strict, radius)
    return sorted(v for v in oracle_box_vectors(module, radius) if inside(v))


def assert_norm_eval_matches(module, closed, strict):
    """norm_eval(.).le(1) / .lt(1) decide oracle membership on the whole box."""
    closed, strict = set(closed), set(strict)
    for v in oracle_box_vectors(module):
        value = norm_eval(module, v)
        assert value.le(1) == (v in closed), v
        assert value.lt(1) == (v in strict), v


# --- tests -----------------------------------------------------------------

def euclid(rank):
    return make_normed_module(rank, make_ellipsoid(
        [[1 if i == j else 0 for j in range(rank)] for i in range(rank)]))


def test_euclidean_disk_counts():
    assert effective_sections(euclid(1)).count == 3
    assert effective_sections(euclid(2)).count == 5
    assert effective_sections(euclid(3)).count == 7
    assert strictly_effective_sections(euclid(2)).count == 1


def test_rank_zero_module():
    m = make_normed_module(0, make_ellipsoid([]))
    assert effective_sections(m).count == 1
    assert h0_hat(m) == 0.0


def test_box_norm_counts():
    box = make_normed_module(2, make_polymax([["1/4", "0/1"], ["0/1", "1/1"]]))
    sections = effective_sections(box)
    assert sections.count == 27  # x in [-4,4], y in [-1,1]
    assert strictly_effective_sections(box).count == 7 * 1


def test_twisted_counts_change_with_alpha():
    m = euclid(1)
    # norm scaled by e^{-1}: ball radius e > 2 covers integers up to 2
    grown = twist(m, 1)
    assert effective_sections(grown).count == 5
    shrunk = twist(m, -1)
    assert effective_sections(shrunk).count == 1


def test_h0_relations():
    box = make_normed_module(2, make_polymax([["1/4", "0/1"], ["0/1", "1/1"]]))
    assert h0_hat(box) == pytest.approx(math.log(27))
    assert h0_hat_sef(box) == pytest.approx(math.log(7))


def test_budget_exceeded():
    tiny = make_normed_module(2, make_polymax([["1/100", "0/1"], ["0/1", "1/100"]]))
    enumeration._unit_count.cache_clear()
    with pytest.raises(EnumerationBudgetExceeded):
        with_budget(100, effective_sections, tiny)


def test_a_cached_count_is_not_charged_again():
    """On a cold cache a budget below the box refuses; a count cached under
    the default budget did its walk, and is returned under budget 0.  Its
    vectors are not cached: listing them walks again, charged to the budget
    in force."""
    disk = euclid(2)
    enumeration._unit_count.cache_clear()
    with pytest.raises(EnumerationBudgetExceeded):
        with_budget(0, effective_sections, disk)
    assert effective_sections(disk).count == 5
    assert with_budget(0, effective_sections, disk).count == 5
    assert with_budget(0, h0_hat, disk) == math.log(5)
    cached = with_budget(0, effective_sections, disk)
    with pytest.raises(EnumerationBudgetExceeded,
                       match="predicted 9 candidates exceeds budget 0"):
        with_budget(0, lambda: cached.vectors)
    assert cached.vectors == ((0, 0), (-1, 0), (0, -1), (0, 1), (1, 0))


@pytest.mark.parametrize("seed", range(12))
def test_matches_oracle_on_random_modules(seed):
    from latmin.inequalities import random_module

    m = random_module(seed * 1000 + 17, rank_max=3)
    closed, strict = oracle_sections(m), oracle_sections(m, strict=True)
    assert sorted(effective_sections(m).vectors) == closed
    assert sorted(strictly_effective_sections(m).vectors) == strict
    assert_norm_eval_matches(m, closed, strict)


def test_oracle_agrees_on_twisted_ellipsoid():
    m = twist(make_normed_module(2, make_ellipsoid(
        [["1/2", "1/5"], ["1/5", "2/3"]])), Fraction(-2, 5))
    closed = oracle_sections(m)
    assert sorted(effective_sections(m).vectors) == closed
    assert_norm_eval_matches(m, closed, oracle_sections(m, strict=True))


# --- the pruned walk at every radius ---------------------------------------

# the walk runs at the key cap of each radius: successive_minima climbs
# from the cap of radius 1 by radius doubling; 1/3 leaves only a few points,
# or only 0
RADII = (Fraction(1, 3), Fraction(1), Fraction(2), Fraction(4))
# largest unit-ball half-width per rank: the oracle box at radius 4 stays
# below about 10^5 candidates
REACH = {1: 3, 2: 2, 3: Fraction(3, 2), 4: Fraction(8, 5), 5: Fraction(6, 5)}


def _ceil64(x):
    """x rounded up to a multiple of 1/64: the ball shrinks a little."""
    return Fraction(math.ceil(x * 64), 64)


def shaped_module(rank, family, twisted):
    """A seeded random module whose unit ball reaches about REACH[rank]."""
    rng = random.Random(f"walk:{rank}:{family}:{twisted}")
    if family == "ellipsoid":
        # G = A^T A + I with A = 2I + noise, scaled so the box fits REACH
        a = [[2 * (i == j) + rng.randint(-2, 2) for j in range(rank)]
             for i in range(rank)]
        gram = [[sum(a[k][i] * a[k][j] for k in range(rank)) + (i == j)
                 for j in range(rank)] for i in range(rank)]
        inv = _oracle_invert(gram)
        scale = _ceil64(max(inv[k][k] for k in range(rank)) / REACH[rank] ** 2)
        spec = make_ellipsoid([[x * scale for x in row] for row in gram])
    else:
        # square part with zero and negative off-diagonal entries, then
        # 0-2 rows beyond the rank
        rows = [[Fraction(rng.randint(-2, 2), 4) if i != j else Fraction(1)
                 for j in range(rank)] for i in range(rank)]
        rows += [[Fraction(rng.randint(-2, 2), 3) for _ in range(rank)]
                 for _ in range(rng.randint(0, 2))]
        inv = _oracle_invert(rows[:rank])
        reach = max(sum(abs(x) for x in row) for row in inv)
        scale = _ceil64(reach / REACH[rank])
        spec = make_polymax([[x * scale for x in row] for row in rows])
    module = make_normed_module(rank, spec)
    if twisted:
        module = twist(module, Fraction(rng.choice((-5, -3, -1, 1, 3, 5)), 12))
    return module


def hand_built_modules():
    zero_columns = make_polymax([["1/2", "0", "0"], ["0", "-1", "0"],
                                 ["0", "1/3", "-1/2"], ["0", "0", "1"]])
    mixed_signs = make_polymax([["1", "0", "-1/3"], ["0", "-1", "1/4"],
                                ["-1/5", "1/3", "1"], ["1/2", "-1/2", "-1/2"]])
    # eigenvalues 2 - 1/50 and 1/50: a needle along (1, -1)
    needle = make_ellipsoid([["1", "49/50"], ["49/50", "1"]])
    # G = A^T A for a badly reduced basis A
    a = [[1, 4, 3], [0, 1, 4], [0, 0, 1]]
    skewed = make_ellipsoid([[sum(a[k][i] * a[k][j] for k in range(3))
                              for j in range(3)] for i in range(3)])
    modules = [make_normed_module(spec.dim, spec)
               for spec in (zero_columns, mixed_signs, needle, skewed)]
    return modules + [twist(m, Fraction(-2, 7)) for m in modules]


def assert_walk_matches_oracle(module, radius):
    """The walk at the cap of a radius lists the oracle's closed ball, and
    the strict cap cuts the oracle's open ball out of it; a list above a key
    is the full list's entries with larger keys."""
    cap = compile_norm(module.norm).cap(radius)
    compiled, pairs = vectors_with_keys(module, cap)
    assert pairs == sorted(pairs)
    for above in (-1, 0, pairs[len(pairs) // 2][0], cap):
        assert vectors_with_keys(module, cap, above=above)[1] == [
            (key, v) for key, v in pairs if key > above]
    closed = oracle_sections(module, radius=radius)
    assert sorted(v for _, v in pairs) == closed
    assert all(key == compiled.key(v) for key, v in pairs)
    inside = _oracle_membership(module, True, radius)
    strict_cap = compiled.cap(radius, strict=True)
    assert sorted(v for key, v in pairs if key <= strict_cap) == [
        v for v in closed if inside(v)]


@pytest.mark.parametrize("radius", RADII, ids=str)
@pytest.mark.parametrize("twisted", [False, True], ids=["plain", "twisted"])
@pytest.mark.parametrize("family", ["ellipsoid", "polymax"])
@pytest.mark.parametrize("rank", range(1, 6))
def test_walk_matches_oracle_at_radius(rank, family, twisted, radius):
    assert_walk_matches_oracle(shaped_module(rank, family, twisted), radius)


@pytest.mark.parametrize("radius", RADII, ids=str)
@pytest.mark.parametrize("index", range(8))
def test_walk_matches_oracle_on_hand_built_modules(index, radius):
    assert_walk_matches_oracle(hand_built_modules()[index], radius)


@pytest.mark.parametrize("radius", RADII, ids=str)
def test_rank_zero_walk(radius):
    for spec in (make_ellipsoid([]), make_polymax([[]])):
        m = make_normed_module(0, spec)
        cap = compile_norm(m.norm).cap(radius)
        assert vectors_with_keys(m, cap)[1] == [(0, ())]
        assert vectors_with_keys(m, cap, above=0)[1] == []


def _e_convergent(bits, below):
    """A convergent p/q of e with q > 2^bits, below or above e.

    e = [2; 1, 2, 1, 1, 4, 1, 1, 6, ...], and |e - p/q| < 1/q^2; the
    convergents of even index lie below e, those of odd index above.
    """
    terms = itertools.chain.from_iterable(
        itertools.chain([(2,)], ((1, 2 * k, 1) for k in itertools.count(1))))
    p, q, p_prev, q_prev = 1, 0, 0, 1
    for n, a in enumerate(terms):
        p, q, p_prev, q_prev = a * p + p_prev, a * q + q_prev, p, q
        if q.bit_length() > bits and n % 2 == (0 if below else 1):
            return Fraction(p, q)


@pytest.mark.parametrize("below", [True, False], ids=["below", "above"])
@pytest.mark.parametrize("family", ["ellipsoid", "polymax"])
def test_keys_inside_the_exp_window_are_decided_exactly(family, below):
    """||(1,)|| is within 2^-160 of 1, so its key lies strictly inside the
    128-bit enclosure of den e^scale: the walk must reach it and the exact
    floor of the cap decide it."""
    c = _e_convergent(80, below)
    with mpmath.workdps(200):
        assert (mpmath.mpf(c.numerator) / c.denominator < mpmath.e) == below
    if family == "polymax":  # ||x|| = e^-1 c |x|
        m = twist(make_normed_module(1, make_polymax([[c]])), 1)
    else:  # ||x|| = e^-1/2 sqrt(c) |x|
        m = twist(make_normed_module(1, make_ellipsoid([[c]])), Fraction(1, 2))
    compiled = compile_norm(m.norm)
    lo, hi = exp_interval(compiled.scale, 128)
    assert compiled.den * lo < compiled.key((1,)) < compiled.den * hi
    expected = [(0,), (-1,), (1,)] if below else [(0,)]
    assert compiled.cap(Fraction(1)) == compiled.key((1,)) - (not below)
    assert [v for _, v in vectors_with_keys(m, compiled.cap(Fraction(1)))[1]] == expected
    assert strictly_effective_sections(m).count == len(expected)


def test_cap_is_exact_at_ties():
    """An untwisted sphere through an integer key puts the strict cap one
    below the closed one; a twisted sphere meets no key, and they agree."""
    disk = compile_norm(euclid(2).norm)
    assert (disk.cap(Fraction(1)), disk.cap(Fraction(1), strict=True)) == (1, 0)
    assert (disk.cap(Fraction(3, 2)), disk.cap(Fraction(3, 2), strict=True)) == (2, 2)
    quarter = compile_norm(make_polymax([["1/4", 0], [0, 1]]))  # den 4
    assert (quarter.cap(Fraction(1)), quarter.cap(Fraction(1), strict=True)) == (4, 3)
    # ||v||^2 = e^(-2/3) key: e^(2/3) = 1.947..., 4 e^(2/3) = 7.79...
    twisted = compile_norm(twist(euclid(2), Fraction(1, 3)).norm)
    for t, cap in ((Fraction(1), 1), (Fraction(2), 7)):
        assert twisted.cap(t) == twisted.cap(t, strict=True) == cap


def large_denominator_twists():
    """Two twists by 1/3 whose caps need e^(2/3) to over 250 bits and e^(1/3)
    to over 1,580 bits, past any fixed precision floor."""
    gram = make_ellipsoid([[Fraction(2 ** 250 + 3, 2 ** 250 + 1)]])
    polymax = make_polymax([[Fraction(3 ** 1000 + 1, 3 ** 1000), 0], [0, 1]])
    return [twist(make_normed_module(n.dim, n), Fraction(1, 3)) for n in (gram, polymax)]


def test_twists_with_large_denominators_count_exactly():
    counts = [(effective_sections(m).count, strictly_effective_sections(m).count)
              for m in large_denominator_twists()]
    assert counts == [(3, 3), (9, 9)]


def _box_size(module, strict=False):
    """prod (2 B_i + 1) over the walk's widths at the unit cap."""
    compiled = compile_norm(module.norm)
    return math.prod(2 * b + 1 for b in compiled.box(compiled.cap(Fraction(1), strict)))


def test_budget_is_charged_on_the_box():
    """At the widths' product of the unit cap the count runs; one below, it
    is refused, whether the doubling gate or the cap's own check refuses."""
    modules = [shaped_module(3, family, twisted) for family in ("ellipsoid", "polymax")
               for twisted in (False, True)]
    for m in modules + [euclid(2)]:
        for strict, count in ((False, effective_sections),
                              (True, strictly_effective_sections)):
            size = _box_size(m, strict)
            enumeration._unit_count.cache_clear()
            with pytest.raises(EnumerationBudgetExceeded):
                with_budget(size - 1, count, m)
            assert with_budget(size, count, m).count <= size


def _per_key_refusal(compiled, strict, budget):
    """The predicted size at which a count charging the keys t = 1, 2, 4, ...
    of the unit ball in turn, then its cap, refuses it, or None if it runs."""
    cap, t = compiled.cap(Fraction(1), strict), 1
    while t <= cap:
        predicted = math.prod(2 * b + 1 for b in compiled.box(t))
        if predicted > budget:
            return predicted
        t *= 2
    predicted = math.prod(2 * b + 1 for b in compiled.box(cap))
    return predicted if predicted > budget else None


def test_unit_cap_is_one_limited_floor(monkeypatch):
    """The unit cap doubles its key in integers alone and is one floor_exp
    call, limited to the first key past the budget: a count refuses where
    a gate charging each key in turn does, with the same predicted size."""
    from latmin import norms
    calls, floor_exp = [], norms.floor_exp
    monkeypatch.setattr(norms, "floor_exp",
                        lambda *args: calls.append(args) or floor_exp(*args))
    modules = [shaped_module(rank, family, True) for rank in (2, 3)
               for family in ("ellipsoid", "polymax")]
    modules += large_denominator_twists() + [twist(euclid(2), 5000)]
    for m in modules:
        compiled = compile_norm(m.norm)
        for strict in (False, True):
            for budget in (0, 1, 10, 1000, 10 ** 8):
                refused = _per_key_refusal(compiled, strict, budget)
                calls.clear()
                try:  # the count uncached
                    with_budget(budget, enumeration._unit_count.__wrapped__, m, strict)
                except EnumerationBudgetExceeded as exc:
                    assert exc.predicted == refused, (m, strict, budget)
                else:
                    assert refused is None
                assert len(calls) == 1
                if refused is None:
                    cap = with_budget(budget, enumeration._unit_cap, m, strict)
                    assert cap == compiled.cap(Fraction(1), strict)


def test_unit_cap_limit_is_found_once_per_base_and_budget(monkeypatch):
    """The closed and strict counts of a module and of two twists, the six
    counts of one corpus instance, search the key to the budget's limit
    once: a twist's box is its base's, and so is the memo of the limit."""
    base = shaped_module(3, "polymax", False)
    modules = [base, twist(base, "1/3"), twist(base, "-1/2")]
    compile_norm.cache_clear()
    enumeration._unit_count.cache_clear()
    caps, box = [], CompiledNorm.box
    monkeypatch.setattr(CompiledNorm, "box",
                        lambda self, cap: caps.append(cap) or box(self, cap))
    budget = 10 ** 6

    def counts():
        return [count(m).count for m in modules
                for count in (effective_sections, strictly_effective_sections)]

    assert with_budget(budget, counts) == [
        len(oracle_sections(m, strict)) for m in modules for strict in (False, True)]
    limit = compile_norm(base.norm).box_limits[budget]
    assert all(compile_norm(m.norm).box_limits is compile_norm(base.norm).box_limits
               for m in modules)
    assert limit == 2 ** 15
    # the exponent doubles from 0 until 2^16 fails, then bisects [8, 16]
    search = [1 << k for k in (0, 1, 2, 4, 8, 16, 12, 14, 15)]
    assert caps[:len(search)] == search
    assert len(caps) == len(search) + len(modules) * 2  # and one box per walk


def test_a_ball_with_huge_entries_counts_in_a_few_boxes(monkeypatch):
    """G = [[10^10000]] holds only 0.  Its limit t has about 33,000 bits,
    found in O(log bits) boxes, each an isqrt as long as the entry, not
    one box per bit of t."""
    calls, box = [], CompiledNorm.box
    monkeypatch.setattr(CompiledNorm, "box",
                        lambda self, cap: calls.append(cap) or box(self, cap))
    m = make_normed_module(1, make_ellipsoid([[10 ** 10000]]))
    assert effective_sections(m).count == 1
    assert len(calls) <= 40


def test_cli_budget_below_the_box_exits_3(capsys, tmp_path):
    m = shaped_module(3, "ellipsoid", False)
    path = tmp_path / "module.json"
    path.write_text(json.dumps(m.to_json()))
    size = _box_size(m)
    enumeration._unit_count.cache_clear()
    assert main(["count", "--module", str(path), "--budget", str(size - 1)]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["type"] == "EnumerationBudgetExceeded"
    assert main(["count", "--module", str(path), "--budget", str(size)]) == 0


def found_module():
    """G = A^T A / 256 for a badly reduced A: 17,077 points in a ball whose
    bounding box, from the diagonal of G^-1, holds 5,656,365."""
    a = [[1, 5, 3], [0, 1, 6], [0, 0, 1]]
    return make_normed_module(3, make_ellipsoid(
        [[Fraction(sum(a[k][i] * a[k][j] for k in range(3)), 256) for j in range(3)]
         for i in range(3)]))


def test_ellipsoid_box_is_within_the_real_one():
    """The chain widths' product, before rounding, is 2^r sqrt(cap^r /
    det G'), at most the real bounding box of the ball key <= cap, whose
    half-widths are sqrt(cap (G'^-1)_kk) (Hadamard)."""
    specs = [shaped_module(rank, "ellipsoid", False).norm for rank in range(1, 6)]
    specs += [m.norm for m in hand_built_modules()[2:4]]  # the needle, the skewed gram
    specs.append(found_module().norm)
    for spec in specs:
        compiled = compile_norm(spec)
        inv = _oracle_invert(compiled.int_rows)
        for cap in (1, compiled.cap(Fraction(1)), 10 ** 12):
            box = compiled.box(cap)
            # 2 B + 1 is the least odd count at least floor(2 s / a) + 1
            counts = [2 * math.isqrt(d * a * cap) // a + 1 for a, d, _ in compiled.chain]
            assert all(n <= 2 * b + 1 <= n + 1 for b, n in zip(box, counts))
            chain = math.prod(Fraction(math.isqrt(d * a * cap), a) ** 2
                              for a, d, _ in compiled.chain)
            assert chain <= math.prod(cap * inv[k][k] for k in range(spec.dim))
    # half-widths 439, 4 and 2, the nearest integers to 439, 3.95 and 2.35
    assert _box_size(found_module()) == 879 * 9 * 5


def test_found_module_counts_under_a_budget_of_a_million(capsys, tmp_path):
    path = tmp_path / "module.json"
    path.write_text(json.dumps(found_module().to_json()))
    assert main(["count", "--module", str(path), "--budget", "39554"]) == 3
    assert main(["count", "--module", str(path), "--budget", "39555"]) == 0
    capsys.readouterr()
    assert main(["count", "--module", str(path), "--budget", "1000000"]) == 0
    assert json.loads(capsys.readouterr().out)["report"]["count"] == 17077


def _level_spreads(lines, r):
    """Per level i and prefix x_{<i}: the spread max - min + 1 of the x_i
    that the lines reach, a lower bound on the number of integers the walk's
    range at that level holds."""
    spread = [{} for _ in range(r)]
    for head, lo, hi, _ in lines:
        for i in range(r - 1):
            low, high = spread[i].get(head[:i], (head[i], head[i]))
            spread[i][head[:i]] = (min(low, head[i]), max(high, head[i]))
        spread[r - 1][head] = (lo, hi)
    return [max((high - low + 1 for low, high in level.values()), default=0)
            for level in spread]


def test_box_bounds_every_walk_range():
    """Level i of the walk ranges over at most 2 B_i + 1 integers, on every
    module the oracle checks at every radius; for a polymax, B_i also bounds
    |x_i|."""
    modules = [shaped_module(rank, family, twisted) for rank in range(1, 6)
               for family in ("ellipsoid", "polymax") for twisted in (False, True)]
    for module, radius in itertools.product(modules + hand_built_modules(), RADII):
        compiled = compile_norm(module.norm)
        cap = compiled.cap(radius)
        box = compiled.box(cap)
        _, _, lines = enumeration._lines(module, cap)
        lines = list(lines)
        spreads = _level_spreads(lines, module.rank)
        assert all(s <= 2 * b + 1 for s, b in zip(spreads, box)), (spreads, box)
        assert sum(hi - lo + 1 for _, lo, hi, _ in lines) <= math.prod(
            2 * b + 1 for b in box)
        if not compiled.squared:
            assert all(abs(x) <= b for _, v in vectors_with_keys(module, cap)[1]
                       for x, b in zip(v, box))


# --- counts by lines ---------------------------------------------------------

def assert_counts_match_the_list(module):
    """The line counts are the length of the closed-ball list at cap(1) and
    of its prefix up to the strict cap."""
    compiled = compile_norm(module.norm)
    _, pairs = vectors_with_keys(module, compiled.cap(Fraction(1)))
    strict = bisect_right(pairs, compiled.cap(Fraction(1), strict=True),
                          key=operator.itemgetter(0))
    assert effective_sections(module).count == len(pairs)
    assert strictly_effective_sections(module).count == strict
    assert h0_hat(module) == math.log(len(pairs))
    assert h0_hat_sef(module) == math.log(strict)
    return len(pairs), strict


@st.composite
def drawn_modules(draw):
    """A small random ellipsoid or polymax module, twisted or not."""
    rank = draw(st.integers(1, 4))
    small = st.integers(-2, 2)
    scale = Fraction(1, draw(st.integers(1, 6)))  # a larger ball as it shrinks
    if draw(st.sampled_from(("ellipsoid", "polymax"))) == "ellipsoid":
        a = [[2 * (i == j) + draw(small) for j in range(rank)] for i in range(rank)]
        spec = make_ellipsoid([[scale * (sum(a[k][i] * a[k][j] for k in range(rank))
                                         + (i == j)) for j in range(rank)]
                               for i in range(rank)])
    else:
        rows = rank + draw(st.integers(0, 2))
        spec = make_polymax([[scale * draw(small) / draw(st.integers(1, 3))
                              for _ in range(rank)] for _ in range(rows)])
    try:
        module = make_normed_module(rank, spec)
    except UnboundedBall:  # functionals that do not span
        reject()
    alpha = draw(st.sampled_from((0, 0, Fraction(-1, 2), Fraction(-1, 7),
                                  Fraction(1, 5), Fraction(2, 3))))
    return twist(module, alpha)


@settings(deadline=None, max_examples=150, derandomize=True)
@given(drawn_modules())
def test_line_counts_match_the_list(module):
    assert_counts_match_the_list(module)


def test_rank_zero_line_counts():
    for spec in (make_ellipsoid([]), make_polymax([[]])):
        assert assert_counts_match_the_list(make_normed_module(0, spec)) == (1, 1)


def test_line_counts_at_ties():
    """The cases of test_cap_is_exact_at_ties, at radius t as the unit ball
    of the norm divided by t: the strict count drops only on an untwisted
    sphere through a lattice point."""
    disk = [[1, 0], [0, 1]]
    quarter = make_normed_module(2, make_polymax([["1/4", 0], [0, 1]]))
    cases = [
        (euclid(2), (5, 1)),
        (make_normed_module(2, make_ellipsoid([[x * Fraction(4, 9) for x in row]
                                               for row in disk])), (9, 9)),
        (quarter, (27, 7)),
        (twist(euclid(2), Fraction(1, 3)), (5, 5)),
        # ||v||^2 <= 4 e^(2/3) = 7.79...: the 21 points with |v|^2 <= 7
        (twist(make_normed_module(2, make_ellipsoid(
            [[x * Fraction(1, 4) for x in row] for row in disk])), Fraction(1, 3)), (21, 21)),
    ]
    for module, counts in cases:
        assert assert_counts_match_the_list(module) == counts


def test_counts_build_no_list(monkeypatch):
    """A count walks lines and lists nothing; the vectors of a section set
    are listed when read, and are the key-sorted ball or its prefix."""
    calls = []
    monkeypatch.setattr(enumeration, "vectors_with_keys", lambda *args: (
        calls.append(args) or vectors_with_keys(*args)))
    sheared = make_normed_module(2, make_polymax([["1/5", "1/10"], [0, "1/2"]]))
    for m in (sheared, twist(hand_built_modules()[3], Fraction(1, 7))):
        calls.clear()
        closed, strict = effective_sections(m), strictly_effective_sections(m)
        counts = (closed.count, strict.count, h0_hat(m), h0_hat_sef(m))
        assert calls == []
        assert counts[2:] == (math.log(counts[0]), math.log(counts[1]))
        listed = effective_sections(m).vectors
        assert closed.vectors == listed and len(listed) == closed.count
        assert strict.vectors == listed[:strict.count]
        assert sorted(listed) == oracle_sections(m)
        assert sorted(strict.vectors) == oracle_sections(m, strict=True)
