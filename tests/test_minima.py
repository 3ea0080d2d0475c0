"""Successive minima, unit-ball volumes, Euler characteristic."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latmin import minima
from latmin.enumeration import effective_sections, strictly_effective_sections
from latmin.errors import PreconditionViolated
from latmin.inequalities import random_module
from latmin.intervals import log_unit_ball_volume
from latmin.linalg import span_rank
from latmin.minima import ball_volume, euler_characteristic, successive_minima
from latmin.norms import (compile_norm, make_ellipsoid, make_normed_module,
                          make_polymax, norm_eval, twist)
from test_enumeration import (_oracle_invert, drawn_modules, hand_built_modules,
                              oracle_sections, shaped_module)
from test_linalg import _oracle_det, _oracle_independent


def euclid(rank):
    return make_normed_module(rank, make_ellipsoid(
        [[1 if i == j else 0 for j in range(rank)] for i in range(rank)]))


def box_module():
    # max(|x|/4, |y|): minima 1/4 and 1
    return make_normed_module(2, make_polymax([["1/4", "0/1"], ["0/1", "1/1"]]))


def test_minima_of_euclidean_lattice():
    rep = successive_minima(euclid(3))
    assert rep.lambdas == pytest.approx((1.0, 1.0, 1.0))
    assert rep.mus == (0.0, 0.0, 0.0)
    assert len(rep.witnesses) == 3
    # witnesses are canonical sign representatives spanning the full rank
    assert span_rank(rep.witnesses) == 3


def test_minima_of_box_norm():
    rep = successive_minima(box_module())
    assert rep.lambdas[0] == pytest.approx(0.25)
    assert rep.lambdas[1] == pytest.approx(1.0)
    assert rep.mus[0] == pytest.approx(math.log(4))
    assert rep.witnesses[0] == (1, 0)
    assert rep.witnesses[1] in ((0, 1), (1, 1))


def test_twist_shifts_minima_additively():
    m = box_module()
    a = Fraction(2, 7)
    plain = successive_minima(m)
    twisted = successive_minima(twist(m, a))
    for (al0, k0, d0, s0), (al1, k1, d1, s1) in zip(plain.mu_parts,
                                                    twisted.mu_parts):
        assert (k1, d1, s1) == (k0, d0, s0)
        assert al1 - al0 == a  # mu_i increases by exactly alpha
    for m0, m1 in zip(plain.mus, twisted.mus):
        assert m1 == pytest.approx(m0 + float(a))


def _oracle_minima(module):
    """Witnesses and untwisted key values key/den of the successive minima:
    the greedy choice, by (value, vector), of canonical rank-increasing
    vectors in the oracle's ball of a radius that holds every e_k."""
    rows, alpha, r = module.norm.rows, module.norm.alpha, module.rank
    if module.norm.kind == "ellipsoid":
        def value(v):
            return sum(x * g * y for x, row in zip(v, rows) for g, y in zip(row, v))
        reach = max(math.sqrt(rows[k][k]) for k in range(r))
    else:
        def value(v):
            return max(abs(sum(a * x for a, x in zip(row, v))) for row in rows)
        reach = max(abs(row[k]) for row in rows for k in range(r))
    radius = Fraction(math.ceil(math.exp(-float(alpha)) * reach * 64) + 1, 64)
    chosen = []
    for v in sorted(oracle_sections(module, radius=radius), key=lambda v: (value(v), v)):
        # v > 0 lexicographically: nonzero, first nonzero entry positive
        if v > (0,) * r and _oracle_independent(chosen + [v]):
            chosen.append(v)
    return chosen, [value(v) for v in chosen]


def _record_caps(monkeypatch):
    """The (cap, above) of every list successive_minima asks for, in order."""
    caps, listed = [], minima.vectors_with_keys
    monkeypatch.setattr(minima, "vectors_with_keys", lambda module, cap, above: (
        caps.append((cap, above)) or listed(module, cap, above=above)))
    return caps


def _minima_modules():
    modules = [shaped_module(rank, family, twisted) for rank in range(1, 5)
               for family in ("ellipsoid", "polymax") for twisted in (False, True)]
    return modules + hand_built_modules() + [box_module(), twist(euclid(2), 3)]


@pytest.mark.parametrize("index", range(26))
def test_minima_match_the_oracle(monkeypatch, index):
    """Same witnesses and values as the oracle, from lists whose caps start
    at key 1 and never pass the ceiling, the largest key of a unit vector;
    each rung lists only the keys above the previous cap (0 at the first)."""
    module = _minima_modules()[index]
    caps = _record_caps(monkeypatch)
    rep = successive_minima.__wrapped__(module)
    compiled, r = compile_norm(module.norm), module.rank
    units = [compiled.key([int(i == k) for i in range(r)]) for k in range(r)]
    assert caps[0][0] == 1 and max(cap for cap, _ in caps) <= max(units)
    assert [above for _, above in caps] == [0] + [cap for cap, _ in caps[:-1]]
    witnesses, values = _oracle_minima(module)
    assert list(rep.witnesses) == witnesses
    assert [Fraction(k, den) for _, k, den, _ in rep.mu_parts] == values


def _positive_first(v):
    """v != 0 and its first nonzero entry is positive."""
    return next((x > 0 for x in v if x), False)


def test_tuple_order_reads_the_sign_of_the_first_nonzero_entry():
    """successive_minima keeps a vector v of rank r when v > (0,) * r.  For
    every v of rank 0-3 with entries in -2..2 that is exactly the rule that v
    is nonzero with a positive first nonzero entry, and every witness of the
    ladder keeps that rule, its negation not."""
    for r in range(4):
        for v in itertools.product(range(-2, 3), repeat=r):
            assert (v > (0,) * r) == _positive_first(v), v
    for module in _minima_modules():
        for w in successive_minima(module).witnesses:
            assert _positive_first(w) and not _positive_first(tuple(-x for x in w)), w


@pytest.mark.parametrize("alpha, most", [(-2000, 3), (10, 1), (5000, 1)])
def test_twisted_minima_take_few_rungs(monkeypatch, alpha, most):
    """The ladder starts at key 1 and never passes the largest key of a
    unit vector, the key 1 of e_k here: one rung at key 1, whatever e^alpha
    is."""
    caps = _record_caps(monkeypatch)
    rep = successive_minima.__wrapped__(twist(euclid(2), alpha))
    assert len(caps) <= most and caps == [(1, 0)]
    assert rep.witnesses == ((0, 1), (1, 0))
    assert rep.mus == (float(alpha), float(alpha))


@pytest.mark.parametrize("alpha", [0, -2000])
def test_minima_of_an_unreduced_basis_start_small(monkeypatch, alpha):
    """G = U^T U with U = [[60, 59], [61, 60]] of det 1: both minima are 1,
    while the unit vectors have keys 7321 and 7081, whose box has about
    2 * 10^8 points.  The first rung, key 1, already spans."""
    caps = _record_caps(monkeypatch)
    module = make_normed_module(2, make_ellipsoid([[7321, 7200], [7200, 7081]]))
    rep = successive_minima.__wrapped__(twist(module, alpha))
    assert caps == [(1, 0)]
    assert rep.witnesses == ((59, -60), (60, -61))
    assert rep.mus == (float(alpha), float(alpha))


def _count_volume_work(monkeypatch):
    """A reader of the calls of _node_volume and the entries of its memos,
    the misses, since the last read."""
    calls, memos, node_volume = [0], {}, minima._node_volume

    def counted_volume(node, memo):
        calls[0] += 1
        memos[id(memo)] = memo
        return node_volume(node, memo)

    def read():
        work = {"calls": calls[0], "misses": sum(map(len, memos.values()))}
        calls[0] = 0
        memos.clear()
        return work
    monkeypatch.setattr(minima, "_node_volume", counted_volume)
    return read


def test_minima_ladder_lists_few_vectors_at_ranks_6_to_8(monkeypatch):
    """Work gates at 1.25 times the counts: the ranks 6-8 corpus of seed 3
    lists 69,112 vectors in its minima rungs, and CI's corpus (seed 3, 40
    trials, ranks <= 8) lists 21,440, makes 6,138 Lasserre calls and misses
    the memo 1,450 times.  The radius doubles until a rung finds a vector,
    then grows by about e^(1/r) per rung, and each rung lists only the keys
    above the last cap.  At ranks 6-8, doubling all the way listed 4,105,947
    vectors and re-listing every rung's prefix 126,684."""
    from latmin.inequalities import run_suite
    work, walk = {}, minima.vectors_with_keys

    def counted(module, cap, above):
        compiled, pairs = walk(module, cap, above=above)
        work["listed"] += len(pairs)
        return compiled, pairs
    monkeypatch.setattr(minima, "vectors_with_keys", counted)
    volume_work, found = _count_volume_work(monkeypatch), {}
    for name, config in (("6-8", dict(seed=3, trials=10, rank_min=6, rank_max=8)),
                         ("ci", dict(seed=3, trials=40, rank_max=8))):
        # every module's rungs and volume are computed here
        successive_minima.cache_clear()
        ball_volume.cache_clear()
        work.update(listed=0)
        run_suite(**config)
        found[name] = dict(work, **volume_work())
    assert 0 < found["6-8"]["listed"] <= 86390
    assert 0 < found["ci"]["listed"] <= 26800
    assert 0 < found["ci"]["calls"] <= 8233
    assert 0 < found["ci"]["misses"] <= 1812


def test_minima_need_positive_rank():
    with pytest.raises(PreconditionViolated):
        successive_minima(make_normed_module(0, make_ellipsoid([])))


def test_log_unit_ball_volume_known_values():
    assert log_unit_ball_volume(1) == pytest.approx(math.log(2))
    assert log_unit_ball_volume(2) == pytest.approx(math.log(math.pi))
    assert log_unit_ball_volume(3) == pytest.approx(math.log(4 * math.pi / 3))
    assert log_unit_ball_volume(4) == pytest.approx(math.log(math.pi ** 2 / 2))


def test_ellipsoid_volume_exact():
    vol = ball_volume(euclid(2))
    assert vol.method == "exact-ellipsoid"
    assert vol.value == pytest.approx(math.pi)
    # det scales the volume by 1/sqrt(det)
    squished = make_normed_module(2, make_ellipsoid([[4, 0], [0, 1]]))
    assert ball_volume(squished).value == pytest.approx(math.pi / 2)


def test_parallelepiped_volume_exact():
    vol = ball_volume(box_module())
    assert vol.method == "exact-polytope"
    assert vol.exact == Fraction(16)
    assert vol.value == pytest.approx(16.0)


def test_polygon_volume_exact():
    # unit square cut by |x + y| <= 1: area 3
    m = make_normed_module(2, make_polymax([[1, 0], [0, 1], [1, 1]]))
    vol = ball_volume(m)
    assert vol.method == "exact-polytope"
    assert vol.exact == Fraction(3)


def test_twist_scales_volume():
    a = Fraction(1, 3)
    for m, exact in ((euclid(2), None), (box_module(), Fraction(16))):
        v0 = ball_volume(m)
        v1 = ball_volume(twist(m, a))
        assert v1.log_value == pytest.approx(v0.log_value + 2 * float(a))
        # a polymax twist keeps the rational volume of its untwisted ball
        assert v1.exact == v0.exact == exact


def test_volumes_and_norms_past_the_double_range_are_inf():
    disk = twist(euclid(2), 400)  # vol = pi e^800
    vol = ball_volume(disk)
    assert vol.value == math.inf
    assert vol.log_value == pytest.approx(math.log(math.pi) + 800)
    assert ball_volume(twist(box_module(), 400)).value == math.inf
    assert norm_eval(twist(euclid(2), -800), (1, 0)).to_float() == math.inf
    assert successive_minima(twist(euclid(1), -800)).lambdas == (math.inf,)


def test_truncated_cube_volume_exact():
    # cube |x_i| <= 1 truncated by |x1+x2+x3| <= 2: volume 8 - 1/3
    m = make_normed_module(3, make_polymax(
        [[1, 0, 0], [0, 1, 0], [0, 0, 1], ["1/2", "1/2", "1/2"]]))
    vol = ball_volume(m)
    assert vol.method == "exact-polytope"
    assert vol.exact == Fraction(23, 3)
    assert vol.log_value == pytest.approx(math.log(23 / 3))


def test_euler_characteristic_values():
    chi = euler_characteristic(euclid(2))
    assert type(chi) is float and chi == pytest.approx(math.log(math.pi))
    assert euler_characteristic(box_module()) == pytest.approx(math.log(16))
    # a twist by alpha scales the ball by e^alpha: chi = log(exact) + r alpha,
    # with exact the rational volume of the untwisted ball
    cut_cube = make_normed_module(3, make_polymax(
        [[1, 0, 0], [0, 1, 0], [0, 0, 1], ["1/2", "1/3", 1]]))
    for alpha in (Fraction(3, 7), Fraction(-5, 2)):
        twisted = twist(cut_cube, alpha)
        exact = ball_volume(twisted).exact
        assert exact == ball_volume(cut_cube).exact
        assert euler_characteristic(twisted) == pytest.approx(
            math.log(exact) + 3 * float(alpha), rel=1e-12)


def test_octahedron_volume_exact():
    # max over sign patterns of |x +- y +- z| is |x| + |y| + |z|
    m = make_normed_module(3, make_polymax(
        [[1, 1, 1], [1, 1, -1], [1, -1, 1], [-1, 1, 1]]))
    assert ball_volume(m).exact == Fraction(4, 3)


def l1_ball(n, m):
    """The l1 ball sum |x_k| <= m: the polymax norm whose rows are
    (1, +-1, ..., +-1)/m, 2^(n-1) rows in all."""
    rows = [[Fraction(1, m)] + [Fraction(sign, m) for sign in signs]
            for signs in itertools.product((1, -1), repeat=n - 1)]
    return make_normed_module(n, make_polymax(rows))


@pytest.mark.parametrize("n", range(2, 7))
def test_l1_ball_volume_and_count_in_closed_form(n):
    """The l1 ball of radius m has volume (2m)^n/n! and
    sum_k 2^k C(n, k) C(m, k) lattice points: a point with k nonzero
    coordinates picks them, their signs, and their absolute values, k
    positive integers of sum at most m."""
    m = 3
    ball = l1_ball(n, m)
    assert ball_volume(ball).exact == Fraction((2 * m) ** n, math.factorial(n))
    assert effective_sections(ball).count == sum(
        2 ** k * math.comb(n, k) * math.comb(m, k) for k in range(n + 1))


def cartan(n, edges, scale=1):
    """The Cartan matrix of the simply laced Dynkin diagram on n nodes with
    these edges, divided by scale, as an ellipsoid module."""
    edges = {frozenset(e) for e in edges}
    return make_normed_module(n, make_ellipsoid(
        [[Fraction(2 if i == j else -(frozenset((i, j)) in edges), scale)
          for j in range(n)] for i in range(n)]))


E8_EDGES = [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 3)]
D4_EDGES = [(0, 1), (1, 2), (1, 3)]


@pytest.mark.parametrize("n, closed, strict", [(2, 241, 1), (4, 2401, 241),
                                               (6, 9121, 2401)])
def test_e8_counts_are_its_theta_partial_sums(n, closed, strict):
    """E8 has 1, 240, 2160 and 6720 vectors of norm 0, 2, 4 and 6 (its theta
    series, Conway & Sloane, Sphere Packings, Lattices and Groups, ch. 4):
    at G = C/n the unit ball holds the norms up to n, and its interior
    those below n, a sphere of ties."""
    e8 = cartan(8, E8_EDGES, n)
    assert effective_sections(e8).count == closed
    assert strictly_effective_sections(e8).count == strict


def test_e8_minima_are_eight_equal_keys():
    """The 240 roots of E8 span it, so its minima at G = C/2 are all the
    key 2 of a root, and each lambda is 1; the ladder stops at the tie."""
    rep = successive_minima(cartan(8, E8_EDGES, 2))
    assert [(key, den) for _, key, den, _ in rep.mu_parts] == [(2, 2)] * 8
    assert rep.lambdas == (1.0,) * 8


def test_d4_counts_at_norm_2():
    """D4 has 24 roots of norm 2 and none shorter but 0."""
    d4 = cartan(4, D4_EDGES, 2)
    assert effective_sections(d4).count == 25
    assert strictly_effective_sections(d4).count == 1


def _divisors(k):
    return [d for d in range(1, k + 1) if k % d == 0]


def _squares(n, k):
    """r_n(k), the representations of k as a sum of n squares, for k >= 1:
    Jacobi's two- and four-square theorems and the eight-square formula
    (Grosswald, Representations of Integers as Sums of Squares, ch. 9)."""
    if n == 2:
        return 4 * sum((-1) ** ((d - 1) // 2) for d in _divisors(k) if d % 2)
    if n == 4:
        return 8 * sum(_divisors(k)) - (32 * sum(_divisors(k // 4)) if k % 4 == 0 else 0)
    return 16 * sum((-1) ** (k + d) * d ** 3 for d in _divisors(k))


@pytest.mark.parametrize("n, big_n, closed, strict", [
    (2, 1000, 3149, 3133), (4, 50, 12577, 11833), (4, 300, 445865, 442889),
    (8, 6, 6865, 3729)])
def test_z_n_counts_are_sums_of_squares(n, big_n, closed, strict):
    """Z^n at G = I/N holds 1 + sum_{k <= N} r_n(k) vectors in its unit ball
    and 1 + sum_{k < N} r_n(k) in its interior."""
    z = make_normed_module(n, make_ellipsoid(
        [[Fraction(int(i == j), big_n) for j in range(n)] for i in range(n)]))
    assert 1 + sum(_squares(n, k) for k in range(1, big_n + 1)) == closed
    assert closed - _squares(n, big_n) == strict
    assert effective_sections(z).count == closed
    assert strictly_effective_sections(z).count == strict


def test_lasserre_misses_few_nodes_on_the_l1_ball(monkeypatch):
    """Work gate at 1.25 times the count: the l1 ball of rank 6 and radius
    3 (32 rows) misses the memo 70 times in 269 calls."""
    volume_work = _count_volume_work(monkeypatch)
    ball_volume.__wrapped__(l1_ball(6, 3))
    assert 0 < volume_work()["misses"] <= 87


def test_a_node_and_its_reflection_share_one_memo_entry():
    """The cube [0, 2]^3 cut by y1 + y2 + y3 <= 5 loses a corner, and its
    central reflection, cut by y1 + y2 + y3 >= 1, the opposite one: one
    volume, 8 - 1/6, and one memo entry."""
    s, node = minima._node([0] * 3, [2] * 3, [((1, 1, 1), 0, 5)])
    reflected = minima._reflect(node)
    assert s == 1 and reflected == ((2, 2, 2), (((1, 1, 1), 1, 6),))
    assert minima._reflect(reflected) == node
    memo = {}
    assert minima._node_volume(node, memo) == Fraction(47, 6)
    entries = dict(memo)
    assert minima._node_volume(reflected, memo) == Fraction(47, 6)
    assert memo == entries and min(node, reflected) in memo


@pytest.mark.parametrize("k", [2, 3, 12])
def test_a_scaled_node_is_the_same_integer_node(k):
    """_node of a set scaled by an integer k is the same integer node with
    s multiplied by k, also for normals that are not primitive, a first
    entry that is negative, a unit normal that folds into the box and
    ends given high before low."""
    cases = [([0, 0, 0], [2, 2, 2], [((1, 1, 1), 0, 5)]),
             ([-1, -1], [1, 1], [((-2, 4), 3, -3), ((0, 3), -2, 1), ((3, 3), -4, 4)]),
             ([-6, -6, -6], [6, 6, 6], [((4, -2, 6), -10, 10), ((1, 2, 3), 7, -5)])]
    for lower, upper, slabs in cases:
        s, node = minima._node(lower, upper, slabs)
        scaled = minima._node([k * x for x in lower], [k * x for x in upper],
                              [(c, k * lo, k * hi) for c, lo, hi in slabs])
        assert scaled == (k * s, node)
        assert all(isinstance(x, int) for x in node[0])
        assert all(isinstance(e, int) for _, lo, hi in node[1] for e in (lo, hi))


@settings(deadline=None, max_examples=150, derandomize=True)
@given(drawn_modules().filter(lambda m: m.norm.kind == "polymax"), st.data())
def test_polymax_volume_ignores_row_order_signs_and_repeats(module, data):
    """A polymax ball does not change when its rows are permuted, one is
    negated or one is repeated, and neither does its exact volume."""
    rows, alpha = [list(row) for row in module.norm.rows], module.norm.alpha
    k = data.draw(st.integers(0, len(rows) - 1))
    negated = rows[:k] + [[-x for x in rows[k]]] + rows[k + 1:]
    vol = ball_volume(module).exact
    for variant in (data.draw(st.permutations(rows)), negated, rows + [rows[k]]):
        assert ball_volume(twist(make_normed_module(
            module.rank, make_polymax(variant)), alpha)).exact == vol


def random_rows(seed):
    """A random spanning system of rank 2..5 with 0..3 rows beyond its rank."""
    rng = random.Random(seed)
    r = rng.randint(2, 5)
    while True:
        rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                 for _ in range(r)] for _ in range(r + rng.randint(0, 3))]
        if span_rank(rows) == r:
            return rng, rows


def exact_volume(rows):
    return ball_volume(make_normed_module(len(rows[0]), make_polymax(rows))).exact


@pytest.mark.parametrize("seed", range(8))
def test_polytope_volume_invariances(seed):
    rng, rows = random_rows(seed)
    r = len(rows[0])
    vol = exact_volume(rows)
    assert vol > 0
    shuffled = rows[:]
    rng.shuffle(shuffled)
    assert exact_volume(shuffled) == vol
    assert exact_volume([[-x for x in row] for row in rows]) == vol
    # every row again, negated: the same slabs, which must merge
    assert exact_volume(rows + [[-x for x in row] for row in rows[::-1]]) == vol
    # |(a_1 + a_2)/2 . x| <= 1 follows from the first two rows
    implied = [(x + y) / 2 for x, y in zip(rows[0], rows[1])]
    assert exact_volume(rows + [implied]) == vol
    # A -> A U for a unimodular U maps the ball onto itself up to det U = 1
    u = [[int(i == j) for j in range(r)] for i in range(r)]
    for _ in range(2 * r):
        i, j = rng.sample(range(r), 2)
        k = rng.choice((-2, -1, 1, 2))
        for row in u:
            row[j] += k * row[i]
    au = [[sum(a * u[i][j] for i, a in enumerate(row)) for j in range(r)]
          for row in rows]
    assert exact_volume(au) == vol
    c = Fraction(rng.randint(1, 5), rng.randint(1, 5))
    assert exact_volume([[c * x for x in row] for row in rows]) == vol / c ** r


def monte_carlo_volume(module, samples, seed):
    """Seeded rejection-sampling estimate (value, stderr) of vol B(module):
    an independent oracle for the exact volume, testing points of a box
    around the real ball with the compiled norm's key.  With y = A0 x for
    r independent rows A0, |y_i| <= e^alpha on the ball, so |x_k| is at
    most e^alpha times the row sums of |A0^-1| = den |(den A0)^-1|."""
    compiled = compile_norm(module.norm)
    rows = [compiled.int_rows[i] for i in compiled.basis]
    bounds = [math.exp(float(compiled.alpha)) * float(compiled.den * sum(map(abs, row)))
              for row in _oracle_invert(rows)]
    limit = compiled.den * math.exp(float(compiled.scale))
    rng = random.Random(seed)
    hits = sum(compiled.key([rng.uniform(-b, b) for b in bounds]) <= limit
               for _ in range(samples))
    box = math.prod(2 * b for b in bounds)
    p = hits / samples
    return box * p, box * math.sqrt(p * (1 - p) / samples)


def test_polytope_volume_matches_monte_carlo_oracle():
    modules = []
    seed = 0
    while len(modules) < 10:
        m = random_module(seed, rank_min=3, rank_max=5)
        seed += 1
        if len(compile_norm(m.norm).int_rows) > m.rank:  # a gram has rank rows
            modules.append(m)
    for i, m in enumerate(modules):
        vol = ball_volume(m)
        assert vol.method == "exact-polytope"
        estimate, stderr = monte_carlo_volume(m, 20_000, i)
        assert abs(vol.value - estimate) <= 4.0 * stderr, m.to_json()


def _oracle_polytope_volume(rows):
    """vol {x : |a_j . x| <= 1 for every row a_j}, with no facet recursion:
    the vertices solve r of the facet hyperplanes a_j . x = +-1 and satisfy
    every row; the ball is the union of the pyramids from its centre 0 over
    its facets, and each face of dimension k the union of the pyramids from
    its least vertex over its faces of dimension k - 1 (Cohen & Hickey,
    JACM 26, 1979), down to simplices of volume |det| / r!."""
    r = len(rows[0])

    def dot(a, x):
        return sum(p * q for p, q in zip(a, x))

    vertices = set()
    for subset in itertools.combinations(rows, r):
        if _oracle_det(subset):
            inv = _oracle_invert(subset)
            for signs in itertools.product((1, -1), repeat=r):
                x = tuple(dot(row, signs) for row in inv)
                if all(abs(dot(a, x)) <= 1 for a in rows):
                    vertices.add(x)
    # each facet hyperplane as its set of vertices: repeated and parallel
    # rows give the same set, and a degenerate vertex lies in more than r
    planes = {frozenset(v for v in vertices if s * dot(a, v) == 1)
              for a in rows for s in (1, -1)}

    def spans(face, k):
        """The face's vertices span an affine space of dimension >= k."""
        points = sorted(face)
        basis = []
        for p in points[1:]:
            if len(basis) == k:
                break
            d = [x - y for x, y in zip(p, points[0])]
            if _oracle_independent(basis + [d]):
                basis.append(d)
        return bool(points) and len(basis) >= k

    def simplices(face, k):
        """A triangulation of a k-face, pulled from its least vertex."""
        if k == 0:
            return [list(face)]
        apex = min(face)
        return [[apex] + simplex for facet in {face & p for p in planes}
                if apex not in facet and spans(facet, k - 1)
                for simplex in simplices(facet, k - 1)]

    total = sum(abs(_oracle_det(simplex)) for facet in planes if spans(facet, r - 1)
                for simplex in simplices(facet, r - 1))
    return Fraction(total, math.factorial(r))


def _oracle_bodies():
    """Polymax rows of rank 1..4: bodies with degenerate vertices (the
    octahedron, and cubes cut through vertices or edges), then seeded
    random rows with no dominant diagonal, half of them with a repeated row
    and a parallel one."""
    bodies = [[[1, 1, 1], [1, 1, -1], [1, -1, 1], [-1, 1, 1]],
              [[1, 0, 0], [0, 1, 0], [0, 0, 1], ["1/3", "1/3", "1/3"]],
              [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [0, 1, -1]],
              [[int(i == j) for j in range(4)] for i in range(4)]
              + [["1/2", "1/2", 0, 0], [0, 0, "1/2", "-1/2"], [1, 1, 1, 1]]]
    bodies = [[[Fraction(x) for x in row] for row in rows] for rows in bodies]
    rng = random.Random(11)
    while len(bodies) < 24:
        r = rng.randint(1, 4)
        rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(r)]
                for _ in range(r + rng.randint(0, 2))]
        if span_rank(rows) < r:
            continue
        if rng.randint(0, 1):
            c = Fraction(rng.choice((-3, -1, 2)), rng.randint(1, 3))
            rows += [rows[0], [c * x for x in rows[-1]]]
        bodies.append(rows)
    return bodies


def test_polytope_volume_matches_the_vertex_oracle():
    """The rational volume of every polymax report, twists included, is the
    oracle's volume of the untwisted ball: on the bodies above and on the
    polymax modules of a rank <= 4 corpus."""
    for rows in _oracle_bodies():
        m = make_normed_module(len(rows[0]), make_polymax(rows))
        assert ball_volume(m).exact == _oracle_polytope_volume(rows), rows
    checked = {False: 0, True: 0}
    for seed in range(40):
        m = random_module(seed, rank_max=4)
        if m.norm.kind == "ellipsoid":
            continue
        assert ball_volume(m).exact == _oracle_polytope_volume(m.norm.rows)
        checked[m.norm.alpha != 0] += 1
    assert min(checked.values()) >= 3
