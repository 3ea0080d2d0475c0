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
from latmin.rng import derive
from latmin.norms import (CompiledNorm, compile_norm, make_ellipsoid,
                          make_normed_module, make_polymax, make_scaled,
                          norm_eval, twist)
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


def _first_rung(compiled):
    """The last of the ladder's rungs from key 1, 4, 16, ... (1, 2, 4, ...
    for polymax) whose box is all zeros, or key 1: climbed one by one."""
    cap, base = 1, 4 if compiled.squared else 2
    while not any(compiled.box(base * cap)):
        cap *= base
    return cap


@pytest.mark.parametrize("index", range(26))
def test_minima_match_the_oracle(monkeypatch, index):
    """Same witnesses and values as the oracle, from lists whose caps start
    at the last rung from key 1 whose box holds only 0 (or key 1) and never
    pass the ceiling, the largest key of a unit vector; each rung lists only
    the keys above the previous cap (0 at the first)."""
    module = _minima_modules()[index]
    caps = _record_caps(monkeypatch)
    rep = successive_minima.__wrapped__(module)
    compiled, r = compile_norm(module.norm), module.rank
    units = [compiled.key([int(i == k) for i in range(r)]) for k in range(r)]
    assert caps[0][0] == _first_rung(compiled)
    assert max(cap for cap, _ in caps) <= max(units)
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


@pytest.mark.parametrize("norm, base", [
    (make_ellipsoid([["1e10000"]]), 4),
    (make_polymax([["1e3000", "0"], ["1", "1e3000"]]), 2),
    (make_polymax([[1, 0], [0, 1], [1, 1]]), 2),
    (make_scaled(make_ellipsoid([["1e3000"]]), "-7/2"), 4)])
def test_minima_ladder_skips_its_empty_rungs(monkeypatch, norm, base):
    """A ball with huge entries holds only 0 up to a huge key: the ladder
    starts at its last rung 4^k (2^k for polymax) whose box is all zeros,
    read off the box's limit at one candidate, so it takes at most 40 boxes
    and 3 walks, not one walk per rung (16,610 rungs for 10^10000).  A box
    that is not all zeros at key 1, the hexagon's, starts the ladder at key
    1.  A twist, run after its base, reads its base's limit: it makes one
    box per walk and no other.  Every rung from the start on is the one the
    ladder climbed to from key 1."""
    if norm.alpha:
        successive_minima.__wrapped__(make_normed_module(
            norm.dim, make_scaled(norm, -norm.alpha)))
    module = make_normed_module(norm.dim, norm)
    caps, boxes, box = _record_caps(monkeypatch), [], CompiledNorm.box
    monkeypatch.setattr(CompiledNorm, "box",
                        lambda self, cap: boxes.append(cap) or box(self, cap))
    rep = successive_minima.__wrapped__(module)
    assert len(boxes) <= 40 and len(caps) <= 3, (len(boxes), caps)
    assert not norm.alpha or len(boxes) == len(caps), (len(boxes), caps)
    compiled, (start, above) = compile_norm(norm), caps[0]
    assert above == 0 and start & (start - 1) == 0
    assert (start.bit_length() - 1) % (base // 2) == 0  # a power of base
    if any(box(compiled, 1)):
        assert start == 1
    else:
        assert not any(box(compiled, start))
    assert any(box(compiled, base * start))
    assert [last for _, last in caps[1:]] == [cap for cap, _ in caps[:-1]]
    assert len(rep.witnesses) == norm.dim


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
    lists 69,112 vectors in its minima rungs, and the pinned rank-8 corpus
    (seed 3, 40 trials, ranks <= 8) lists 21,440, makes 6,138 Lasserre calls
    and misses the memo 1,450 times.  The radius doubles until a rung finds
    a vector, then grows by about e^(1/r) per rung, and each rung lists only
    the keys above the last cap.  At ranks 6-8, doubling all the way listed 4,105,947
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


@pytest.mark.parametrize("n", range(2, 8))
def test_l1_ball_volume_and_count_in_closed_form(n):
    """The l1 ball of radius m has volume (2m)^n/n! and
    sum_k 2^k C(n, k) C(m, k) lattice points: a point with k nonzero
    coordinates picks them, their signs, and their absolute values, k
    positive integers of sum at most m.  The rank-7 volume takes about
    1.6 s, so only its count is checked."""
    m = 3
    ball = l1_ball(n, m)
    if n < 7:
        assert ball_volume(ball).exact == Fraction((2 * m) ** n, math.factorial(n))
    assert effective_sections(ball).count == sum(
        2 ** k * math.comb(n, k) * math.comb(m, k) for k in range(n + 1))


def cube(n, m):
    """The cube max |x_k| <= m: the polymax norm whose rows are e_k/m."""
    return make_normed_module(n, make_polymax(
        [[Fraction(int(i == j), m) for j in range(n)] for i in range(n)]))


def _interpolate(points):
    """The coefficients, constant first, of the polynomial of least degree
    through the points (x, y), exactly: Newton's divided differences,
    expanded by Horner's rule."""
    xs = [x for x, _ in points]
    c = [Fraction(y) for _, y in points]
    for j in range(1, len(xs)):
        for i in range(len(xs) - 1, j - 1, -1):
            c[i] = (c[i] - c[i - 1]) / (xs[i] - xs[i - j])
    poly = []
    for ci, x in zip(reversed(c), reversed(xs)):  # poly * (t - x) + ci
        poly = [a - x * b for a, b in zip([0] + poly, poly + [0])]
        poly[0] += ci
    while poly and poly[-1] == 0:
        poly.pop()
    return poly


def _ehrhart(n, dilate):
    """L(T) = #(T P), P = {|A'x|_inf <= 1} for integer rows A' and integer
    vertices, and dilate(n, T) the module whose rows are A'/T: L is a
    polynomial (Ehrhart), and L(-T) = (-1)^n #(interior of T P) (Ehrhart-
    Macdonald reciprocity; Beck & Robins, Computing the Continuous
    Discretely, ch. 3-4).  Returns the polynomial through the nodes T = 0
    (the origin alone), +-1, ..., +-k, k = ceil((n + 1)/2), from the closed
    and strict counts at T = 1, ..., k, and k."""
    k = (n + 2) // 2
    nodes = [(0, 1)]
    for t in range(1, k + 1):
        nodes += [(t, effective_sections(dilate(n, t)).count),
                  (-t, (-1) ** n * strictly_effective_sections(dilate(n, t)).count)]
    return _interpolate(nodes), k


def _at(poly, t):
    return sum(a * t ** i for i, a in enumerate(poly))


EHRHART_BODIES = {**{f"l1-rank-{n}": (n, l1_ball) for n in range(2, 7)},
                  **{f"cube-rank-{n}": (n, cube) for n in range(2, 5)}}


@pytest.mark.parametrize("n, dilate", EHRHART_BODIES.values(), ids=EHRHART_BODIES.keys())
def test_ehrhart_polynomial_ties_the_walk_to_the_volume(n, dilate):
    """The interpolant of the closed and strict counts has degree n, its
    leading coefficient is the exact volume of P (2^n/n! for the l1 ball,
    2^n for the cube), and it gives the walk's count at T = k + 1, a node
    it was not given: the walk, the strict cap and Lasserre agree."""
    poly, k = _ehrhart(n, dilate)
    assert len(poly) == n + 1
    assert poly[-1] == ball_volume(dilate(n, 1)).exact
    assert _at(poly, k + 1) == effective_sections(dilate(n, k + 1)).count


@pytest.mark.parametrize("alpha, cap, count", [("1", 2, 25), ("5/2", 12, 2625),
                                               ("-1/3", 0, 1)])
def test_a_twist_counts_the_ehrhart_polynomial_at_its_cap(alpha, cap, count):
    """The rank-3 l1 ball twisted by alpha is e^alpha P, whose points are
    those of floor(e^alpha) P: its count is L at that cap."""
    poly, _ = _ehrhart(3, l1_ball)
    assert math.floor(math.exp(Fraction(alpha))) == cap
    twisted = twist(l1_ball(3, 1), alpha)
    assert effective_sections(twisted).count == _at(poly, cap) == count


def _period(int_rows, n):
    """The lcm of the denominators of the vertices of P = {|A'x|_inf <= 1},
    by brute force: each vertex meets n of the halfspaces +-A'_j x <= 1 with
    independent normals, so it is A'_S^{-1} s for n rows S of A' with an
    inverse and a sign vector s, solved exactly and kept if it lies in P."""
    p = 1
    for rows in itertools.combinations(int_rows, n):
        if _oracle_det(rows) == 0:
            continue
        inv = _oracle_invert(rows)
        for signs in itertools.product((1, -1), repeat=n):
            v = [sum(a * s for a, s in zip(row, signs)) for row in inv]
            if all(abs(sum(a * x for a, x in zip(row, v))) <= 1 for row in int_rows):
                p = math.lcm(p, *(x.denominator for x in v))
    return p


def test_ehrhart_quasi_polynomial_of_the_small_period_corpus_bodies():
    """Each polymax body of rank n <= 3 among the first 600 corpus draws of
    seed 0 whose vertex period p is at most 2500 (97, 79 and 2 bodies of
    ranks 1, 2 and 3; a larger p or more draws put a rank-3 walk past the
    budget or the test past 2 s): L(T) = #(T P) is a polynomial on T in
    pZ (Ehrhart), so L(up) is a polynomial in u, through the closed and
    strict counts of the rows A'/(up) at u = 1, ..., k.  Its leading
    coefficient is p^n vol(P) = p^n vol(B)/den^n, Lasserre's exact volume;
    reciprocity gives the strict count, and the closed one, at u = k + 1,
    a node it was not given."""
    ranks = []
    for s in range(600):
        module = random_module(derive(0, s), 1, 3)
        if module.norm.kind != "polymax":
            continue
        compiled, n = compile_norm(module.norm), module.rank
        p = _period(compiled.int_rows, n)
        if p > 2500:
            continue

        def dilate(n, u):
            return make_normed_module(n, make_polymax(
                [[Fraction(a, u * p) for a in row] for row in compiled.int_rows]))

        poly, k = _ehrhart(n, dilate)
        ball = make_normed_module(n, make_polymax(module.norm.rows))
        assert len(poly) == n + 1, s
        assert poly[-1] * compiled.den ** n == p ** n * ball_volume(ball).exact, s
        spare = dilate(n, k + 1)
        assert _at(poly, k + 1) == effective_sections(spare).count, s
        assert _at(poly, -k - 1) == (-1) ** n * strictly_effective_sections(spare).count, s
        ranks.append(n)
    assert [ranks.count(n) for n in (1, 2, 3)] == [97, 79, 2]


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


def _a_edges(n):
    return [(i, i + 1) for i in range(n - 1)]


def _d_edges(n):
    return _a_edges(n - 1) + [(n - 3, n - 1)]


def _a_oracle(n, s):
    """The closed and strict counts of x in Z^(n+1) with sum 0 and |x|^2 <= s
    and < s: A_n, whose Cartan matrix is the gram of its roots e_i - e_(i+1)."""
    r = math.isqrt(s)
    norms = [sum(v * v for v in x) + sum(x) ** 2
             for x in itertools.product(range(-r, r + 1), repeat=n)]
    return sum(q <= s for q in norms), sum(q < s for q in norms)


def _d_oracle(n, s):
    """The same for x in Z^n with |x|^2 even: D_n, whose roots are e_i - e_(i+1)
    and e_(n-2) + e_(n-1)."""
    r = math.isqrt(s)
    norms = [q for x in itertools.product(range(-r, r + 1), repeat=n)
             if (q := sum(v * v for v in x)) % 2 == 0]
    return sum(q <= s for q in norms), sum(q < s for q in norms)


# upper unitriangular, so each leading n x n block is unimodular
_U = [[1, -2, 3, 1, 0, -1, 2],
      [0, 1, -1, 2, 3, 0, -1],
      [0, 0, 1, -3, 1, 2, 0],
      [0, 0, 0, 1, 2, -1, 3],
      [0, 0, 0, 0, 1, 3, -2],
      [0, 0, 0, 0, 0, 1, 1],
      [0, 0, 0, 0, 0, 0, 1]]


def _changed_basis(module):
    """The module of U^T G U, U the leading block of _U: the same lattice."""
    n, g = module.rank, module.norm.rows
    return make_normed_module(n, make_ellipsoid(
        [[sum(_U[k][i] * g[k][m] * _U[m][j] for k in range(n) for m in range(n))
          for j in range(n)] for i in range(n)]))


ROOT_LATTICES = {"A2": (2, _a_edges(2), _a_oracle), "A3": (3, _a_edges(3), _a_oracle),
                 "A4": (4, _a_edges(4), _a_oracle), "D5": (5, _d_edges(5), _d_oracle),
                 "D6": (6, _d_edges(6), _d_oracle)}
# E6, a chain of 5 nodes with a sixth on the middle one, and E7, a chain of 6
# with a seventh on the third, with their closed counts at G = C/2, C/4 and
# C/6: the theta partial sums of their 1, 72, 270 and 720 (E6) and 1, 126,
# 756 and 2072 (E7) vectors of norm 0, 2, 4 and 6 (Conway & Sloane, Sphere
# Packings, Lattices and Groups, ch. 4)
EXCEPTIONAL = {"E6": (6, _a_edges(5) + [(2, 5)], (73, 343, 1063)),
               "E7": (7, _a_edges(6) + [(2, 6)], (127, 883, 2955))}


@pytest.mark.parametrize("n, edges, oracle", ROOT_LATTICES.values(),
                         ids=ROOT_LATTICES.keys())
def test_root_lattice_counts_match_their_coordinates(n, edges, oracle):
    """At G = C/s the unit ball holds the vectors of norm up to s: the counts
    of the listed coordinate vectors, also in the basis U^T G U."""
    for s in (2, 6, 10):
        module = cartan(n, edges, s)
        want = oracle(n, s)
        for m in (module, _changed_basis(module)):
            assert (effective_sections(m).count,
                    strictly_effective_sections(m).count) == want, s


@pytest.mark.parametrize("n, edges, closed", EXCEPTIONAL.values(), ids=EXCEPTIONAL.keys())
def test_e6_e7_counts_are_their_theta_partial_sums(n, edges, closed):
    """At G = C/m the unit ball holds the norms up to m and its interior
    those below m, all even: each strict count is the closed count at the
    previous m, also in the basis U^T G U."""
    for m, want, below in zip((2, 4, 6), closed, (1,) + closed):
        module = cartan(n, edges, m)
        for mod in (module, _changed_basis(module)):
            assert (effective_sections(mod).count,
                    strictly_effective_sections(mod).count) == (want, below), m


SPANNED_BY_ROOTS = {**ROOT_LATTICES, **EXCEPTIONAL}


@pytest.mark.parametrize("n, edges", [row[:2] for row in SPANNED_BY_ROOTS.values()],
                         ids=SPANNED_BY_ROOTS.keys())
def test_root_lattice_minima_are_the_key_of_a_root(n, edges):
    """A_n, D_n, E6 and E7 are spanned by their roots, so at G = C/2 every
    minimum is the key 2 of a root, in the basis U^T G U too."""
    module = cartan(n, edges, 2)
    for m in (module, _changed_basis(module)):
        rep = successive_minima(m)
        assert [(key, den) for _, key, den, _ in rep.mu_parts] == [(2, 2)] * n


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


def _sheared(rows, rng):
    """The rows A U, U unimodular: the identity after 2r random shears, each
    adding k = +-1 or +-2 times one column to another."""
    r = len(rows[0])
    u = [[int(i == j) for j in range(r)] for i in range(r)]
    for _ in range(2 * r):
        i, j = rng.sample(range(r), 2)
        k = rng.choice((-2, -1, 1, 2))
        for row in u:
            row[j] += k * row[i]
    return [[sum(a * u[i][j] for i, a in enumerate(row)) for j in range(r)]
            for row in rows]


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
    assert exact_volume(_sheared(rows, rng)) == vol
    c = Fraction(rng.randint(1, 5), rng.randint(1, 5))
    assert exact_volume([[c * x for x in row] for row in rows]) == vol / c ** r


@pytest.mark.parametrize("kind, k", [("l1", n) for n in range(2, 6)]
                         + [("drawn", seed) for seed in (1, 3, 5, 7, 8)])
def test_polymax_counts_do_not_depend_on_the_basis(kind, k):
    """The closed and strict counts of the rows A and of A U, U unimodular,
    agree: the walk's tails depend on the basis, and its counts must not.
    The bodies are the l1 balls of rank k and radius 3, and random_rows(k)
    dilated by 4 so that they hold points."""
    if kind == "l1":
        rng, rows = random.Random(k), l1_ball(k, 3).norm.rows
    else:
        rng, rows = random_rows(k)
        rows = [[x / 4 for x in row] for row in rows]
    r = len(rows[0])
    counts = [(effective_sections(m).count, strictly_effective_sections(m).count)
              for m in (make_normed_module(r, make_polymax(a))
                        for a in (rows, _sheared(rows, rng)))]
    assert counts[0] == counts[1]


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
