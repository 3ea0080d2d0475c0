"""Norm specs: construction, validation, exact evaluation, JSON round-trips."""

import json
import math
import random
from fractions import Fraction

import pytest

from latmin import intervals, linalg
from latmin.errors import DimensionMismatch, InvalidNorm, UnboundedBall
from latmin.inequalities import random_module
from latmin.norms import (compile_norm, format_rational, make_ellipsoid,
                          make_normed_module, make_polymax, make_scaled,
                          module_from_json, norm_eval, parse_rational,
                          spec_from_json, twist)
from test_linalg import _oracle_det


def euclid(rank):
    return make_normed_module(rank, make_ellipsoid(
        [[1 if i == j else 0 for j in range(rank)] for i in range(rank)]))


def test_parse_and_format_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational(-2) == Fraction(-2)
    assert parse_rational("-6/4") == Fraction(-3, 2)
    assert format_rational(Fraction(3, 4)) == "3/4"
    assert format_rational(Fraction(-3, 2)) == "-3/2"
    assert format_rational(Fraction(5)) == "5/1"


def test_ellipsoid_requires_symmetric_positive_definite():
    with pytest.raises(InvalidNorm):
        make_normed_module(2, make_ellipsoid([[1, 1], [0, 1]]))
    with pytest.raises(InvalidNorm):
        make_normed_module(2, make_ellipsoid([[1, 2], [2, 1]]))  # det < 0
    with pytest.raises(InvalidNorm):
        make_normed_module(2, make_ellipsoid([[0, 0], [0, 1]]))


def test_polymax_must_span():
    with pytest.raises(UnboundedBall):
        make_normed_module(2, make_polymax([[1, 0]]))
    with pytest.raises(UnboundedBall):
        make_normed_module(2, make_polymax([[1, 1], [2, 2]]))



def test_polymax_det_is_the_basis_determinant():
    """The compile reads det A'_0 off the adjugate of its basis rows A'_0."""
    checked = 0
    for seed in range(200):
        compiled = compile_norm(random_module(seed, 1, 5).norm)
        if not compiled.squared:
            basis = [compiled.int_rows[i] for i in compiled.basis]
            assert compiled.int_det == _oracle_det(basis)
            assert compiled.det == Fraction(compiled.int_det,
                                            compiled.den ** compiled.rank)
            checked += 1
    assert checked > 50
    assert compile_norm(make_polymax([[]])).int_det == 1  # rank 0
def test_rank_mismatch_rejected():
    with pytest.raises(DimensionMismatch):
        make_normed_module(3, make_ellipsoid([[1, 0], [0, 1]]))
    with pytest.raises(DimensionMismatch, match="nonnegative"):
        make_normed_module(-1, make_ellipsoid([[1]]))


def test_twist_flattens_and_accumulates():
    m = euclid(2)
    t1 = twist(m, Fraction(1, 2))
    t2 = twist(t1, Fraction(1, 3))
    assert (t2.norm.kind, t2.norm.rows) == (m.norm.kind, m.norm.rows)
    assert t2.norm.alpha == Fraction(5, 6)
    back = twist(t2, Fraction(-5, 6))
    assert back.norm == m.norm  # alpha = 0 gives back the base spec


def test_norm_eval_exact_values():
    m = euclid(2)
    v = norm_eval(m, (3, 4))
    assert (v.key, v.norm.den) == (25, 1)
    assert v.le(5) and not v.lt(5)
    assert v.to_float() == pytest.approx(5.0)
    # the zero vector has norm 0, which is not <= a negative threshold
    zero = norm_eval(m, (0, 0))
    assert zero.le(0) and not zero.lt(0)
    assert not zero.le(-1) and zero.lt(1)
    assert compile_norm(m.norm).log(0) == -math.inf
    # a nonzero vector has a positive norm
    assert not (v.le(0) or v.lt(0) or v.le(-1))
    with pytest.raises(DimensionMismatch, match="vector length 3 != rank 2"):
        norm_eval(m, (1, 2, 3))
    # a rational vector is decided exactly too, on the sphere and off it
    unit = norm_eval(m, ("3/5", "4/5"))
    assert unit.le(1) and not unit.lt(1) and not unit.le("99/100")

    box = make_normed_module(2, make_polymax([["1/4", "0/1"], ["0/1", "1/1"]]))
    w = norm_eval(box, (4, 0))
    assert (w.key, w.norm.den) == (4, 4)  # ||(4, 0)|| = 4/4
    assert w.le(1) and not w.lt(1)
    half = norm_eval(box, ("1/2", 0))  # ||(1/2, 0)|| = 1/8
    assert half.le("1/8") and not half.lt("1/8") and half.lt("1/7")


def test_norm_eval_twisted_comparison():
    # ||v|| = e^{-1} * 2; e^{-1}*2 < 1 since 2 < e
    m = twist(euclid(1), 1)
    v = norm_eval(m, (2,))
    assert v.lt(1)
    # e^{-1} * 3 > 1 since 3 > e
    assert not norm_eval(m, (3,)).le(1)
    # e^{-1} / 2 = 0.18393...: between 9/50 and 1/5
    v = norm_eval(m, ("1/2",))
    assert v.lt("1/5") and not v.le("9/50")


def test_json_round_trip_and_digest_stability():
    m = twist(make_normed_module(2, make_polymax(
        [["1/4", "0/1"], ["0/1", "1/1"], ["1/3", "1/3"]])), Fraction(2, 7))
    blob = json.dumps(m.to_json())
    m2 = module_from_json(json.loads(blob))
    assert m2 == m
    assert m2.digest() == m.digest()
    assert len(m.digest()) == 16


def test_round_trip_canonicalizes_rationals():
    raw = {"rank": 1, "norm": {"type": "polymax", "functionals": [["2/4"]]}}
    m = module_from_json(raw)
    assert m.norm.rows[0][0] == Fraction(1, 2)
    assert m.to_json()["norm"]["functionals"] == [["1/2"]]
    with pytest.raises(InvalidNorm, match="unknown norm type 'ball'"):
        spec_from_json({"type": "ball"})
    with pytest.raises(InvalidNorm, match="unknown norm type 'ball'"):
        module_from_json({"rank": 1, "norm": {"type": "ball"}})


def test_scaled_spec_json_keeps_alpha():
    m = twist(euclid(1), Fraction(3, 2))
    data = m.to_json()
    assert data["norm"]["type"] == "scaled"
    assert data["norm"]["alpha"] == "3/2"


def test_equal_specs_are_equal_however_built():
    """A corpus module, its twists by +-1/3 and twists of those equal their
    JSON round trips, with the same hash and digest; twists add, a twist
    back to alpha = 0 is the base spec, and a twice-nested scaled JSON loads
    to the flattened spec."""
    third = Fraction(1, 3)
    for seed in range(200):
        m = random_module(seed)
        built = [m, twist(m, third), twist(m, -third), twist(twist(m, third), third),
                 twist(twist(m, -third), -third), twist(twist(m, third), -third)]
        for module in built:
            again = module_from_json(json.loads(json.dumps(module.to_json())))
            assert again == module and hash(again) == hash(module)
            assert again.digest() == module.digest()
        assert built[-1] == m and hash(built[-1].norm) == hash(m.norm)
        nested = make_scaled(make_scaled(m.norm, third), -2 * third)
        assert nested == make_scaled(m.norm, -third)
        assert hash(nested) == hash(make_scaled(m.norm, -third))
    disk = {"type": "ellipsoid", "gram": [["1/1", "0/1"], ["0/1", "1/1"]]}
    twice = {"rank": 2, "norm": {"type": "scaled", "alpha": "1/2", "inner": {
        "type": "scaled", "alpha": "1/3", "inner": disk}}}
    flat = module_from_json(twice)
    assert flat.norm == make_scaled(make_ellipsoid([[1, 0], [0, 1]]), Fraction(5, 6))
    assert flat.to_json()["norm"] == {"type": "scaled", "alpha": "5/6", "inner": disk}


def _schur_chain_oracle(gram):
    """The LDL^T chain by its definition: Schur complements in Fractions.

    With G' = den * G integer, S_i the form on x_0..x_i of min over real
    x_{>i} of x^T G' x and D_i = det G'[>i, >i] (D_{r-1} = 1), level i holds
    (D_{i-1}, D_i, (D_i * S_i)[i][:i]), all integers.
    """
    den = math.lcm(*(x.denominator for row in gram for x in row))
    s = [[Fraction(x * den) for x in row] for row in gram]
    d, chain = 1, []
    for i in reversed(range(len(s))):
        pivot = s[i][i]
        a = int(d * pivot)
        chain.append((a, d, [int(d * x) for x in s[i][:i]]))
        s = [[s[j][k] - s[j][i] * s[i][k] / pivot for k in range(i)]
             for j in range(i)]
        d = a
    return chain[::-1]


def test_ellipsoid_chain_matches_schur_complements():
    norms = [random_module(seed, rank_max=8).norm for seed in range(400)]
    grams = [["5/2", "-1/3", "1/4", "-1"], ["-1/3", "2", "-1/5", "-1/2"],
             ["1/4", "-1/5", "3/2", "-2/3"], ["-1", "-1/2", "-2/3", "7/3"]]
    norms.append(make_ellipsoid(grams))
    norms.append(twist(make_normed_module(4, make_ellipsoid(grams)), "-3/7").norm)
    checked = 0
    for norm in norms:
        if norm.kind == "ellipsoid":
            assert compile_norm(norm).chain == _schur_chain_oracle(norm.rows)
            checked += 1
    assert checked == 183  # 181 corpus ellipsoids and the two above


def _leading_minors_oracle(gram):
    """Leading principal minors by the Leibniz expansion."""
    return [_oracle_det([row[:k] for row in gram[:k]]) for k in range(1, len(gram) + 1)]


def _symmetric_corpus():
    """Seeded symmetric rational matrices of rank 1-6: positive definite,
    semidefinite, indefinite, and positive definite but for the last minor
    (zero or negative), with the first entry's sign flipped too."""
    rng = random.Random(20240607)
    entry = lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 5))  # noqa: E731
    out = []
    for n in range(1, 7):
        for _ in range(6):
            for k in (n, n - 1, max(n - 2, 0)):  # B^T B has rank <= k
                b = [[entry() for _ in range(n)] for _ in range(k)]
                gram = [[sum((b[t][i] * b[t][j] for t in range(k)), Fraction(0))
                         for j in range(n)] for i in range(n)]
                out.append(gram)
            sym = [[entry() for _ in range(n)] for _ in range(n)]
            out.append([[sym[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)])
            pd = out[-4]
            minors = _leading_minors_oracle(pd)
            if n > 1 and minors[-1] > 0 and minors[-2] > 0:
                # det is affine in the last diagonal entry, with slope minors[-2]
                for drop in (0, Fraction(1, 3)):
                    last = [row[:] for row in pd]
                    last[-1][-1] -= minors[-1] / minors[-2] + drop
                    out.append(last)
            flipped = [row[:] for row in pd]
            flipped[0][0] = -flipped[0][0]
            out.append(flipped)
    return out


def test_compile_rejects_exactly_the_non_positive_definite_grams():
    corpus = _symmetric_corpus()
    kinds = {"valid": 0, "last-minor-only": 0, "invalid": 0}
    for gram in corpus:
        minors = _leading_minors_oracle(gram)
        spec = make_ellipsoid(gram)
        if all(m > 0 for m in minors):
            module = make_normed_module(len(gram), spec)
            assert compile_norm(module.norm).det == minors[-1]
            kinds["valid"] += 1
            continue
        with pytest.raises(InvalidNorm, match="not positive definite"):
            make_normed_module(len(gram), spec)
        kinds["invalid"] += 1
        kinds["last-minor-only"] += all(m > 0 for m in minors[:-1])
    assert min(kinds.values()) >= 20, kinds


def test_compile_rejects_malformed_norm_data():
    with pytest.raises(InvalidNorm, match="not square"):
        make_normed_module(2, make_ellipsoid([[1, 0], [0]]))
    with pytest.raises(InvalidNorm, match="inconsistent lengths"):
        make_normed_module(2, make_polymax([[1, 0], [1]]))
    with pytest.raises(UnboundedBall, match="no functionals"):
        make_normed_module(0, make_polymax([]))
    with pytest.raises(TypeError):  # a JSON boolean is not a rational
        make_ellipsoid([[True]])


def test_twist_reuses_its_base_compile(monkeypatch):
    polymax = make_normed_module(3, make_polymax(
        [["1/2", 0, 0], [0, 1, "1/3"], [1, 1, 1], [0, 0, "3/2"]]))
    gram = [["5/2", "-1/3", "1/4"], ["-1/3", 2, "-1/5"], ["1/4", "-1/5", "3/2"]]
    ellipsoid = make_normed_module(3, make_ellipsoid(gram))
    adds = []
    original = linalg.IncrementalSpan.add
    monkeypatch.setattr(linalg.IncrementalSpan, "add",
                        lambda span, v: adds.append(v) or original(span, v))
    exps = []
    monkeypatch.setattr(intervals, "exp_interval", lambda *args: exps.append(args))
    for module in (polymax, ellipsoid):
        base = compile_norm(module.norm)
        for a in (Fraction(5, 11), Fraction(-7, 13)):
            twisted = compile_norm(twist(module, a).norm)
            assert twisted is not base and twisted.alpha == a
            assert twisted.det is base.det and twisted.int_rows is base.int_rows
            if module is polymax:
                assert twisted.adjugate is base.adjugate
                assert twisted.adjugate_sums is base.adjugate_sums
                assert twisted.scale == a
            else:
                assert twisted.chain is base.chain
                assert twisted.scale == 2 * a
            # the box of a cap is the base's: the twist moves only the cap
            for cap in (0, 1, 7, 10 ** 6, 10 ** 90):
                assert twisted.box(cap) == base.box(cap)
            assert twisted.den == base.den  # and so are the integer keys
        assert base.alpha == base.scale == 0  # the base is untouched
    assert adds == []  # a twisted compile runs no elimination
    assert exps == []  # nor does it enclose e^alpha: only its caps do
