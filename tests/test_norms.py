"""Norm specs: construction, validation, exact evaluation, JSON round-trips."""

import json
import math
from fractions import Fraction

import pytest

from latmin.errors import DimensionMismatch, InvalidNorm, UnboundedBall
from latmin.inequalities import SuiteConfig, random_module
from latmin.norms import (Ellipsoid, Scaled, base_spec, compile_norm,
                          format_rational, make_ellipsoid, make_normed_module,
                          make_polymax, module_from_json, norm_eval,
                          parse_rational, twist)


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


def test_rank_mismatch_rejected():
    with pytest.raises(DimensionMismatch):
        make_normed_module(3, make_ellipsoid([[1, 0], [0, 1]]))


def test_twist_flattens_and_accumulates():
    m = euclid(2)
    t1 = twist(m, Fraction(1, 2))
    t2 = twist(t1, Fraction(1, 3))
    assert isinstance(t2.norm, Scaled)
    _, alpha = base_spec(t2.norm)
    assert alpha == Fraction(5, 6)
    back = twist(t2, Fraction(-5, 6))
    assert back.norm == m.norm  # alpha = 0 drops the wrapper


def test_norm_eval_exact_values():
    m = euclid(2)
    v = norm_eval(m, (3, 4))
    assert v.squared and v.q == 25
    assert v.le(5) and not v.lt(5)
    assert v.to_float() == pytest.approx(5.0)
    # the zero vector has norm 0, which is not <= a negative threshold
    zero = norm_eval(m, (0, 0))
    assert zero.le(0) and not zero.lt(0)
    assert not zero.le(-1) and zero.lt(1)

    box = make_normed_module(2, make_polymax([["1/4", "0/1"], ["0/1", "1/1"]]))
    w = norm_eval(box, (4, 0))
    assert not w.squared and w.q == 1
    assert w.le(1) and not w.lt(1)


def test_norm_eval_twisted_comparison():
    # ||v|| = e^{-1} * 2; e^{-1}*2 < 1 since 2 < e
    m = twist(euclid(1), 1)
    v = norm_eval(m, (2,))
    assert v.lt(1)
    # e^{-1} * 3 > 1 since 3 > e
    assert not norm_eval(m, (3,)).le(1)


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
    assert m.norm.functionals[0][0] == Fraction(1, 2)
    assert m.to_json()["norm"]["functionals"] == [["1/2"]]


def test_scaled_spec_json_keeps_alpha():
    m = twist(euclid(1), Fraction(3, 2))
    data = m.to_json()
    assert data["norm"]["type"] == "scaled"
    assert data["norm"]["alpha"] == "3/2"


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
    config = SuiteConfig(rank_max=8)
    norms = [random_module(seed, config).norm for seed in range(400)]
    grams = [["5/2", "-1/3", "1/4", "-1"], ["-1/3", "2", "-1/5", "-1/2"],
             ["1/4", "-1/5", "3/2", "-2/3"], ["-1", "-1/2", "-2/3", "7/3"]]
    norms.append(make_ellipsoid(grams))
    norms.append(twist(make_normed_module(4, make_ellipsoid(grams)), "-3/7").norm)
    checked = 0
    for norm in norms:
        spec, _ = base_spec(norm)
        if isinstance(spec, Ellipsoid):
            assert compile_norm(norm).chain == _schur_chain_oracle(spec.gram)
            checked += 1
    assert checked == 183  # 181 corpus ellipsoids and the two above
