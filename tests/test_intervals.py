"""Certified rational enclosures of e^x, computed in integers, and the exact
decisions on them against an mpmath oracle (mpmath is a test dependency
only)."""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latmin import intervals
from latmin.intervals import (LOG2E_HI, LOG2E_LO, _by_bits, _round, compare_exp,
                              exp_interval, exp_upper, floor_exp)
from latmin.norms import (compile_norm, make_ellipsoid, make_normed_module,
                          make_polymax, norm_eval, twist)
from test_enumeration import _e_convergent


def _mpf(f: Fraction):
    return mpmath.mpf(f.numerator) / f.denominator


def _fraction(x) -> Fraction:
    man, exp = x.man_exp
    return Fraction(int(man)) * Fraction(2) ** int(exp)


def _check_enclosure(x: Fraction, prec: int) -> None:
    """lo <= e^x <= hi against mpmath at 2 prec + 64 bits, and
    hi - lo <= lo 2^-(prec - 8), the slack of the former mpmath enclosure."""
    lo, hi = exp_interval(x, prec)
    with mpmath.workprec(2 * prec + 64):
        truth = _fraction(mpmath.exp(_mpf(x)))
    assert lo <= truth <= hi, (x, prec)
    assert hi - lo <= lo / 2 ** (prec - 8), (x, prec)


def test_exp_interval_encloses_truth():
    # large |x|: e^(|x| / 2^k) is squared k times, k the bit length of
    # floor(|x|), each square rounded outward; a denominator far past the
    # working precision makes the Taylor terms vanish early
    xs = [Fraction(1), Fraction(-1), Fraction(1, 3), Fraction(-3, 2),
          Fraction(7, 3), Fraction(5), Fraction(3001, 3), Fraction(-3001, 3),
          Fraction(10 ** 6, 7), Fraction(-(10 ** 6), 7), Fraction(1, 3 ** 1000),
          Fraction(-(3 ** 1000 + 1), 3 ** 1000)]
    for x in xs:
        for prec in (64, 128, 1024, 4096):
            _check_enclosure(x, prec)


@settings(deadline=None, max_examples=200, derandomize=True)
@given(x=st.fractions(-60, 60, max_denominator=1 << 40),
       prec=st.sampled_from([64, 128, 1024, 4096]))
def test_exp_interval_matches_the_oracle(x, prec):
    _check_enclosure(x, prec)


def test_round_cuts_the_mantissa_in_its_direction():
    # 11 * 2^-3 cut to 2 bits: 2 * 2^-2 below it, 3 * 2^-2 above it
    assert _round(0b1011, -3, 2, False) == (0b10, -1)
    assert _round(0b1011, -3, 2, True) == (0b11, -1)
    assert _round(0b1000, -3, 2, True) == (0b10, -1)  # exact: no step up
    assert _round(0b11, 5, 4, True) == (0b11, 5)      # short: unchanged


def test_compare_exp_sign_near_large_exponent():
    x = Fraction(3001, 3)
    with mpmath.workprec(400):
        truth = mpmath.exp(_mpf(x))
        for k in range(1, 6):
            eps = mpmath.mpf(k) * mpmath.mpf(10) ** -20
            assert compare_exp(_fraction(truth * (1 + eps)), x) == 1
            assert compare_exp(_fraction(truth * (1 - eps)), x) == -1


def test_compare_exp_signs():
    assert compare_exp(Fraction(2), Fraction(1)) == -1   # 2 < e
    assert compare_exp(Fraction(3), Fraction(1)) == 1    # 3 > e
    assert compare_exp(Fraction(1), Fraction(0)) == 0
    assert compare_exp(Fraction(-5), Fraction(2)) == -1


def test_compare_exp_tight_rational():
    # 2721/1001 < e < 2721/1000 forces several refinement rounds
    assert compare_exp(Fraction(2721, 1001), Fraction(1)) == -1
    assert compare_exp(Fraction(2719, 1000), Fraction(1)) == 1


def test_exp_upper_dominates():
    assert exp_upper(Fraction(0)) == 1
    assert exp_upper(Fraction(1)) > Fraction(271, 100)



def _oracle_floor(b: Fraction, x: Fraction) -> int:
    """floor(b e^x) for b > 0 from mpmath alone, with about 4096 bits below
    the units digit; b e^x must sit farther than 2^-3000 from an integer."""
    int_bits = b.numerator.bit_length() - b.denominator.bit_length() + 2 * abs(x) + 2
    with mpmath.workprec(4096 + max(0, int(int_bits))):
        v = mpmath.mpf(b.numerator) * mpmath.exp(_mpf(x)) / b.denominator
        k = int(mpmath.floor(v))
        assert min(v - k, k + 1 - v) > mpmath.mpf(2) ** -3000
    return k


@settings(deadline=None, max_examples=150, derandomize=True)
@given(num=st.integers(1, 1 << 1000), den=st.integers(1, 1 << 1000),
       x=st.fractions(-60, 60, max_denominator=1 << 40).filter(bool))
def test_floor_exp_and_compare_exp_match_the_oracle(num, den, x):
    b = Fraction(num, den)
    k = _oracle_floor(b, x)
    assert floor_exp(b, x) == k
    assert floor_exp(Fraction(0), x) == 0
    # the floor limited to L stops refining once it reaches L
    for limit in (k - 1, k, k + 1, 0, -1):
        assert floor_exp(b, x, limit) == min(k, limit), limit
    # k / b <= e^x < (k + 1) / b: a tie within 1 / b for compare_exp
    assert compare_exp(k / b, x) == -1
    assert compare_exp((k + 1) / b, x) == 1
    # b < e^x exactly when floor(e^x / b) >= 1
    assert compare_exp(b, x) == (-1 if _oracle_floor(1 / b, x) >= 1 else 1)


@pytest.mark.parametrize("below", [True, False], ids=["below", "above"])
@pytest.mark.parametrize("bits", [64, 250, 1000])
def test_floor_exp_and_compare_exp_near_e_convergents(bits, below):
    """|e - p/q| < 1/q^2 with q > 2^bits: q e and p / e lie within 1/q of
    the integers p and q, which no fixed precision separates."""
    c = _e_convergent(bits, below)
    p, q = c.numerator, c.denominator
    assert compare_exp(c, Fraction(1)) == (-1 if below else 1)
    assert floor_exp(Fraction(q), Fraction(1)) == _oracle_floor(Fraction(q), Fraction(1)) \
        == p - (not below)
    assert floor_exp(Fraction(p), Fraction(-1)) == _oracle_floor(Fraction(p), Fraction(-1)) \
        == q - below


@settings(deadline=None, max_examples=100, derandomize=True)
@given(family=st.sampled_from(["ellipsoid", "polymax"]),
       num=st.integers(1, 1 << 300), den=st.integers(1, 1 << 300),
       alpha=st.fractions(-30, 30, max_denominator=1 << 40).filter(bool),
       t=st.fractions(Fraction(1, 1000), 1000, max_denominator=1 << 40))
def test_twisted_cap_matches_the_oracle(family, num, den, alpha, t):
    """The cap of a twist is floor(t^2 den e^(2 alpha)) for an ellipsoid and
    floor(t den e^alpha) for a polymax, den the lcm of the denominators;
    closed and strict caps agree, as no twisted sphere meets a key."""
    c = Fraction(num, den)
    if family == "ellipsoid":
        base, bound, scale = make_ellipsoid([[c, 0], [0, 1]]), t * t, 2 * alpha
    else:
        base, bound, scale = make_polymax([[c, 0], [0, 1]]), t, alpha
    compiled = compile_norm(twist(make_normed_module(2, base), alpha).norm)
    cap = _oracle_floor(bound * c.denominator, scale)
    assert compiled.cap(t) == compiled.cap(t, strict=True) == cap


def test_log2e_window_is_certified():
    with mpmath.workdps(50):
        assert _mpf(LOG2E_LO) < 1 / mpmath.log(2) < _mpf(LOG2E_HI)


@settings(deadline=None, max_examples=400, derandomize=True)
@given(st.fractions(min_value=-400, max_value=400, max_denominator=9),
       st.integers(-4, 4), st.floats(0.5, 2), st.integers(0, 2 ** 64))
def test_bit_lengths_decide_only_soundly(x, shift, factor, den):
    """Where bit lengths decide the sign of a - e^x, it is the oracle's; a
    is drawn within a few powers of two of e^x, where the decision is
    tight, with a denominator of up to 64 bits."""
    with mpmath.workdps(300):
        a = _fraction(mpmath.exp(_mpf(x)) * mpmath.ldexp(factor, shift) * (den + 1))
        a /= den + 1
        sign = _by_bits(a, x)
        if sign and x:
            assert sign == (1 if _mpf(a) > mpmath.exp(_mpf(x)) else -1)


def test_huge_exponents_decide_without_an_enclosure(monkeypatch):
    monkeypatch.setattr(intervals, "exp_interval", None)  # any call fails
    huge = Fraction(10) ** 400
    assert compare_exp(Fraction(1), huge) == -1
    assert compare_exp(Fraction(1), -huge) == 1
    assert compare_exp(Fraction(2) ** 10 ** 6, Fraction(10 ** 5)) == 1
    assert floor_exp(Fraction(7, 3), -huge) == 0
    assert floor_exp(Fraction(2) ** 1000, Fraction(-10 ** 6)) == 0
    disk = make_normed_module(2, make_ellipsoid([[1, 0], [0, 1]]))
    # ||(1, 0)|| = e^-alpha: far below 1 at alpha = 10^400, far above at -10^400
    assert norm_eval(twist(disk, huge), (1, 0)).le(1)
    assert not norm_eval(twist(disk, -huge), (1, 0)).le(1)
