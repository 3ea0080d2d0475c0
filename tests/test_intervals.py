"""Certified rational enclosures of e^x."""

from fractions import Fraction

import mpmath

from latmin.intervals import compare_exp, exp_interval, exp_upper


def _mpf(f: Fraction):
    return mpmath.mpf(f.numerator) / f.denominator


def _fraction(x) -> Fraction:
    man, exp = x.man_exp
    return Fraction(int(man)) * Fraction(2) ** int(exp)


def test_exp_interval_encloses_truth():
    # large |x|: rounding x to the working precision must not leak past the
    # interval's slack
    xs = [Fraction(1), Fraction(-3, 2), Fraction(7, 3), Fraction(5),
          Fraction(3001, 3), Fraction(-3001, 3), Fraction(10 ** 6, 7)]
    for x in xs:
        for prec in (64, 80, 128, 256):
            lo, hi = exp_interval(x, prec)
            with mpmath.workprec(2 * prec + 64):
                truth = mpmath.exp(_mpf(x))
                assert _mpf(lo) <= truth <= _mpf(hi), (x, prec)


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

