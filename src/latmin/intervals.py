"""Certified rational enclosures for e^x and adaptive comparisons.

Scale factors in norms are exact rationals alpha, but deciding membership
``norm <= 1`` for a twisted norm requires comparing a rational against
e^alpha.  We enclose e^alpha in a rational interval computed with mpmath at
growing precision and refine until the comparison is decided.  With rational
norm data and alpha != 0 exact ties are impossible (e^alpha is irrational),
so refinement terminates; a hard floor of 2^-200 relative width guards
against misuse and raises Undecidable.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import Undecidable

# relative interval width floor before giving up
_FLOOR = Fraction(1, 1 << 200)


def _mpf_to_fraction(x) -> Fraction:
    sign, man, exp, _ = x._mpf_
    if man == 0:
        return Fraction(0)
    value = Fraction(man) * (Fraction(2) ** exp)
    return -value if sign else value


def exp_interval(x: Fraction, prec: int = 80) -> tuple[Fraction, Fraction]:
    """Return rational (lo, hi) with lo <= e^x <= hi at ~prec bits.

    Rounding x to w bits moves e^x by a relative error of about |x| * 2^-w,
    so the working precision grows with the bit length of |x|.
    """
    import mpmath  # loaded on first use: only twisted norms need e^x

    work = prec + (abs(x.numerator) // x.denominator).bit_length() + 16
    with mpmath.workprec(work):
        v = _mpf_to_fraction(mpmath.exp(mpmath.mpf(x.numerator) / x.denominator))
    slack = Fraction(1, 1 << (prec - 8))
    return v * (1 - slack), v * (1 + slack)


def compare_exp(a: Fraction, x: Fraction) -> int:
    """Sign of a - e^x for rational a and nonzero rational x.

    Returns -1 if a < e^x and +1 if a > e^x.  Equality cannot occur for
    x != 0; x == 0 is compared exactly.
    """
    if x == 0:
        return (a > 1) - (a < 1)
    if a <= 0:
        return -1
    prec = 64
    while True:
        lo, hi = exp_interval(x, prec)
        if a < lo:
            return -1
        if a > hi:
            return 1
        if hi - lo < _FLOOR * hi:
            raise Undecidable(f"comparing {a} against e^{x}")
        prec *= 2


def exp_upper(x: Fraction, prec: int = 80) -> Fraction:
    """A rational upper bound for e^x."""
    if x == 0:
        return Fraction(1)
    return exp_interval(x, prec)[1]


def exp_float(x: float) -> float:
    """e^x as a double; inf past the double range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf

