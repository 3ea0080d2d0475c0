"""Certified rational enclosures for e^x and the exact decisions read off them.

Scale factors in norms are exact rationals x, and every decision against
e^x is one of two: the sign of a - e^x (``compare_exp``) or the integer
floor(b e^x) (``floor_exp``), the key cap of a twisted norm.  We enclose e^x
in a rational interval computed with mpmath and double its precision until
the decision is made.  For rational x != 0, e^x is irrational (Lindemann),
so a != e^x for every rational a and b e^x is no integer for b > 0: every
refinement ends, and no precision floor is needed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


def _mpf_to_fraction(x) -> Fraction:
    sign, man, exp, _ = x._mpf_
    if man == 0:
        return Fraction(0)
    value = Fraction(man) * (Fraction(2) ** exp)
    return -value if sign else value


# the 128-bit enclosure of a twist is read by its budget box and then by its cap
@lru_cache(maxsize=1024)
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
    """Sign of a - e^x for rational a and x.

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
        prec *= 2


def floor_exp(b: Fraction, x: Fraction) -> int:
    """floor(b e^x) for rational b >= 0 and x: the precision doubles until
    floor(b lo) + 1 > b hi, so the whole enclosure has one floor."""
    if b == 0 or x == 0:
        return math.floor(b)
    prec = 128
    while True:
        lo, hi = exp_interval(x, prec)
        k = math.floor(b * lo)
        if b * hi < k + 1:
            return k
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
