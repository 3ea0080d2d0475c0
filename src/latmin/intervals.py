"""Certified rational enclosures for e^x and the exact decisions read off them.

Scale factors in norms are exact rationals x, and every decision against
e^x is one of two: the sign of a - e^x (``compare_exp``) or the integer
floor(b e^x) (``floor_exp``), the key cap of a twisted norm.  Unless bit
lengths decide it (so a huge |x| builds nothing), we enclose e^x in a
rational interval computed in integers and double its precision until the
decision is made.  For rational x != 0, e^x is irrational (Lindemann), so
a != e^x for every rational a and b e^x is no integer for b > 0: every
refinement ends, and no precision floor is needed.

The enclosure splits |x| = n + f with n = floor(|x|) and 0 <= f < 1: e^f is
a fixed-point Taylor sum with a proved bound on its floors and its tail, and
e^n is a binary power of the enclosure of e on (mantissa, exponent) pairs,
rounded down for the lower end and up for the upper one (Brent &
Zimmermann, Modern Computer Arithmetic, 2010, sec. 4.4).  For x < 0 the
ends are 1/hi and 1/lo.  No floating point and no library is involved.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

LOG2E_LO, LOG2E_HI = Fraction(14426, 10000), Fraction(14427, 10000)  # 1.44269...


def _exp_fixed(p: int, q: int, w: int) -> tuple[int, int]:
    """Integers lo <= 2^w e^(p/q) <= hi for 0 <= p <= q.

    The terms t_0 = 2^w, t_k = floor(t_(k-1) p / (q k)) are floors of the
    exact terms u_k = 2^w (p/q)^k / k!, and u_k - t_k < 1 + (u_(k-1) -
    t_(k-1)) / k stays below 2.  At the first zero term t_K (K >= 1) the
    exact tail is at most u_K (1 + 1/2 + 1/4 + ...) < 4, so 2^w e^(p/q)
    lies in [S, S + 2K + 4] for S = t_0 + ... + t_(K-1).
    """
    total, term, k = 0, 1 << w, 0
    while term:
        total += term
        k += 1
        term = term * p // (q * k)
    return total, total + 2 * k + 4


def _round(m: int, e: int, w: int, up: bool) -> tuple[int, int]:
    """m 2^e cut to a w-bit mantissa, rounded down or up."""
    shift = m.bit_length() - w
    if shift <= 0:
        return m, e
    return (-(-m >> shift) if up else m >> shift), e + shift


def _times_power(m: int, b: int, n: int, w: int, up: bool) -> tuple[int, int]:
    """(m 2^-w) (b 2^-w)^n as a mantissa and an exponent, by binary
    powering with every product cut to w bits, rounded down or up."""
    e = be = -w
    while n:
        if n & 1:
            m, e = _round(m * b, e + be, w, up)
        n >>= 1
        if n:
            b, be = _round(b * b, 2 * be, w, up)
    return m, e


def _to_fraction(m: int, e: int) -> Fraction:
    return Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)


# the closed and strict caps of a twist, and its later list, share enclosures
@lru_cache(maxsize=1024)
def exp_interval(x: Fraction, prec: int = 80) -> tuple[Fraction, Fraction]:
    """Return rational (lo, hi) with lo <= e^x <= hi and hi - lo at most
    lo 2^-(prec - 8).

    e^|x| = e^f e^n; e^n takes up to 2 log2(n) roundings and multiplies the
    relative error of e by n, so the working precision w grows with the bit
    length of n.
    """
    n, f = divmod(abs(x), 1)
    w = prec + 2 * n.bit_length() + prec.bit_length() + 16
    e_ends = _exp_fixed(1, 1, w) if n else (1, 1)  # no power of e when n = 0
    lo, hi = (_to_fraction(*_times_power(m, b, n, w, up)) for m, b, up in
              zip(_exp_fixed(f.numerator, f.denominator, w), e_ends, (False, True)))
    return (1 / hi, 1 / lo) if x < 0 else (lo, hi)


def _by_bits(a: Fraction, x: Fraction) -> int:
    """Sign of a - e^x for a > 0 if bit lengths decide it, else 0: 2^(k-1) <
    a < 2^(k+1) for k = bitlen(num) - bitlen(den), and 2^lo < e^x < 2^hi."""
    k = a.numerator.bit_length() - a.denominator.bit_length()
    lo, hi = sorted((x * LOG2E_LO, x * LOG2E_HI))
    return (k - 1 >= math.ceil(hi)) - (k + 1 <= math.floor(lo))


def compare_exp(a: Fraction, x: Fraction) -> int:
    """Sign of a - e^x for rational a and x.

    Returns -1 if a < e^x and +1 if a > e^x.  Equality cannot occur for
    x != 0; x == 0 is compared exactly.
    """
    if x == 0:
        return (a > 1) - (a < 1)
    if a <= 0:
        return -1
    if sign := _by_bits(a, x):
        return sign
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
    if _by_bits(b, -x) < 0:  # b e^x < 1
        return 0
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


def saturated_float(x: Fraction) -> float:
    """x as a double; +-inf past the double range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def log_unit_ball_volume(r: int) -> float:
    """log of the volume of the Euclidean unit ball in R^r."""
    return (r / 2) * math.log(math.pi) - math.lgamma(r / 2 + 1)
