"""Certified rational enclosures for e^x and the exact decisions read off them.

Scale factors in norms are exact rationals x, and every decision against
e^x is one limited floor, min(floor(b e^x), limit) (``floor_exp``): the key
cap of a twisted norm, a key tested against a threshold (the limit is the
key), and the sign of a - e^x (``compare_exp``).  Unless bit lengths decide
it (so a huge |x| builds nothing), we enclose e^x in a rational interval
computed in integers and double its precision until the floor is known or
reaches the limit.  For rational x != 0, e^x is irrational (Lindemann), so
b e^x is no integer for b > 0: every refinement ends, and no precision floor
is needed.

The enclosure reduces the argument, e^|x| = (e^y)^(2^k) with y = |x| / 2^k <
1 and k the bit length of floor(|x|): e^y is a fixed-point Taylor sum with a
proved bound on its floors and its tail, squared k times on (mantissa,
exponent) pairs, rounded down for the lower end and up for the upper one
(Brent & Zimmermann, Modern Computer Arithmetic, 2010, sec. 4.3).  For x < 0
the ends are 1/hi and 1/lo.  No floating point and no library is involved.
"""

from __future__ import annotations

import math
from fractions import Fraction

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


def _to_fraction(m: int, e: int) -> Fraction:
    return Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)


def exp_interval(x: Fraction, prec: int = 80) -> tuple[Fraction, Fraction]:
    """Return rational (lo, hi) with lo <= e^x <= hi and hi - lo at most
    lo 2^-(prec - 8).

    Each of the k squarings doubles the relative error of the enclosure of
    e^y and adds one rounding, so the working precision w grows with k.
    """
    k = math.floor(abs(x)).bit_length()
    y = Fraction(abs(x), 1 << k)
    w = prec + 2 * k + prec.bit_length() + 16
    ends = []
    for m, up in zip(_exp_fixed(y.numerator, y.denominator, w), (False, True)):
        e = -w
        for _ in range(k):
            m, e = _round(m * m, 2 * e, w, up)
        ends.append(_to_fraction(m, e))
    lo, hi = ends
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
    x != 0; x == 0 is compared exactly.  For a = p/q, p < q e^x exactly when
    floor(q e^x) >= p, which the floor limited to p decides.
    """
    if x == 0:
        return (a > 1) - (a < 1)
    if a <= 0:
        return -1
    if sign := _by_bits(a, x):
        return sign
    p, q = a.numerator, a.denominator
    return -1 if floor_exp(Fraction(q), x, p) >= p else 1


def floor_exp(b: Fraction, x: Fraction, limit: int | None = None) -> int:
    """min(floor(b e^x), limit) for rational b >= 0 and x (no limit if None).

    Bit lengths settle b e^x < 1 and b e^x > limit first; else the precision
    doubles until floor(b lo) reaches the limit or floor(b lo) + 1 > b hi, so
    the whole enclosure has one floor."""
    if b == 0 or x == 0:
        k = math.floor(b)
    elif _by_bits(b, -x) < 0:  # b e^x < 1
        k = 0
    elif limit is not None and (limit <= 0 or _by_bits(Fraction(limit) / b, x) < 0):
        k = limit  # b e^x > limit
    else:
        prec = 128
        while True:
            lo, hi = exp_interval(x, prec)
            k = math.floor(b * lo)
            if b * hi < k + 1 or (limit is not None and k >= limit):
                break
            prec *= 2
    return k if limit is None else min(k, limit)


def exp_upper(x: Fraction, prec: int = 80) -> Fraction:
    """A rational upper bound for e^x.  No library code calls it; perfbench
    traces it."""
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
