"""Counter-based deterministic random numbers.

All randomness in the toolkit flows through this module.  The generator is a
splitmix64 chain keyed by an arbitrary tuple of integers, so any (seed, key,
index) combination yields the same value on every platform and under any
parallel schedule.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1


def _mix(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def derive(*keys: int) -> int:
    """Fold a tuple of nonnegative integers into a single 64-bit state."""
    state = 0x8BADF00D5EEDC0DE
    for k in keys:
        if k < 0:  # k >>= 64 would never reach 0
            raise ValueError(f"negative key {k}")
        state = _mix(state ^ (k & _MASK))
        # fold in the high bits of arbitrarily large keys
        k >>= 64
        while k:
            state = _mix(state ^ (k & _MASK))
            k >>= 64
    return state


class DetRNG:
    """Sequential deterministic RNG seeded from a key tuple.

    Identical construction keys and identical call sequences give identical
    outputs; there is no global state.
    """

    def __init__(self, *keys: int):
        self._state = derive(*keys)
        self._counter = 0

    def _next(self) -> int:
        self._counter += 1
        return _mix(self._state ^ self._counter)

    def u01(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self._next() >> 11) * (2.0 ** -53)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive."""
        if hi < lo:
            raise ValueError("empty range")
        span = hi - lo + 1
        return lo + self._next() % span

    def fraction(self, lo: Fraction, hi: Fraction, denominator: int = 16) -> Fraction:
        """Uniform rational in [lo, hi] on the grid with the given denominator."""
        from fractions import Fraction  # only here: a ledger run makes none

        lo_n = int(lo * denominator)
        hi_n = int(hi * denominator)
        return Fraction(self.randint(lo_n, hi_n), denominator)

    def choice(self, seq):
        return seq[self.randint(0, len(seq) - 1)]

