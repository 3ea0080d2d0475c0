"""Counter-based RNG determinism."""

from fractions import Fraction

import pytest

from latmin.rng import DetRNG, derive


def test_derive_is_stable_and_key_sensitive():
    assert derive(1, 2, 3) == derive(1, 2, 3)
    assert derive(1, 2, 3) != derive(1, 2, 4)
    assert derive(1, 2, 3) != derive(1, 3, 2)
    big = 1 << 130
    assert derive(big) != derive(big + (1 << 70))  # high bits are folded in


def test_derive_values_are_pinned():
    assert derive(1, 2, 3) == 0xF67460394F9E7B63
    assert derive((1 << 64) + 5) == 0x6C6C184791DD18E9
    assert derive(7, 1 << 130) == 0x9EE304B1C6AEE88A


def test_derive_rejects_negative_keys():
    with pytest.raises(ValueError):
        derive(-1)
    with pytest.raises(ValueError):
        derive(3, -(1 << 70))


def test_detrng_sequences_replay():
    a = [DetRNG(7, 11).u01() for _ in range(5)]
    b = [DetRNG(7, 11).u01() for _ in range(5)]
    assert a == b
    assert all(0.0 <= x < 1.0 for x in a)
    rng = DetRNG(7, 11)  # pinned: every simulated ledger is drawn from these
    assert [rng.u01() for _ in range(5)] == [
        0.1624316212596778, 0.16173452468491023, 0.13696706561973415,
        0.5809673045365809, 0.9081447969026153]


def test_randint_range_and_errors():
    rng = DetRNG(3)
    vals = [rng.randint(2, 5) for _ in range(200)]
    assert vals[:5] == [5, 3, 3, 4, 4]  # pinned
    assert set(vals) == {2, 3, 4, 5}
    with pytest.raises(ValueError):
        rng.randint(5, 2)


def test_fraction_stays_on_grid():
    rng = DetRNG(9)
    for _ in range(50):
        f = rng.fraction(Fraction(0), Fraction(3), 8)
        assert 0 <= f <= 3
        assert (f * 8).denominator == 1


