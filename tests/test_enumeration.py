"""Section enumeration against an independent naive box-scan oracle.

The oracle shares nothing with the production enumerator: it computes its own
bounding box by exact Gauss-Jordan elimination, evaluates the norm of every
candidate as a Fraction, and settles twisted comparisons with high-precision
mpmath directly.
"""

import itertools
import math
from fractions import Fraction

import mpmath
import pytest

from latmin.enumeration import (effective_sections, enclosing_box, h0_hat,
                                h0_hat_sef, strictly_effective_sections)
from latmin.errors import EnumerationBudgetExceeded
from latmin.norms import (Ellipsoid, base_spec, make_ellipsoid,
                          make_normed_module, make_polymax, norm_eval, twist)


# --- independent oracle ----------------------------------------------------

def _oracle_invert(matrix):
    n = len(matrix)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(matrix)]
    for col in range(n):
        piv = next(i for i in range(col, n) if aug[i][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]


def _oracle_box(module):
    """Integer box guaranteed to contain the unit ball (slightly generous)."""
    spec, alpha = base_spec(module.norm)
    grow = math.exp(float(alpha)) * (1 + 1e-9) + 1e-9
    r = module.rank
    if isinstance(spec, Ellipsoid):
        inv = _oracle_invert(spec.gram)
        reach = [math.sqrt(float(inv[k][k])) for k in range(r)]
    else:
        rows = [list(row) for row in spec.functionals]
        # first r independent rows, then row sums of the inverse
        chosen, probe = [], []
        for row in rows:
            if len(chosen) == r:
                break
            trial = probe + [row]
            aug = [list(v) for v in trial]
            rank = 0
            for col in range(r):
                piv = next((i for i in range(rank, len(aug)) if aug[i][col]), None)
                if piv is None:
                    continue
                aug[rank], aug[piv] = aug[piv], aug[rank]
                for i in range(rank + 1, len(aug)):
                    f = Fraction(aug[i][col], 1) / aug[rank][col]
                    aug[i] = [a - f * b for a, b in zip(aug[i], aug[rank])]
                rank += 1
            if rank > len(chosen):
                chosen.append(row)
                probe.append(row)
        inv = _oracle_invert(chosen)
        reach = [float(sum(abs(inv[k][j]) for j in range(r))) for k in range(r)]
    return [int(math.floor(b * grow)) + 1 for b in reach]


def _oracle_inside(module, v, strict):
    spec, alpha = base_spec(module.norm)
    if isinstance(spec, Ellipsoid):
        q = sum(Fraction(v[i]) * sum(g * x for g, x in zip(row, v))
                for i, row in enumerate(spec.gram))
        power = 2 * alpha
    else:
        q = max(abs(sum(a * x for a, x in zip(row, v)))
                for row in spec.functionals)
        power = alpha
    if alpha == 0:
        return q < 1 if strict else q <= 1
    # rational q vs e^power, ties impossible for alpha != 0
    with mpmath.workdps(60):
        thresh = mpmath.exp(mpmath.mpf(power.numerator) / power.denominator)
        lhs = mpmath.mpf(q.numerator) / q.denominator
        return lhs < thresh


def oracle_box_vectors(module):
    return itertools.product(*[range(-b, b + 1) for b in _oracle_box(module)])


def oracle_sections(module, strict=False):
    return sorted(v for v in oracle_box_vectors(module)
                  if _oracle_inside(module, v, strict))


def assert_norm_eval_matches(module, closed, strict):
    """norm_eval(.).le(1) / .lt(1) decide oracle membership on the whole box."""
    closed, strict = set(closed), set(strict)
    for v in oracle_box_vectors(module):
        value = norm_eval(module, v)
        assert value.le(1) == (v in closed), v
        assert value.lt(1) == (v in strict), v


# --- tests -----------------------------------------------------------------

def euclid(rank):
    return make_normed_module(rank, make_ellipsoid(
        [[1 if i == j else 0 for j in range(rank)] for i in range(rank)]))


def test_euclidean_disk_counts():
    assert effective_sections(euclid(1)).count == 3
    assert effective_sections(euclid(2)).count == 5
    assert effective_sections(euclid(3)).count == 7
    assert strictly_effective_sections(euclid(2)).count == 1


def test_rank_zero_module():
    m = make_normed_module(0, make_ellipsoid([]))
    assert effective_sections(m).count == 1
    assert h0_hat(m) == 0.0


def test_box_norm_counts():
    box = make_normed_module(2, make_polymax([["1/4", "0/1"], ["0/1", "1/1"]]))
    sections = effective_sections(box)
    assert sections.count == 27  # x in [-4,4], y in [-1,1]
    assert strictly_effective_sections(box).count == 7 * 1


def test_twisted_counts_change_with_alpha():
    m = euclid(1)
    # norm scaled by e^{-1}: ball radius e > 2 covers integers up to 2
    grown = twist(m, 1)
    assert effective_sections(grown).count == 5
    shrunk = twist(m, -1)
    assert effective_sections(shrunk).count == 1


def test_h0_relations():
    box = make_normed_module(2, make_polymax([["1/4", "0/1"], ["0/1", "1/1"]]))
    assert h0_hat(box) == pytest.approx(math.log(27))
    assert h0_hat_sef(box) == pytest.approx(math.log(7))


def test_enclosing_box_is_sound():
    m = twist(make_normed_module(2, make_polymax(
        [["1/3", "1/7"], ["0/1", "1/2"], ["1/5", "1/5"]])), Fraction(-1, 3))
    box = enclosing_box(m.norm)
    for v in effective_sections(m).vectors:
        assert all(abs(x) <= b for x, b in zip(v, box))


def test_budget_exceeded():
    tiny = make_normed_module(2, make_polymax([["1/100", "0/1"], ["0/1", "1/100"]]))
    with pytest.raises(EnumerationBudgetExceeded):
        effective_sections(tiny, budget=100)


@pytest.mark.parametrize("seed", range(12))
def test_matches_oracle_on_random_modules(seed):
    from latmin.inequalities import SuiteConfig, random_module

    cfg = SuiteConfig(seed=seed, trials=1, rank_max=3)
    m = random_module(seed * 1000 + 17, cfg)
    closed, strict = oracle_sections(m), oracle_sections(m, strict=True)
    assert sorted(effective_sections(m).vectors) == closed
    assert sorted(strictly_effective_sections(m).vectors) == strict
    assert_norm_eval_matches(m, closed, strict)


def test_oracle_agrees_on_twisted_ellipsoid():
    m = twist(make_normed_module(2, make_ellipsoid(
        [["1/2", "1/5"], ["1/5", "2/3"]])), Fraction(-2, 5))
    closed = oracle_sections(m)
    assert sorted(effective_sections(m).vectors) == closed
    assert_norm_eval_matches(m, closed, oracle_sections(m, strict=True))
