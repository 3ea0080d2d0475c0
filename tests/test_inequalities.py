"""Inequality checks and the randomized corpus runner."""

import math
from fractions import Fraction

import pytest

from latmin.errors import ConfigError
from latmin.inequalities import (SuiteConfig, check_filtration,
                                 check_gs_count, check_minkowski_count,
                                 check_norm_scaling, check_second_minima,
                                 check_sef_gap, random_module, run_suite,
                                 witness_modules)
from latmin.norms import make_ellipsoid, make_normed_module


def euclid(rank):
    return make_normed_module(rank, make_ellipsoid(
        [[1 if i == j else 0 for j in range(rank)] for i in range(rank)]))


def test_norm_scaling_all_hold_on_euclid():
    for rep in check_norm_scaling(euclid(2), Fraction(3, 2)):
        assert rep.verdict == "holds", rep


def test_norm_scaling_rejects_negative_alpha():
    with pytest.raises(ConfigError):
        check_norm_scaling(euclid(1), Fraction(-1))


def test_sef_gap_tight_on_z():
    z1 = witness_modules()[0]
    lower, upper = check_sef_gap(z1)
    assert lower.holds and upper.holds
    # h0 = log 3, sef = log 1: the r log 3 gap is achieved exactly
    assert upper.slack == 0.0


def test_filtration_requires_zero_start():
    with pytest.raises(ConfigError):
        check_filtration(euclid(1), [Fraction(1, 2), Fraction(1)])
    with pytest.raises(ConfigError):
        check_filtration(euclid(1), [Fraction(0), Fraction(1), Fraction(1, 2)])


def test_filtration_bounds_hold():
    alphas = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)]
    for rep in check_filtration(euclid(2), alphas):
        assert rep.holds, rep


def test_minima_window_tight_witnesses():
    for wit in witness_modules():
        lower, upper = check_second_minima(wit)
        assert lower.holds and upper.holds
        # chi - sum mu = r log 2 exactly for these box norms
        assert abs(upper.slack) < 1e-9


def test_gs_count_bound():
    for rep in check_gs_count(euclid(3)):
        assert rep.holds


def test_minkowski_count_exact_mode():
    rep = check_minkowski_count(euclid(2))
    assert rep.holds
    # chi = log pi, h0 = log 5: slack = log 5 + 2 log 2 - log pi
    assert rep.slack == pytest.approx(math.log(5) + 2 * math.log(2)
                                      - math.log(math.pi))


def test_random_module_is_deterministic_and_valid():
    cfg = SuiteConfig(seed=0, trials=1, rank_max=4)
    a = random_module(123, cfg)
    b = random_module(123, cfg)
    assert a == b
    assert 1 <= a.rank <= 4


def test_suite_config_validation():
    with pytest.raises(ConfigError):
        SuiteConfig(trials=0).validate()
    with pytest.raises(ConfigError):
        SuiteConfig(rank_min=3, rank_max=2).validate()
    with pytest.raises(ConfigError):
        SuiteConfig(norm_families=("weird",)).validate()


def test_run_suite_small_corpus_clean():
    summary = run_suite(SuiteConfig(seed=11, trials=8))
    assert summary["total_violations"] == 0
    assert summary["violation_dumps"] == []
    assert summary["instances"] == 8 + 2  # trials + tight witnesses
    names = set(summary["inequalities"])
    assert {"scaling-closed-lower", "sef-gap-upper", "filtration-upper",
            "minima-window-upper", "minima-count", "minkowski-count"} <= names
    for stat in summary["inequalities"].values():
        assert stat["checked"] == stat["holds"]


def test_run_suite_is_reproducible():
    cfg = SuiteConfig(seed=5, trials=4)
    assert run_suite(cfg) == run_suite(cfg)
