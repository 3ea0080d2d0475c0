"""Inequality checks and the randomized corpus runner."""

import json
import math
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latmin import inequalities
from latmin.cli import encode, main
from latmin.enumeration import effective_sections, h0_hat, h0_hat_sef
from latmin.errors import ConfigError, EnumerationBudgetExceeded
from latmin.inequalities import (LOG3, _xlogx, check_filtration, check_gs_count,
                                 check_minkowski_count, check_norm_scaling,
                                 check_second_minima, check_sef_gap,
                                 random_module, run_suite, witness_modules)
from latmin.linalg import span_rank
from latmin.minima import euler_characteristic, successive_minima
from latmin.norms import make_ellipsoid, make_normed_module, make_polymax, twist
from latmin.reports import _report
from conftest import with_budget
from test_enumeration import drawn_modules, large_denominator_twists


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


def test_filtration_of_a_huge_twist_exits_on_the_budget(monkeypatch):
    """The unit ball of e^-5000 Z^2 has about 2^14428 points, that of
    e^-(10^7) Z^2 about 2^(2.9 10^7): each cap is limited to the largest
    minimum key or to the first key past the budget, and bit lengths alone
    put the ball past that limit, so no enclosure of e^alpha is built."""
    from latmin import intervals
    monkeypatch.setattr(intervals, "exp_interval", None)  # any call fails
    for alpha, alphas in ((5000, [0, 1, 2]), (10 ** 7, [0, 1])):
        with pytest.raises(EnumerationBudgetExceeded):
            check_filtration(twist(euclid(2), alpha), alphas)


def test_inequalities_hold_on_a_twist_with_a_large_denominator():
    polymax = large_denominator_twists()[1]
    reports = (check_sef_gap(polymax) + check_norm_scaling(polymax, 1)
               + check_filtration(polymax, [0, 1]))
    assert reports and all(rep.holds for rep in reports), reports


def _listed_filtration(module, alphas):
    """The filtration reports as (name, lhs, rhs), with the rank at a read
    as the span rank of the listed unit ball of the twist by -a."""
    ranks = [span_rank(effective_sections(twist(module, -a)).vectors) for a in alphas]
    steps = [float(b - a) for a, b in zip(alphas, alphas[1:])]
    upper = sum(ranks[i] * steps[i] for i in range(len(steps)))
    lower = sum(ranks[i + 1] * steps[i] for i in range(len(steps)))
    r0, last = ranks[0], twist(module, -alphas[-1])
    up_err = 4.0 * _xlogx(r0) + 2.0 * r0 * LOG3
    low_err = 2.0 * _xlogx(r0) + r0 * LOG3
    h0, sef = h0_hat(module), h0_hat_sef(module)
    return [("filtration-upper", h0, h0_hat(last) + upper + up_err),
            ("filtration-lower", lower - low_err, h0),
            ("filtration-upper-sef", sef, h0_hat_sef(last) + upper + up_err),
            ("filtration-lower-sef", lower - low_err, sef)]


RANK_ZERO = [make_normed_module(0, spec) for spec in (make_ellipsoid([]), make_polymax([[]]))]
# corpus modules up to rank 4, drawn shapes up to rank 3 (a drawn rank-4
# polymax can take seconds to list), and rank 0, twisted or not
MODULES = st.builds(twist, st.one_of(
    st.integers(0, 2 ** 32).map(lambda seed: random_module(seed, rank_min=1, rank_max=4)),
    drawn_modules().filter(lambda m: m.rank <= 3), st.sampled_from(RANK_ZERO)),
    st.sampled_from((Fraction(1, 2), 0, Fraction(-1, 2), 1)))
FILTRATIONS = st.lists(st.sampled_from((Fraction(1, 3), Fraction(3, 4), 2, 0, Fraction(1, 8))),
                       min_size=1, max_size=4).map(lambda steps: list(accumulate([0] + steps)))


@settings(deadline=None, max_examples=200, derandomize=True)
@given(MODULES, FILTRATIONS)
# minima exactly on the unit sphere at a = 0: lambda = 1 for Z and the
# disk, lambda_2 = 1 for the box
@example(witness_modules()[0], [0])
@example(witness_modules()[0], [0, 1])
@example(witness_modules()[1], [0, 1, 2])
@example(euclid(2), [0])
@example(euclid(2), [0, 0, Fraction(1, 8)])
def test_filtration_ranks_match_the_listed_balls(module, alphas):
    """The ranks read off the minima keys give the reports that the span
    ranks of the listed twisted unit balls give."""
    assert [(rep.name, rep.lhs, rep.rhs) for rep in check_filtration(module, alphas)] \
        == _listed_filtration(module, alphas)


def test_minima_window_tight_witnesses():
    for wit in witness_modules():
        lower, upper = check_second_minima(wit)
        assert lower.holds and upper.holds
        # chi - sum mu = r log 2 exactly for these box norms
        assert abs(upper.slack) < 1e-9


BOX = make_normed_module(2, make_polymax([["1", "0"], ["0", "2"]]))
# twists at which the parent's gap, chi - sum mu_i of two floats that each
# carry r alpha, read "violated" (nan past the double range)
WINDOW_TWISTS = {"box-1e8": (BOX, 10 ** 8 + Fraction(1, 3)),
                 "box-1e10": (BOX, 10 ** 10 + Fraction(1, 3)),
                 "box-1e15": (BOX, 10 ** 15 + Fraction(1, 3)),
                 "z1-1e12": (witness_modules()[0], 10 ** 12 + Fraction(1, 3)),
                 **{f"{name}-{label}": (module, alpha)
                    for name, module in (("disk", euclid(2)), ("box", BOX))
                    for label, alpha in (("1e400", 10 ** 400), ("minus-1e400", -10 ** 400))}}


@pytest.mark.parametrize("module, alpha", WINDOW_TWISTS.values(), ids=WINDOW_TWISTS.keys())
def test_minima_window_does_not_move_under_a_twist(module, alpha):
    """A twist adds r alpha to chi and to sum mu_i, so the window's reports
    on a twist are the module's own, float for float, and hold."""
    def window(m):
        return [(rep.name, rep.lhs, rep.rhs, rep.slack, rep.verdict)
                for rep in check_second_minima(m)]

    assert window(twist(module, alpha)) == window(module)
    assert [verdict for *_, verdict in window(module)] == ["holds"] * 2


def test_minima_window_of_an_untwisted_module_is_chi_less_the_mus():
    """On an untwisted module the gap is the float chi - sum mu_i."""
    modules = [twist(m, -m.norm.alpha) for m in
               [random_module(seed, 1, 4) for seed in range(40)] + witness_modules()]
    for m in modules:
        gap = euler_characteristic(m) - sum(successive_minima(m).mus)
        lower, upper = check_second_minima(m)
        assert lower.rhs == upper.lhs == gap, m


def test_scaling_and_filtration_saturate_past_the_double_range():
    """A scaling alpha or a filtration step past the double range is inf in
    the upper bounds, not an OverflowError, and a step at whose end the rank
    is 0 adds 0 to the lower sum, not 0 * inf = nan; at 10^9 + 1/3 both
    checks hold too."""
    disk = euclid(2)
    for alpha in (10 ** 400, 10 ** 9 + Fraction(1, 3)):
        reports = (check_norm_scaling(disk, alpha) + check_filtration(disk, [0, alpha])
                   + check_filtration(disk, [0, 1, alpha, 2 * alpha]))
        assert all(rep.holds for rep in reports), reports
    scaling = check_norm_scaling(disk, 10 ** 400)
    assert [rep.rhs for rep in scaling[1::2]] == [math.inf] * 2
    upper, lower, upper_sef, lower_sef = check_filtration(disk, [0, 10 ** 400])
    assert upper.rhs == upper_sef.rhs == math.inf
    # the rank at 10^400 is 0: the lower sums are 0, less 2 xlogx(2) + 2 log 3
    assert lower.lhs == lower_sef.lhs == -(2.0 * _xlogx(2) + 2 * LOG3)


TWIST_DRAWS = 200


@pytest.mark.parametrize("a", [-(10 ** 8 + Fraction(1, 3)), 10 ** 400, -10 ** 400],
                         ids=["minus-1e8", "1e400", "minus-1e400"])
def test_counting_checks_hold_on_large_twists(a):
    """Each of the first drawn counting instances, twisted by a, holds every
    report of _counting_checks or walks past the budget, with its own
    scaling alpha and filtration and with alpha and a last step of 10^400."""
    held = 0
    for t in range(TWIST_DRAWS):
        mod, alpha, alphas = inequalities._counting_draw(5, t, 1, 3)
        mod = twist(mod, a)
        for instance in ((mod, alpha, alphas),
                         (mod, 10 ** 400, alphas + [alphas[-1] + 10 ** 400])):
            try:
                reports = inequalities._counting_checks(*instance)
            except EnumerationBudgetExceeded:
                continue
            assert all(rep.holds for rep in reports), (t, instance, reports)
            held += 1
    # a shrinking twist is never refused, and a growing one always is
    assert held == (0 if a > 0 else 2 * TWIST_DRAWS)


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
    a = random_module(123, rank_max=4)
    b = random_module(123, rank_max=4)
    assert a == b
    assert 1 <= a.rank <= 4


def test_run_suite_validates_its_arguments():
    """Each bad argument raises before any instance runs, with the message
    `latmin verify` reports; trials are checked first, then the seed, then
    the ranks."""
    ranks = "^ranks must satisfy 1 <= rank_min <= rank_max <= 8$"
    for kwargs, message in (({"trials": 0}, "^trials must be >= 1$"),
                            ({"seed": -1}, "^seed must be >= 0$"),
                            ({"rank_min": 3, "rank_max": 2}, ranks),
                            ({"rank_max": 9}, ranks), ({"rank_min": 0}, ranks),
                            ({"trials": 0, "seed": -1, "rank_max": 9},
                             "^trials must be >= 1$"),
                            ({"seed": -1, "rank_max": 9}, "^seed must be >= 0$")):
        with pytest.raises(ConfigError, match=message):
            run_suite(**kwargs)


def test_run_suite_small_corpus_clean():
    summary = run_suite(seed=11, trials=8)
    assert summary["total_violations"] == 0
    assert summary["violation_dumps"] == []
    assert summary["instances"] == 8 + 2  # trials + tight witnesses
    names = set(summary["inequalities"])
    assert {"scaling-closed-lower", "sef-gap-upper", "filtration-upper",
            "minima-window-upper", "minima-count", "minkowski-count"} <= names
    for stat in summary["inequalities"].values():
        assert stat["checked"] == stat["holds"]


def test_run_suite_counts_an_instance_past_the_budget_as_skipped():
    """Under a budget of 1000 one of the eight instances has a walk past it:
    it is skipped, and each of the others gives all of its reports.  The
    caches are cleared first: they hold results of walks under an earlier
    budget, which this one would refuse."""
    from latmin import enumeration, minima
    for cached in (enumeration._unit_count, minima.successive_minima,
                   minima.ball_volume):
        cached.cache_clear()
    summary = with_budget(1000, lambda: run_suite(seed=0, trials=6, rank_max=5))
    assert (summary["instances"], summary["skipped"]) == (8, 1)
    assert len(summary["inequalities"]) == 15
    assert {s["checked"] for s in summary["inequalities"].values()} == {7}


def test_run_suite_is_reproducible():
    assert run_suite(seed=5, trials=4) == run_suite(seed=5, trials=4)


def test_run_suite_runs_any_entry_of_suites(monkeypatch, capsys):
    """A second suite shares the loop: its one witness runs first, trial 1
    is skipped on the budget, trial 2 violates "stub-a", and the tallies,
    the dump of the violating module and the summary's name follow; through
    `latmin verify --suite stub` the report is the same and the exit is 1."""
    def draw(seed, t, rank_min, rank_max):
        return euclid(t + 1), t

    def checks(module, t):
        if t == 1:
            raise EnumerationBudgetExceeded(10, 1)
        digest = module.digest()
        return [_report("stub-a", float(t == 2), 0.5, digest),
                _report("stub-b", 0.0, 1.0, digest)]

    monkeypatch.setitem(inequalities.SUITES, "stub",
                        (lambda: [(witness_modules()[1], -1)], draw, checks))
    summary = run_suite("stub", seed=0, trials=4)
    assert (summary["suite"], summary["instances"], summary["skipped"],
            summary["total_violations"]) == ("stub", 5, 1, 1)
    assert summary["inequalities"] == {
        "stub-a": {"checked": 4, "holds": 3, "violations": 1, "min_slack": -0.5},
        "stub-b": {"checked": 4, "holds": 4, "violations": 0, "min_slack": 1.0}}
    [dump] = summary["violation_dumps"]
    assert dump["instance"] == euclid(3).to_json()
    assert dump["report"]["name"] == "stub-a"
    assert main(["verify", "--suite", "stub", "--trials", "4", "--seed", "0"]) == 1
    assert json.loads(capsys.readouterr().out)["report"] == json.loads(encode(summary))


def test_each_instance_is_drawn_when_it_runs(monkeypatch):
    """The corpus is never held whole: the two witnesses run first, then
    each trial is drawn only after the one before it has run."""
    events = []
    draw, check = inequalities.random_module, inequalities.check_minkowski_count

    def drawn(*args, **kwargs):
        events.append("draw")
        return draw(*args, **kwargs)

    def checked(module):
        events.append("check")
        return check(module)

    monkeypatch.setattr(inequalities, "random_module", drawn)
    monkeypatch.setattr(inequalities, "check_minkowski_count", checked)
    run_suite(seed=0, trials=4, rank_max=2)
    assert events == ["check"] * 2 + ["draw", "check"] * 4
