"""Reduction ledgers, closed-form bounds, and the constant-absorption sweep."""

import hashlib
import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latmin import ledger as ledger_module
from latmin.cli import main
from latmin.errors import ConfigError, InfeasibleLedger, PreconditionViolated
from latmin.intervals import compare_exp
from latmin.ledger import (Ledger, LedgerStep, asymptotic_margin_per_d,
                           c_constant, chi_ok, corollary_e,
                           derived_intersections, deg_one_bound,
                           ledger_from_json, noether_chi_fal, onestep_chain,
                           simulate_reduction, stirling_check, sum_ci_bound,
                           theorem_b_bound, theorem_c_bound,
                           theorem_chain_check, theorem_d_bound,
                           trivial_bound, verify_constant_chain)

LOG2 = math.log(2.0)
LOG3 = math.log(3.0)


def sample_ledger():
    return Ledger(g=2, kappa=1,
                  steps=(LedgerStep(4, 3, 1.0, 2.0), LedgerStep(2, 2, 0.0, 0.0)),
                  L2_0=20.0, mode="positive-genus")


def test_ledger_validation_rules():
    base = sample_ledger()
    base.validate()
    with pytest.raises(ConfigError):
        Ledger(2, 1, (LedgerStep(2, 1, 0, 0), LedgerStep(4, 1, 0, 0)),
               10.0, "positive-genus").validate()  # degrees must decrease
    with pytest.raises(ConfigError):
        Ledger(2, 1, (LedgerStep(4, 5, 0, 0),), 10.0,
               "positive-genus").validate()  # r > d
    with pytest.raises(ConfigError):
        Ledger(0, 1, (LedgerStep(4, 4, 0, 0),), 10.0,
               "genus-zero").validate()  # r != d + kappa
    with pytest.raises(ConfigError):
        Ledger(2, 1, (LedgerStep(4, 4, 0, 0),), 10.0,
               "clifford-hyperelliptic").validate()  # r > d/2 + kappa
    with pytest.raises(ConfigError):
        Ledger(2, 1, (LedgerStep(4, 2, 0, 0),), 10.0, "bogus").validate()


def test_ledger_json_round_trip_and_digest():
    # int reals are made floats, so a ledger and its round trip share a digest
    made = Ledger(2, 1, (LedgerStep(4, 3, 1, 2),), 20, "positive-genus")
    assert [type(x) for x in (made.L2_0, made.steps[0].c,
                              made.steps[0].slack)] == [float] * 3
    for led in (sample_ledger(), made):
        again = ledger_from_json(json.loads(json.dumps(led.to_json())))
        assert again == led
        assert again.digest() == led.digest()
    with pytest.raises(ConfigError):
        ledger_from_json({"g": 2, "kappa": 1, "mode": "positive-genus"})


def test_digest_is_cached_sha256_of_to_json():
    led, fresh = sample_ledger(), sample_ledger()
    before = hash(led)
    blob = json.dumps(led.to_json(), sort_keys=True, separators=(",", ":"))
    assert led.digest() == hashlib.sha256(blob.encode()).hexdigest()[:16]
    assert led.digest() is led.digest()  # computed once
    # the kept digest changes neither == nor hash
    assert led == fresh and hash(led) == hash(fresh) == before
    assert led.to_json() == fresh.to_json()
    assert led.to_json()["steps"] == [
        {name: getattr(s, name) for name in s._fields} for s in led.steps]
    bumped = Ledger(**{name: getattr(led, name) for name in led._fields
                       if name != "L2_0"}, L2_0=21.0)
    assert bumped != led and bumped.digest() != led.digest()


def test_a_ledger_keeps_its_digest_when_it_is_made():
    """The digest, which every check reads, is in a ledger's dict as soon as
    it is made and equals the hashlib oracle; a ledger that fails an early,
    a middle or a late check, or whose closed form is not defined or past
    the double range, gets none of the kept values."""
    led = sample_ledger()
    blob = json.dumps(led.to_json(), sort_keys=True, separators=(",", ":"))
    assert vars(led)["_digest"] == hashlib.sha256(blob.encode()).hexdigest()[:16]
    assert vars(led)["_bound"] == theorem_b_bound(2, 4, 1, 20.0)
    for changes, error in (({"steps": ()}, ConfigError),
                           ({"L2_0": 1.0}, InfeasibleLedger),
                           ({"mode": "clifford-hyperelliptic", "g": 1},
                            PreconditionViolated),
                           *(({"mode": mode, "g": g, "steps": ONE_STEP_OF_DEGREE_1},
                               PreconditionViolated) for mode, g, _ in D0_IS_KAPPA),
                           (GENUS_ZERO_PAST_DOUBLE, ConfigError)):
        bad = object.__new__(Ledger)
        vars(bad).update({name: getattr(led, name) for name in led._fields},
                         **changes)
        with pytest.raises(error):
            bad.validate()
        assert not {"_bound", "_l2", "_l2p", "_digest"} & set(vars(bad))


ONE_STEP_OF_DEGREE_1 = (LedgerStep(1, 1, 0.0, 0.0),)
# (mode, g, message) of ledgers with d_0 = kappa = 1, so d_circ = 1, where
# Theorems B (g > 0) and C are not defined: the message each closed form raises
D0_IS_KAPPA = [("positive-genus", 2, "g > 0 needs d_circ > 1"),
               ("clifford-hyperelliptic", 2, "theorem C needs d_circ > 1"),
               ("clifford-nonhyperelliptic", 3, "theorem C needs d_circ > 1")]
# a feasible genus-zero ledger whose Theorem B bound, 1.5 L2_0 + 8 log 6, is inf
GENUS_ZERO_PAST_DOUBLE = {"g": 0, "mode": "genus-zero", "L2_0": 1.5e308,
                          "steps": (LedgerStep(1, 2, 0.0, 0.0),)}


@pytest.mark.parametrize("mode, g, message", D0_IS_KAPPA,
                         ids=[mode for mode, _, _ in D0_IS_KAPPA])
def test_a_ledger_whose_closed_form_is_undefined_raises_when_made(mode, g, message):
    """Admissibility includes the preconditions of theorem_chain_check's
    closed form: d_0 = kappa is refused by Ledger(...) and ledger_from_json
    with the closed form's own message, not later by a check."""
    with pytest.raises(PreconditionViolated, match=f"^{message}$"):
        Ledger(g, 1, ONE_STEP_OF_DEGREE_1, 1.0, mode)
    data = {"g": g, "kappa": 1, "L2_0": 1.0, "mode": mode,
            "steps": [{"d": 1, "r": 1, "c": 0.0, "slack": 0.0}]}
    with pytest.raises(PreconditionViolated, match=f"^{message}$"):
        ledger_from_json(data)


def test_a_ledger_whose_closed_form_is_past_the_double_range_raises_when_made():
    case = GENUS_ZERO_PAST_DOUBLE
    want = "^ledger is past the double range: bound = inf$"
    with pytest.raises(ConfigError, match=want):
        Ledger(case["g"], 1, case["steps"], case["L2_0"], case["mode"])
    with pytest.raises(ConfigError, match=want):
        ledger_from_json(dict(case, kappa=1, steps=[dict(vars(case["steps"][0]))]))


def test_every_simulated_ledger_has_a_defined_closed_form():
    """simulate_reduction draws kappa = 1 and d_0 >= 2, so d_circ > 1, where
    Theorems B and C are defined: no draw is refused for its closed form."""
    for mode in ("positive-genus", "genus-zero", "clifford-hyperelliptic",
                 "clifford-nonhyperelliptic"):
        for seed in range(1000):
            led = simulate_reduction(seed, mode)
            assert led.kappa == 1 and led.steps[0].d // led.kappa >= 2, (mode, seed)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True,
                                 10 ** 400, "1.0"],
                         ids=["nan", "inf", "-inf", "bool", "huge-int", "str"])
@pytest.mark.parametrize("field", ["c", "slack", "L2_0"])
def test_ledger_admits_only_finite_reals(field, bad):
    """c, slack and L2_0 are finite ints or floats: anything else is bad
    input, as it is for ledger_from_json."""
    step = {"d": 4, "r": 2, "c": 0.5, "slack": 0.5}
    top = {"L2_0": 20.0}
    (top if field == "L2_0" else step)[field] = bad
    with pytest.raises(ConfigError, match="finite real"):
        Ledger(2, 1, (LedgerStep(**step),), top["L2_0"], "positive-genus")


@pytest.mark.parametrize("mode, kappa, d, r", [
    ("positive-genus", 1, 10 ** 400, 3),
    ("clifford-hyperelliptic", 1, 10 ** 400, 3),
    ("clifford-nonhyperelliptic", 1, 4, 10 ** 400),
    ("genus-zero", 1, 4, 10 ** 400),
    ("clifford-hyperelliptic", 10 ** 400, 4, 3),
    ("genus-zero", -10 ** 400, 4, 3)],
    ids=["d", "clifford-d", "clifford-r", "genus-zero-r", "clifford-kappa",
         "negative-kappa"])
def test_ledger_admits_only_counts_a_double_holds(mode, kappa, d, r):
    """kappa, d and r past the double range are bad input, refused before
    any float arithmetic could raise OverflowError."""
    with pytest.raises(ConfigError, match="that a double holds"):
        Ledger(3, kappa, (LedgerStep(d, r, 1.0, 2.0),), 20.0, mode)


def test_ledger_admits_only_int_counts():
    with pytest.raises(ConfigError, match="must be ints"):
        Ledger(2.0, 1, (LedgerStep(4, 2, 0.5, 0.5),), 20.0, "positive-genus")
    with pytest.raises(ConfigError, match="must be ints"):
        Ledger(2, True, (LedgerStep(4, 2, 0.5, 0.5),), 20.0, "positive-genus")
    for step in (LedgerStep(4.0, 2, 0.5, 0.5), LedgerStep(4, 2.5, 0.5, 0.5),
                 LedgerStep(4, True, 0.5, 0.5)):
        with pytest.raises(ConfigError, match="must be ints"):
            Ledger(2, 1, (step,), 20.0, "positive-genus")


def test_derived_intersections_frozen_example():
    l2, l2p = derived_intersections(sample_ledger())
    assert l2 == [20.0, 10.0]      # L_1^2 = 12 - slack 2
    assert l2p == [12.0, 10.0]     # L'_i^2 = L_i^2 - 2 d_i c_i


def test_infeasible_ledger_raises():
    with pytest.raises(InfeasibleLedger):
        Ledger(2, 1, (LedgerStep(4, 3, 3.0, 0.0),), 20.0, "positive-genus")


def test_onestep_chain_frozen_example():
    first, second = onestep_chain(sample_ledger(), 1)
    assert first.lhs == pytest.approx(18.0)  # 10 + 2(4*1 + 2*0)
    assert first.rhs == 20.0
    assert first.slack == pytest.approx(2.0)
    assert first.holds
    # chained count value: sum r_i c_i + 4 r_0 log r_0 + 2 r_0 log 3
    assert second.lhs == pytest.approx(3.0 + 12 * LOG3 + 6 * LOG3)
    # ... against the closed form that theorem_chain_check uses
    assert second.rhs == theorem_chain_check(sample_ledger()).rhs
    assert second.slack > 0 and second.holds
    with pytest.raises(ConfigError):
        onestep_chain(sample_ledger(), 5)


def test_sum_ci_bound_frozen_example():
    rep = sum_ci_bound(sample_ledger())
    assert rep.lhs == pytest.approx(2.0)   # c_0 + sum c_i
    assert rep.rhs == pytest.approx(5.0)   # L^2 / d_0
    assert rep.holds


def test_trivial_bound_value_and_preconditions():
    assert trivial_bound(1, 2, 10.0) == pytest.approx(5.0 + LOG3)
    with pytest.raises(PreconditionViolated):
        trivial_bound(0, 2, 10.0)
    with pytest.raises(PreconditionViolated):
        trivial_bound(1, 2, -1.0)


def test_theorem_b_bound_values():
    # positive genus: L2/2 + 4 d log(3d) with d = 2
    assert theorem_b_bound(2, 2, 1, 10.0) == pytest.approx(5.0 + 8 * math.log(6))
    # genus zero: (1/2 + 1/d) L2 + 4 r log(3r) with r = 3
    assert theorem_b_bound(0, 2, 1, 10.0) == pytest.approx(10.0 + 12 * math.log(9))
    with pytest.raises(PreconditionViolated):
        theorem_b_bound(2, 1, 1, 10.0)
    with pytest.raises(PreconditionViolated):
        theorem_b_bound(-1, 2, 1, 10.0)


def test_theorem_c_bound_value():
    assert theorem_c_bound(4, 1, 1, 20.0) == pytest.approx(
        7.5 + 16 * math.log(12))
    with pytest.raises(PreconditionViolated):
        theorem_c_bound(4, 1, 3, 20.0)


def test_theorem_d_equals_c_at_canonical_degree():
    for g in (2, 3, 7):
        for eps in (1, 2):
            for om in (5.0, 12.0, 40.0):
                assert theorem_d_bound(g, 2, eps, om) == theorem_c_bound(
                    2 * g - 2, 2, eps, om)
    assert theorem_d_bound(2, 1, 2, 12.0) == pytest.approx(
        9.0 + 8 * math.log(6))


def test_deg_one_bound_values():
    assert deg_one_bound(1, 2, 3.0) == pytest.approx(3.0 + 2 * LOG3)
    assert deg_one_bound(0, 2, 3.0) == pytest.approx(3.0 + 10 * LOG3)


def test_chi_ok_values():
    assert chi_ok(2, 1, 0, 1.0) == pytest.approx(math.log(math.pi))
    assert chi_ok(2, 0, 1, 1.0) == pytest.approx(math.log(math.pi ** 2 / 2))
    assert chi_ok(1, 1, 0, 4.0) == pytest.approx(0.0)  # log 2 - (1/2) log 4
    with pytest.raises(PreconditionViolated):
        chi_ok(0, 1, 0, 1.0)


def test_noether_chi_fal_value():
    assert noether_chi_fal(12.0, 0.0, 2, 1) == pytest.approx(
        1.0 - (2.0 / 3.0) * math.log(2 * math.pi))


def test_stirling_equality_and_strictness():
    eq = stirling_check(2, 1, 0)
    assert eq.holds and abs(eq.slack) < 1e-9
    strict = stirling_check(3, 1, 0)
    assert strict.holds and strict.slack > 1e-6
    with pytest.raises(PreconditionViolated, match="at least one embedding"):
        stirling_check(2, 0, 0)


def test_c_constant_and_corollary_e():
    assert c_constant(2, 1, 1.0) == pytest.approx(36 * LOG2 + 50.0)
    rep = corollary_e(g=2, kappa=1, eps=1, absD=1.0, r1=1, r2=0,
                      omega2=12.0, delta=0.0, gamma=0.0)
    assert rep.rhs_omega == pytest.approx(60.0 + 3 * (36 * LOG2 + 50.0))
    assert rep.holds_omega and rep.holds_chi
    with pytest.raises(ConfigError):
        corollary_e(g=2, kappa=2, eps=1, absD=1.0, r1=1, r2=1,
                    omega2=1.0, delta=0.0, gamma=0.0)
    with pytest.raises(ConfigError, match="unknown theorem 'F'"):
        ledger_module.eval_theorem("F", {})


def test_corollary_e_monotone_in_inputs():
    base = dict(g=3, kappa=1, eps=1, absD=5.0, r1=1, r2=0,
                omega2=10.0, delta=2.0, gamma=1.0)
    ref = corollary_e(**base)
    for key, delta in (("omega2", 1.0), ("gamma", 1.0), ("absD", 1.0)):
        bumped = dict(base)
        bumped[key] = base[key] + delta
        rep = corollary_e(**bumped)
        assert rep.rhs_omega >= ref.rhs_omega - 1e-12
        assert rep.rhs_chi >= ref.rhs_chi - 1e-12


def test_asymptotic_margin_matches_closed_form():
    import mpmath
    with mpmath.workdps(40):
        truth = float(25 - 16 * mpmath.log(3) - 2 * mpmath.log(2 * mpmath.pi))
    assert abs(asymptotic_margin_per_d() - truth) < 1e-12


def test_verify_constant_chain_small_grid():
    reports = verify_constant_chain(50, 5)
    names = [r.name for r in reports]
    assert names == ["chain-absorb-12cprime", "chain-absorb-4cprime",
                     "chain-absorb-into-cprime", "chain-margin-ii-per-d"]
    assert all(r.holds for r in reports)
    margin = reports[-1].rhs
    assert 0.0 < margin < asymptotic_margin_per_d()


def test_constant_chain_holds_for_every_g_and_kappa():
    """The closed-form slacks of verify_constant_chain's docstring are
    positive by three exact decisions.  math.pi is within 2^-51 of pi, far
    inside both bounds 333/106 < pi < 355/113, so its exact value decides
    them; then (2 pi)^4 < (710/113)^4."""
    assert Fraction(333, 106) < Fraction(math.pi) < Fraction(355, 113)
    # (ii) 25 - 16 log 3 - 4 log 2pi > 0 and (i) 61 - 48 log 3 - 4 log 2pi > 0
    assert compare_exp(3 ** 16 * Fraction(710, 113) ** 4, Fraction(25)) == -1
    assert compare_exp(3 ** 48 * Fraction(710, 113) ** 4, Fraction(61)) == -1
    # (iii) (1/2) log 2pi - log 2 > 0
    assert 2 * Fraction(333, 106) > 4
    # the grid's minima at g = 2, kappa = 1 (r = d = 2) are the bounds
    reports = verify_constant_chain(2, 1)
    assert [rep.slack for rep in reports[:3]] == pytest.approx(
        [2 * 0.9151018782933527, 2 * 0.0706951156728621, 2 * 0.2257913526447274])


@settings(deadline=None, max_examples=300, derandomize=True)
@given(st.integers(2, 10 ** 9), st.integers(1, 10 ** 9))
@example(2, 1)
@example(2, 10 ** 9)
@example(10 ** 9, 10 ** 9)
def test_absorption_slacks_meet_their_closed_form_bounds(g, kappa):
    """Each float slack of one cell (g, kappa) is at least its bound of
    verify_constant_chain's docstring, d (61 - 48 log 3 - 4 log 2pi),
    d (25 - 16 log 3 - 4 log 2pi) and r ((1/2) log 2pi - log 2), equal at
    g = 2, less a relative 1e-9 for the rounding of terms up to 54 d log d
    (about 2500 times the slack at d = 2 * 10^18)."""
    d, r = (2 * g - 2) * kappa, g * kappa
    log2pi = math.log(2 * math.pi)
    bounds = (d * (61 - 48 * LOG3 - 4 * log2pi), d * (25 - 16 * LOG3 - 4 * log2pi),
              r * (0.5 * log2pi - LOG2))
    for slack, bound in zip(ledger_module._absorption_slacks(g, kappa), bounds):
        assert slack >= bound * (1 - 1e-9), (slack, bound)


def test_simulation_is_deterministic_and_feasible():
    for mode in ("positive-genus", "genus-zero", "clifford-hyperelliptic",
                 "clifford-nonhyperelliptic"):
        led = simulate_reduction(42, mode)
        assert led.digest() == simulate_reduction(42, mode).digest()
        derived_intersections(led)  # feasible by construction
        for j in range(len(led.steps)):
            first, second = onestep_chain(led, j)
            assert first.holds and second.holds
        assert sum_ci_bound(led).holds
        assert theorem_chain_check(led).holds


def test_theorem_chain_on_frozen_ledger():
    rep = theorem_chain_check(sample_ledger())
    assert rep.lhs == pytest.approx(3.0 + 18 * LOG3)
    assert rep.rhs == pytest.approx(theorem_b_bound(2, 4, 1, 20.0))
    assert rep.holds


def test_positive_genus_rank_never_exceeds_degree():
    for seed in range(50):
        led = simulate_reduction(seed, "positive-genus")
        assert all(s.r <= s.d for s in led.steps)
        assert (sum(s.r * s.c for s in led.steps)
                <= sum(s.d * s.c for s in led.steps) + 1e-12)


def test_inadmissible_ledgers_raise_when_made():
    steps = (LedgerStep(4, 3, 3.0, 0.0),)  # L'_0^2 = 20 - 24 < 0
    with pytest.raises(InfeasibleLedger, match=r"L'_0\^2 = -4.0 < 0"):
        Ledger(2, 1, steps, 20.0, "positive-genus")
    with pytest.raises(InfeasibleLedger, match=r"L_1\^2 = -1.0 < 0"):
        Ledger(2, 1, (LedgerStep(4, 3, 1.0, 13.0),), 20.0, "positive-genus")
    with pytest.raises(ConfigError, match="d_0 must be a multiple of kappa"):
        Ledger(2, 2, (LedgerStep(5, 3, 1.0, 2.0),), 20.0, "positive-genus")
    with pytest.raises(PreconditionViolated, match="needs g >= 1"):
        Ledger(0, 1, (LedgerStep(4, 3, 1.0, 2.0),), 20.0, "positive-genus")
    with pytest.raises(PreconditionViolated, match="needs g = 0"):
        Ledger(5, 1, (LedgerStep(4, 5, 1.0, 2.0),), 20.0, "genus-zero")
    # several faults: the one validate meets first is reported
    with pytest.raises(InfeasibleLedger):
        Ledger(0, 2, (LedgerStep(5, 3, 3.0, 0.0),), 20.0, "positive-genus")
    with pytest.raises(ConfigError, match="multiple of kappa"):
        Ledger(0, 2, (LedgerStep(5, 3, 1.0, 2.0),), 20.0, "positive-genus")
    with pytest.raises(PreconditionViolated):
        ledger_from_json(dict(sample_ledger().to_json(), g=0))


def test_derived_intersections_hands_out_copies():
    led = sample_ledger()
    l2, l2p = derived_intersections(led)
    l2.append(-1.0)
    l2p[0] = -1.0
    assert derived_intersections(led) == ([20.0, 10.0], [12.0, 10.0])
    assert onestep_chain(led, 0)[0].lhs == pytest.approx(20.0)


def test_checks_read_the_ledger_without_deriving(monkeypatch):
    """The checks read what validate kept: they derive no intersection and
    evaluate no closed form, in any mode."""
    leds = [sample_ledger()] + [simulate_reduction(3, mode) for mode in
                                ("genus-zero", "clifford-hyperelliptic",
                                 "clifford-nonhyperelliptic")]
    want = [(theorem_chain_check(led), sum_ci_bound(led),
             [onestep_chain(led, j) for j in range(len(led.steps))]) for led in leds]

    def fail(*_):
        raise AssertionError("checked or derived again")

    for name in ("derived_intersections", "theorem_b_bound", "theorem_c_bound"):
        monkeypatch.setattr(ledger_module, name, fail)
    assert [(theorem_chain_check(led), sum_ci_bound(led),
             [onestep_chain(led, j) for j in range(len(led.steps))])
            for led in leds] == want


def test_simulate_derives_each_ledger_once(monkeypatch, capsys):
    calls = {"validate": 0, "derived": 0}
    validate, derived = Ledger.validate, ledger_module.derived_intersections

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(Ledger, "validate", counted("validate", validate))
    monkeypatch.setattr(ledger_module, "derived_intersections",
                        counted("derived", derived))
    assert main(["ledger", "simulate", "--mode", "positive-genus",
                 "--trials", "40", "--seed", "7"]) == 0
    capsys.readouterr()
    assert calls == {"validate": 40, "derived": 0}


def test_theorem_d_and_sweep_state_their_constants_once(monkeypatch):
    margin = asymptotic_margin_per_d()
    before = {r.name: r for r in verify_constant_chain(20, 3)}
    monkeypatch.setattr(ledger_module, "C_D", 24)
    assert abs(asymptotic_margin_per_d() - (margin - 1.0)) < 1e-12
    after = {r.name: r for r in verify_constant_chain(20, 3)}
    assert after["chain-absorb-4cprime"].lhs > before["chain-absorb-4cprime"].lhs
    assert after["chain-absorb-12cprime"] == before["chain-absorb-12cprime"]
    monkeypatch.setattr(ledger_module, "theorem_c_bound", lambda *a: a)
    assert theorem_d_bound(3, 2, 1, 12.0) == (4, 2, 1, 12.0)
    with pytest.raises(PreconditionViolated, match="omega2 >= 0"):
        theorem_d_bound(3, 2, 1, -1.0)  # D's own checks come first
