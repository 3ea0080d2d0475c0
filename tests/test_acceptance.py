"""Acceptance gate: one test per release criterion.

Each test registers a PASS/FAIL line (printed in the terminal summary by
conftest) and enforces the stated tolerances and runtime limits.
"""

import functools
import json
import math
import time
from fractions import Fraction

import mpmath

from conftest import ACCEPTANCE_RESULTS, run_latmin, with_budget
from latmin.inequalities import (check_filtration, check_gs_count,
                                 check_minkowski_count, check_norm_scaling,
                                 check_second_minima, check_sef_gap,
                                 random_module, witness_modules)
from latmin.ledger import (C_D, C_DLOGD, C_LOG_ABSD_PER_G,
                           asymptotic_margin_per_d, derived_intersections,
                           onestep_chain, simulate_reduction, stirling_check,
                           sum_ci_bound, theorem_chain_check,
                           verify_constant_chain)
from latmin.minima import ball_volume
from latmin.norms import make_ellipsoid, make_normed_module, make_polymax, twist
from latmin.rng import DetRNG, derive
from test_enumeration import oracle_sections

from latmin.enumeration import effective_sections


def criterion(n, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ACCEPTANCE_RESULTS[n] = (desc, False)
            fn(*args, **kwargs)
            ACCEPTANCE_RESULTS[n] = (desc, True)
        return wrapper
    return deco


@criterion(1, "oracle equivalence on 200 random modules (rank <= 3) in < 60 s")
def test_criterion_1_oracle_equivalence():
    started = time.monotonic()
    budget = 10 ** 7
    for i in range(200):
        module = random_module(derive(101, i), rank_max=3)
        got = sorted(with_budget(budget, lambda m: effective_sections(m).vectors, module))
        assert got == oracle_sections(module, strict=False), module.to_json()
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


@criterion(2, "scaling + sef-gap inequalities on 500 modules (rank <= 5), "
              "zero violations, tight witness slack 0")
def test_criterion_2_scaling_suite():
    for i in range(500):
        module = random_module(derive(202, i), rank_max=5)
        alpha = DetRNG(202, i).fraction(Fraction(0), Fraction(3), 8)
        for rep in check_norm_scaling(module, alpha):
            assert rep.verdict == "holds", (rep, module.to_json())
        for rep in check_sef_gap(module):
            assert rep.verdict == "holds", (rep, module.to_json())
    z1 = witness_modules()[0]
    upper = check_sef_gap(z1)[1]
    assert upper.slack == 0.0  # (Z, |.|) achieves the r log 3 gap exactly


@criterion(3, "filtration bounds on 200 modules, filtration length <= 6, "
              "all variants hold")
def test_criterion_3_filtration_suite():
    for i in range(200):
        module = random_module(derive(303, i), rank_max=3)
        rng = DetRNG(303, i, 0xF117)
        alphas = [Fraction(0)]
        for _ in range(rng.randint(1, 5)):
            alphas.append(alphas[-1] + rng.fraction(Fraction(0), Fraction(3, 4), 8))
        reports = check_filtration(module, alphas)
        assert len(reports) == 4
        for rep in reports:
            assert rep.verdict == "holds", (rep, module.to_json(), alphas)


def _exact_volume_corpus():
    """>= 300 modules whose ball volume is computed exactly."""
    corpus = []
    for i in range(150):  # ellipsoids, rank 1..4
        rng = DetRNG(404, i)
        rank = rng.randint(1, 4)
        a = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(rank)]
        gram = [[sum(a[k][p] * a[k][q] for k in range(rank)) + (p == q)
                 for q in range(rank)] for p in range(rank)]
        m = make_normed_module(rank, make_ellipsoid(gram))
        if rng.randint(0, 1):
            m = twist(m, rng.fraction(Fraction(-1, 2), Fraction(1, 2)))
        corpus.append(m)
    for i in range(100):  # square polymax systems, rank 1..4
        rng = DetRNG(405, i)
        rank = rng.randint(1, 4)
        rows = []
        for k in range(rank):
            diag = Fraction(rng.randint(1, 4), rng.randint(1, 4))
            row = [diag * Fraction(rng.randint(-2, 2), 8 * rank)
                   for _ in range(rank)]
            row[k] = diag
            rows.append(row)
        corpus.append(make_normed_module(rank, make_polymax(rows)))
    for i in range(60):  # rank-2 polygons with redundant functionals
        rng = DetRNG(406, i)
        rows = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
        for _ in range(rng.randint(1, 3)):
            rows.append([Fraction(rng.randint(-2, 2), rng.randint(1, 3)),
                         Fraction(rng.randint(-2, 2), rng.randint(1, 3))])
        corpus.append(make_normed_module(2, make_polymax(rows)))
    return corpus


@criterion(4, "minima window and count bounds on >= 300 exact-volume "
              "instances within 1e-9; tight witnesses at the boundary")
def test_criterion_4_minima_window():
    corpus = _exact_volume_corpus()
    assert len(corpus) >= 300
    for module in corpus:
        assert ball_volume(module).method in ("exact-ellipsoid", "exact-polytope")
        lower, upper = check_second_minima(module)
        assert lower.slack >= -1e-9, (lower, module.to_json())
        assert upper.slack >= -1e-9, (upper, module.to_json())
        for rep in check_gs_count(module):
            assert rep.slack >= -1e-9, (rep, module.to_json())
    for wit in witness_modules():
        _, upper = check_second_minima(wit)
        assert abs(upper.slack) < 1e-9  # chi - sum mu = r log 2 exactly


@criterion(5, "Minkowski count bound chi <= h0 + r log 2: zero violations")
def test_criterion_5_minkowski_count():
    for module in _exact_volume_corpus():
        rep = check_minkowski_count(module)
        assert rep.verdict != "violated", (rep, module.to_json())
    # a polymax with a slab beyond its rank: exact volume 23/3
    cut = make_normed_module(3, make_polymax(
        [[1, 0, 0], [0, 1, 0], [0, 0, 1], ["1/2", "1/2", "1/2"]]))
    assert check_minkowski_count(cut).verdict == "holds"


@criterion(6, "1000 simulated ledgers per mode: feasible, chained bounds "
              "hold, < 30 s")
def test_criterion_6_ledger_sweep():
    started = time.monotonic()
    for mode in ("positive-genus", "genus-zero", "clifford-hyperelliptic",
                 "clifford-nonhyperelliptic"):
        for seed in range(1000):
            ledger = simulate_reduction(seed, mode)
            derived_intersections(ledger)
            for j in range(len(ledger.steps)):
                first, _ = onestep_chain(ledger, j)
                assert first.holds, (mode, seed)
            assert sum_ci_bound(ledger).holds, (mode, seed)
            assert theorem_chain_check(ledger).holds, (mode, seed)
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


@criterion(7, "constant reproduction: integer coefficients (2g, 18, 25), "
              "clean absorption sweep on g <= 1000, kappa <= 50, asymptotic "
              "margin within 1e-6")
def test_criterion_7_constants():
    assert isinstance(C_LOG_ABSD_PER_G, int) and C_LOG_ABSD_PER_G == 2
    assert isinstance(C_DLOGD, int) and C_DLOGD == 18
    assert isinstance(C_D, int) and C_D == 25
    reports = verify_constant_chain(1000, 50)
    for rep in reports:
        assert rep.holds, rep
    with mpmath.workdps(40):
        truth = float(25 - 16 * mpmath.log(3) - 2 * mpmath.log(2 * mpmath.pi))
    assert abs(asymptotic_margin_per_d() - truth) < 1e-6
    # the per-unit-d margin recorded on the grid stays below the limit
    assert 0.0 < reports[-1].rhs < truth


@criterion(8, "Stirling bound for g in [2,200], all embedding splits with "
              "kappa <= 20; equality at (g=2, r2=0) within 1e-9")
def test_criterion_8_stirling():
    for g in range(2, 201):
        for kappa in range(1, 21):
            for r2 in range(kappa // 2 + 1):
                r1 = kappa - 2 * r2
                rep = stirling_check(g, r1, r2)
                assert rep.holds, rep
                if g == 2 and r2 == 0:
                    # boundary family: slack is exactly r1 log r1, so true
                    # equality occurs at the single real embedding r1 = 1
                    assert abs(rep.slack - r1 * math.log(r1)) < 1e-9, rep
                    if r1 == 1:
                        assert abs(rep.slack) < 1e-9, rep
                elif g > 2:
                    assert rep.slack > 0.0, rep


def _cli(argv):
    proc = run_latmin(argv)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@criterion(9, "CLI output byte-identical across repeat runs and "
              "--threads in {1, 2, 4}")
def test_criterion_9_cli_determinism(tmp_path):
    module = tmp_path / "disk2.json"
    module.write_text(json.dumps({
        "rank": 2,
        "norm": {"type": "ellipsoid", "gram": [["1/1", "0/1"], ["0/1", "1/1"]]},
    }))
    ledger = tmp_path / "ledger.json"
    ledger.write_text(json.dumps({
        "g": 2, "kappa": 1, "mode": "positive-genus", "L2_0": 20.0,
        "steps": [{"d": 4, "r": 3, "c": 1.0, "slack": 2.0}],
    }))
    commands = [
        ["count", "--module", str(module)],
        ["minima", "--module", str(module)],
        ["chi", "--module", str(module)],
        ["verify", "--trials", "3", "--seed", "7"],
        ["ledger", "eval", "--config", str(ledger)],
        ["ledger", "sweep", "--g-max", "20", "--kappa-max", "3"],
        ["ledger", "simulate", "--mode", "positive-genus", "--trials", "5",
         "--seed", "1"],
        # enough trials to run in one process per CPU, up to four
        ["ledger", "simulate", "--mode", "clifford-hyperelliptic", "--trials",
         "400", "--seed", "11"],
    ]
    for argv in commands:
        baseline = _cli(["--threads", "1"] + argv)
        assert _cli(["--threads", "1"] + argv) == baseline, argv
        assert _cli(["--threads", "2"] + argv) == baseline, argv
        assert _cli(["--threads", "4"] + argv) == baseline, argv
