"""CLI behaviour: JSON output, exit codes, determinism."""

import collections
import errno
import gc
import hashlib
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
from fractions import Fraction
from typing import Any

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import latmin
from latmin import enumeration
from latmin import ledger as ledger_mod
from latmin.cli import (COMMANDS, _run_forked, _trial_text, encode, fmt_real,
                        jsonable, main, shard_count)
from latmin.errors import ConfigError
from latmin.inequalities import run_suite
from latmin.ledger import (MODES, Ledger, LedgerStep, corollary_e,
                           simulate_reduction, sum_ci_bound,
                           theorem_chain_check)
from latmin.minima import ball_volume
from latmin.norms import format_rational, load_module
from latmin.record import record


LEDGER = {"g": 2, "kappa": 1, "mode": "positive-genus", "L2_0": 20.0,
          "steps": [{"d": 4, "r": 3, "c": 1.0, "slack": 2.0}]}
THEOREM_E = {"g": 2, "kappa": 1, "eps": 1, "absD": 1.0, "r1": 1, "r2": 0,
             "omega2": 12.0, "delta": 0.0, "gamma": 0.0}


def write_disk2(tmp_path):
    path = tmp_path / "disk2.json"
    path.write_text(json.dumps({
        "rank": 2,
        "norm": {"type": "ellipsoid",
                 "gram": [["1/1", "0/1"], ["0/1", "1/1"]]},
    }))
    return str(path)


def write_ledger(tmp_path, steps):
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps({
        "g": 2, "kappa": 1, "mode": "positive-genus", "L2_0": 20.0,
        "steps": steps,
    }))
    return str(path)


def run_main(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_count_euclidean_disk(capsys, tmp_path):
    code, doc = run_main(capsys, ["count", "--module", write_disk2(tmp_path)])
    assert code == 0
    assert doc["report"]["count"] == 5
    assert doc["report"]["log_count"] == "1.60943791243"
    assert doc["manifest"]["subcommand"] == "count"


def test_count_emit_vectors(capsys, tmp_path):
    """The strict unit disk is {0}, one candidate at the strict cap: its
    vectors are listed at that cap, not cut from the closed ball's 9, so
    they fit --budget 1 as its count does."""
    for budget in ([], ["--budget", "1"]):
        enumeration._unit_count.cache_clear()
        code, doc = run_main(capsys, ["count", "--module", write_disk2(tmp_path),
                                      "--emit-vectors", "--strict"] + budget)
        assert code == 0
        assert doc["report"]["count"] == 1
        assert doc["report"]["vectors"] == [[0, 0]]


def test_minima_output(capsys, tmp_path):
    code, doc = run_main(capsys, ["minima", "--module", write_disk2(tmp_path)])
    assert code == 0
    assert doc["report"]["lambdas"] == ["1", "1"]
    assert doc["report"]["exact"][0]["den"] == 1


def test_chi_output(capsys, tmp_path):
    code, doc = run_main(capsys, ["chi", "--module", write_disk2(tmp_path)])
    assert code == 0
    assert doc["report"]["method"] == "exact-ellipsoid"
    assert doc["report"]["chi"] == "1.14472988585"  # log pi


def test_chi_of_rank_zero_polymax(capsys, tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"rank": 0, "norm": {"type": "polymax",
                                                    "functionals": [[]]}}))
    code, doc = run_main(capsys, ["chi", "--module", str(path)])
    assert code == 0
    assert doc["report"] == {"chi": "0", "method": "exact-polytope"}


@pytest.mark.parametrize("alpha", ["1e400", "-1e400", "3"])
@pytest.mark.parametrize("inner, method", [
    ({"type": "ellipsoid", "gram": []}, "exact-ellipsoid"),
    ({"type": "polymax", "functionals": [[]]}, "exact-polytope")],
    ids=["ellipsoid", "polymax"])
def test_chi_of_a_rank_zero_twist_is_zero(capsys, tmp_path, inner, method, alpha):
    """The twist multiplies the volume by e^(r alpha) = 1 at rank 0, also
    where alpha is past the double range (0 * inf would print nan)."""
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"rank": 0, "norm": {"type": "scaled",
                                                    "alpha": alpha, "inner": inner}}))
    code, doc = run_main(capsys, ["chi", "--module", str(path)])
    assert code == 0
    assert doc["report"] == {"chi": "0", "method": method}


def test_verify_small_suite(capsys):
    code, doc = run_main(capsys, ["verify", "--trials", "3", "--seed", "7"])
    assert code == 0
    assert doc["report"]["total_violations"] == 0


def test_unknown_suite_exits_2(capsys):
    code, doc = run_main(capsys, ["verify", "--suite", "nope", "--trials", "1"])
    assert code == 2
    assert doc["error"]["type"] == "ConfigError"


def test_ledger_eval_full(capsys, tmp_path):
    cfg = write_ledger(tmp_path, [
        {"d": 4, "r": 3, "c": 1.0, "slack": 2.0},
        {"d": 2, "r": 2, "c": 0.0, "slack": 0.0},
    ])
    code, doc = run_main(capsys, ["ledger", "eval", "--config", cfg])
    assert code == 0
    assert doc["report"]["theorem_chain"]["holds"] is True
    assert doc["report"]["sum_ci"]["slack"] == "3"


def test_ledger_eval_theorem_flag(capsys, tmp_path):
    cfg = tmp_path / "thm.json"
    cfg.write_text(json.dumps({"g": 2, "d_circ": 2, "kappa": 1, "L2": 10.0}))
    code, doc = run_main(capsys, ["ledger", "eval", "--config", str(cfg),
                                  "--theorem", "B"])
    assert code == 0
    assert doc["report"]["bound"] == "19.3340757538"


def test_ledger_eval_violation_exits_1(capsys, tmp_path):
    # feasible, but c_0 + c_0 + c_1 = 1 > L^2 / d_0 = 1/2
    cfg = tmp_path / "ledger.json"
    cfg.write_text(json.dumps(dict(LEDGER, L2_0=2.0, steps=[
        {"d": 4, "r": 1, "c": 0.0, "slack": 0.0},
        {"d": 1, "r": 1, "c": 1.0, "slack": 0.0}])))
    code, doc = run_main(capsys, ["ledger", "eval", "--config", str(cfg)])
    assert code == 1
    assert doc["report"]["sum_ci"]["verdict"] == "violated"
    assert doc["report"]["theorem_chain"]["verdict"] == "holds"


def test_theorem_e_violation_exits_1(capsys, tmp_path):
    cfg = tmp_path / "thm.json"
    for delta, holds, want in ((0.0, True, 0), (1000.0, False, 1)):
        cfg.write_text(json.dumps(dict(THEOREM_E, delta=delta)))
        code, doc = run_main(capsys, ["ledger", "eval", "--config", str(cfg),
                                      "--theorem", "E"])
        assert code == want
        assert doc["report"]["holds_omega"] is holds
        assert doc["report"]["holds_chi"] is holds


def test_ledger_eval_bad_schema_exits_2(capsys, tmp_path):
    cfg = write_ledger(tmp_path, [
        {"d": 2, "r": 1, "c": 0.0, "slack": 0.0},
        {"d": 4, "r": 1, "c": 0.0, "slack": 0.0},  # degrees not decreasing
    ])
    code, doc = run_main(capsys, ["ledger", "eval", "--config", cfg])
    assert code == 2
    assert doc["error"]["type"] == "ConfigError"


def test_ledger_sweep_and_simulate(capsys):
    code, doc = run_main(capsys, ["ledger", "sweep", "--g-max", "20",
                                  "--kappa-max", "3"])
    assert code == 0
    assert all(rep["holds"] for rep in doc["report"])
    code, doc = run_main(capsys, ["ledger", "simulate", "--mode",
                                  "genus-zero", "--trials", "5", "--seed", "3"])
    assert code == 0
    assert doc["report"]["violations"] == 0


def test_missing_module_file_exits_2(capsys):
    code, doc = run_main(capsys, ["count", "--module", "/no/such/file.json"])
    assert code == 2
    assert doc["error"]["type"] == "FileNotFoundError"


@pytest.mark.parametrize("argv, content, error", [
    (["count", "--module"], None, "IsADirectoryError"),
    (["ledger", "eval", "--config"], None, "IsADirectoryError"),
    (["count", "--module"], b'{"rank": 1, "\xff": 0}', "UnicodeDecodeError"),
    # nested past the recursion limit
    (["count", "--module"], b"[" * 100000, "RecursionError"),
    (["chi", "--module"], b'{"rank": 1, "norm": ' + b"[" * 100000 + b"]" * 100000 + b"}",
     "RecursionError"),
    (["ledger", "eval", "--config"], b'{"g": 2, "steps": ' + b"[" * 100000, "RecursionError"),
], ids=["module-directory", "ledger-directory", "module-not-utf8", "module-nested",
        "module-nested-closed", "ledger-nested"])
def test_unreadable_input_exits_2(capsys, tmp_path, argv, content, error):
    path = tmp_path / "input"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    code, doc = run_main(capsys, argv + [str(path)])
    assert code == 2
    assert doc["error"]["type"] == error


DISK_NORM = {"type": "ellipsoid", "gram": [["1/1", "0/1"], ["0/1", "1/1"]]}
THEOREM_B = {"g": 2, "d_circ": 2, "kappa": 1, "L2": 10.0}
THEOREM_C = {"d_circ": 2, "kappa": 1, "eps": 1, "L2": 10.0}
THEOREM_D = {"g": 3, "kappa": 2, "eps": 1, "omega2": 12.0}
C, P = "ConfigError", "PreconditionViolated"


@pytest.mark.parametrize("argv, doc, kind", [
    (["count"], {"rank": 1, "norm": {"type": "ellipsoid", "gram": [["x"]]}}, C),
    (["count"], {"rank": 1, "norm": {"type": "polymax", "functionals": [["1/0"]]}}, C),
    (["count"], {"rank": "two", "norm": DISK_NORM}, C),
    (["count"], {"rank": 2.5, "norm": DISK_NORM}, C),
    (["count"], {"rank": "2.5", "norm": DISK_NORM}, C),
    (["count"], {"rank": True, "norm": {"type": "ellipsoid", "gram": [["1/1"]]}}, C),
    (["count"], [1, 2], C),
    (["count"], {"rank": 1, "norm": {"type": "ellipsoid", "gram": [[True]]}}, C),
    (["count"], {"rank": 1, "norm": {"type": "polymax", "functionals": [[True]]}}, C),
    (["count"], {"rank": 1, "norm": {"type": "scaled", "alpha": True,
                                     "inner": {"type": "ellipsoid", "gram": [["1/1"]]}}}, C),
    (["ledger", "eval", "--theorem", "B"],
     {"g": "x", "d_circ": 2, "kappa": 1, "L2": 10.0}, C),
    (["ledger", "eval"], dict(LEDGER, L2_0="nan"), C),
    (["ledger", "eval"], dict(LEDGER, L2_0="inf", steps=[
        {"d": 4, "r": 3, "c": "nan", "slack": 2.0}]), C),
    (["ledger", "eval"], dict(LEDGER, steps=[
        {"d": 4.7, "r": 3, "c": 1.0, "slack": 2.0}]), C),
    (["ledger", "eval"], dict(LEDGER, kappa=True), C),
    (["ledger", "eval"], dict(LEDGER, steps=[
        {"d": 4, "r": 3, "c": True, "slack": 2.0}]), C),
    (["ledger", "eval"], dict(LEDGER, steps=[
        {"d": 4, "r": 3, "c": "1.5", "slack": 2.0}]), C),
    (["ledger", "eval", "--theorem", "B"], dict(THEOREM_B, L2=True), C),
    (["ledger", "eval", "--theorem", "B"], dict(THEOREM_B, L2="7"), C),
    (["ledger", "eval", "--theorem", "B"], dict(THEOREM_B, d_circ=10 ** 400), C),
    (["ledger", "eval"], dict(LEDGER, steps=[
        {"d": 10 ** 400, "r": 3, "c": 1.0, "slack": 2.0}]), C),
    (["ledger", "eval", "--theorem", "E"], dict(THEOREM_E, absD="nan"), C),
    (["ledger", "eval", "--theorem", "B"],
     {"g": 2, "d_circ": 2.5, "kappa": 1, "L2": 10.0}, C),
    (["ledger", "eval"], dict(LEDGER, g=-1), C),
    (["ledger", "eval"], dict(LEDGER, kappa=0), C),
    (["ledger", "eval"], dict(LEDGER, steps=[]), C),
    (["ledger", "eval"], dict(LEDGER, L2_0=-1.0), C),
    (["ledger", "eval"], dict(LEDGER, steps=[{"d": 0, "r": 3, "c": 1.0, "slack": 2.0}]), C),
    (["ledger", "eval"], dict(LEDGER, steps=[{"d": 4, "r": 3, "c": -1.0, "slack": 2.0}]), C),
    (["ledger", "eval", "--theorem", "B"], dict(THEOREM_B, kappa=0), P),
    (["ledger", "eval", "--theorem", "B"], dict(THEOREM_B, g=0, d_circ=0), P),
    (["ledger", "eval", "--theorem", "C"], dict(THEOREM_C, d_circ=1), P),
    (["ledger", "eval", "--theorem", "C"], dict(THEOREM_C, L2=-1.0), P),
    (["ledger", "eval", "--theorem", "D"], {"g": 1, "kappa": 1, "eps": 1, "omega2": 12.0}, P),
    (["ledger", "eval", "--theorem", "deg1"], {"g": -1, "kappa": 2, "L2": 3.0}, P),
    (["ledger", "eval", "--theorem", "E"], dict(THEOREM_E, g=1), P),
    (["ledger", "eval", "--theorem", "E"], dict(THEOREM_E, r1=0, r2=1), C),
    (["ledger", "eval", "--theorem", "E"], dict(THEOREM_E, eps=3), C),
    (["ledger", "eval", "--theorem", "E"], dict(THEOREM_E, absD=0.5), C),
    (["ledger", "eval", "--theorem", "E"], dict(THEOREM_E, omega2=-1.0), C),
    (["ledger", "eval", "--theorem", "E"], dict(THEOREM_E, kappa=0), C),
    # each count a double holds, whose product is past the double range
    (["ledger", "eval", "--theorem", "B"],
     dict(THEOREM_B, d_circ=10 ** 300, kappa=10 ** 300), C),
    (["ledger", "eval", "--theorem", "C"],
     dict(THEOREM_C, d_circ=10 ** 300, kappa=10 ** 300), C),
    (["ledger", "eval", "--theorem", "D"],
     {"g": 10 ** 300, "kappa": 10 ** 300, "eps": 1, "omega2": 12.0}, C),
    (["ledger", "eval", "--theorem", "E"],
     dict(THEOREM_E, g=10 ** 300, kappa=10 ** 300, r1=10 ** 300), C),
    # each field a double holds, whose closed form is a float past its range
    (["ledger", "eval", "--theorem", "trivial"],
     {"r_minus": 10, "deg_LQ": 1, "L2": 1e308}, C),
    (["ledger", "eval", "--theorem", "B"],
     {"g": 0, "d_circ": 1, "kappa": 1, "L2": 1.5e308}, C),
    (["ledger", "eval", "--theorem", "E"], dict(THEOREM_E, omega2=1e308), C),
    (["ledger", "eval"], {"g": 0, "kappa": 1, "mode": "genus-zero", "L2_0": 1.5e308,
                          "steps": [{"d": 1, "r": 2, "c": 0.0, "slack": 0.0}]}, C),
    (["ledger", "sweep", "--g-max", "1"], None, P),
    (["ledger", "simulate", "--mode", "nope"], None, C),
], ids=["bad-literal", "zero-denominator", "bad-rank", "fractional-rank",
        "fractional-rank-string", "boolean-rank", "not-an-object",
        "boolean-gram-entry", "boolean-functional-entry", "boolean-alpha",
        "bad-theorem-field", "nan-ledger-real", "nan-and-inf-ledger-reals",
        "fractional-ledger-degree", "boolean-ledger-kappa",
        "boolean-ledger-c", "string-ledger-c", "boolean-theorem-real",
        "string-theorem-real", "huge-theorem-integer", "huge-ledger-degree",
        "nan-theorem-real", "fractional-theorem-integer",
        "ledger-negative-genus", "ledger-zero-kappa", "ledger-no-steps",
        "ledger-negative-L2", "ledger-zero-degree", "ledger-negative-c",
        "B-zero-kappa", "B-genus-0-degree-0", "C-degree-1", "C-negative-L2",
        "D-genus-1", "deg1-negative-genus", "E-genus-1", "E-bad-split",
        "E-eps-3", "E-absD-below-1", "E-negative-omega2", "E-zero-kappa",
        "B-product-past-double", "C-product-past-double",
        "D-product-past-double", "E-product-past-double",
        "trivial-bound-past-double", "B-bound-past-double",
        "E-bound-past-double", "ledger-bound-past-double",
        "sweep-g-max-1", "simulate-unknown-mode"])
def test_malformed_input_exits_2(capsys, tmp_path, argv, doc, kind):
    """Bad input exits 2 with the JSON error of its kind, never a traceback;
    a doc of None is a command with no input file."""
    if doc is not None:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        argv = argv + ["--config" if argv[0] == "ledger" else "--module", str(path)]
    code, out = run_main(capsys, argv)
    assert code == 2
    assert out["error"]["type"] == kind


# a JSON number as a config field: one at or past the double range's edges,
# an integer of up to 400 digits, or a finite double
JSON_NUMBERS = st.one_of(
    st.sampled_from([0, 1, 2, -1, 0.5, 1e308, 1.7e308, -1.7e308, 10 ** 308, 10 ** 400]),
    st.integers(-10 ** 400, 10 ** 400), st.floats(-1.7e308, 1.7e308))
# a valid config of each theorem (trivial's and B's with an L2 coefficient > 1)
THEOREM_CONFIGS = {"trivial": {"r_minus": 3, "deg_LQ": 1, "L2": 10.0},
                   "B": dict(THEOREM_B, g=0, d_circ=1), "C": THEOREM_C,
                   "D": THEOREM_D, "deg1": {"g": 1, "kappa": 2, "L2": 3.0},
                   "E": THEOREM_E}


def test_theorem_option_lists_the_ledger_table():
    """--theorem is checked when the command line is read, before the
    ledger module loads: its choices are the names of ledger._THEOREMS."""
    choices = COMMANDS["ledger eval"][1]["--theorem"][0]
    assert sorted(choices) == sorted(ledger_mod._THEOREMS) == sorted(THEOREM_CONFIGS)


@pytest.mark.parametrize("theorem", THEOREM_CONFIGS)
@settings(deadline=None, max_examples=100, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_theorem_report_is_finite_or_exits_2(capsys, tmp_path, theorem, data):
    """A valid config with one or two fields made any JSON number: a report
    with finite reals (exit 0 or 1), or an error document (exit 2), and
    nothing raised."""
    cfg = THEOREM_CONFIGS[theorem]
    keys = data.draw(st.lists(st.sampled_from(sorted(cfg)), min_size=1,
                              max_size=2, unique=True))
    cfg = dict(cfg, **{key: data.draw(JSON_NUMBERS, label=key) for key in keys})
    path = tmp_path / "theorem.json"
    path.write_text(json.dumps(cfg))
    code, doc = run_main(capsys, ["ledger", "eval", "--config", str(path),
                                  "--theorem", theorem])
    if code == 2:
        assert set(doc) == {"error", "manifest"}
    else:
        assert code in (0, 1)
        assert not re.search(r'"-?(inf|nan)"', json.dumps(doc["report"])), doc


@pytest.mark.parametrize("argv", [
    ["verify", "--trials", "1", "--seed", "-1"],
    ["ledger", "simulate", "--mode", "positive-genus", "--trials", "1",
     "--seed", "-1"],
    ["ledger", "simulate", "--mode", "positive-genus", "--trials", "0"],
    ["ledger", "simulate", "--mode", "positive-genus", "--trials", "-3"],
], ids=["verify-negative-seed", "simulate-negative-seed", "simulate-zero-trials",
        "simulate-negative-trials"])
def test_bad_seed_or_trials_exits_2(capsys, argv):
    code, doc = run_main(capsys, argv)
    assert code == 2
    assert doc["error"]["type"] == "ConfigError"


def test_budget_exhaustion_exits_3(capsys, tmp_path):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "rank": 2,
        "norm": {"type": "polymax",
                 "functionals": [["1/100", "0/1"], ["0/1", "1/100"]]},
    }))
    enumeration._unit_count.cache_clear()
    code, doc = run_main(capsys, ["count", "--module", str(path),
                                  "--budget", "50"])
    assert code == 3
    assert doc["error"]["type"] == "EnumerationBudgetExceeded"


def test_zero_budget_exits_3(capsys, tmp_path):
    """On a cold cache; the budget ends with its run, so the next call in
    the same process has the default again."""
    enumeration._unit_count.cache_clear()
    code, doc = run_main(capsys, ["count", "--module", write_disk2(tmp_path),
                                  "--budget", "0"])
    assert code == 3
    assert doc["error"]["type"] == "EnumerationBudgetExceeded"
    assert enumeration.BUDGET.get() == enumeration.DEFAULT_BUDGET


def test_negative_budget_exits_2(capsys, tmp_path):
    code, doc = run_main(capsys, ["count", "--module", write_disk2(tmp_path),
                                  "--budget", "-1"])
    assert code == 2
    assert doc["error"]["type"] == "ConfigError"


@pytest.mark.parametrize("threads", ["0", "-5"])
def test_threads_below_one_exits_2(capsys, tmp_path, threads):
    for argv in (["count", "--module", write_disk2(tmp_path)],
                 ["ledger", "sweep", "--g-max", "2", "--kappa-max", "1"]):
        code, doc = run_main(capsys, ["--threads", threads] + argv)
        assert code == 2
        assert doc["error"]["type"] == "ConfigError"


def _scaled(alpha, inner):
    return {"rank": 2, "norm": {"type": "scaled", "alpha": alpha, "inner": inner}}


HEXAGON_INNER = {"type": "polymax", "functionals": [[1, 0], [0, 1], [1, 1]]}


def _assert_refused_near_the_budget(doc, budget):
    """The refusal names the widths' product at the first doubled key past
    the budget: at rank 2 at most 4 times the budget, not the ball's size."""
    assert doc["error"]["type"] == "EnumerationBudgetExceeded"
    words = doc["error"]["message"].split()
    assert words[0] == "predicted" and words[-1] == str(budget)
    assert budget < int(words[1]) <= 4 * budget


def test_large_twist_count_exits_3(capsys, tmp_path):
    path = tmp_path / "twist.json"
    # the ball has about pi e^10000 points: refused before its cap is resolved
    path.write_text(json.dumps(_scaled("5000", DISK_NORM)))
    for extra, budget in (([], 10 ** 8), (["--budget", "100"], 100)):
        code, doc = run_main(capsys, ["count", "--module", str(path)] + extra)
        assert code == 3
        _assert_refused_near_the_budget(doc, budget)


def test_large_twist_minima_print_inf(capsys, tmp_path):
    path = tmp_path / "twist.json"
    # lambda = e^2000 is past the double range
    path.write_text(json.dumps(_scaled("-2000", DISK_NORM)))
    code, doc = run_main(capsys, ["minima", "--module", str(path)])
    assert code == 0
    assert doc["report"]["lambdas"] == ["inf", "inf"]
    assert doc["report"]["mus"] == ["-2000", "-2000"]
    assert doc["report"]["exact"] == [
        {"alpha": "-2000/1", "key": 1, "den": 1, "squared": True}] * 2


def test_huge_twist_count_exits_3(capsys, tmp_path, monkeypatch):
    """The cap would have about 2.9 * 10^7 bits; bit lengths alone put the
    gate's key below it, so no enclosure of e^alpha is built."""
    from latmin import intervals
    monkeypatch.setattr(intervals, "exp_interval", None)  # any call fails
    path = tmp_path / "twist.json"
    path.write_text(json.dumps(_scaled("10000000", DISK_NORM)))
    code, doc = run_main(capsys, ["count", "--module", str(path)])
    assert code == 3
    _assert_refused_near_the_budget(doc, 10 ** 8)


@pytest.mark.parametrize("alpha, code, count", [("1e400", 3, None),
                                                ("-1e400", 0, 1)])
def test_twist_past_the_double_range_counts(capsys, tmp_path, alpha, code, count):
    """alpha = +-10^400: the ball is huge (refused) or {0}; both are decided
    by bit lengths, with no traceback."""
    path = tmp_path / "twist.json"
    path.write_text(json.dumps(_scaled(alpha, DISK_NORM)))
    for strict in ([], ["--strict"]):
        got, doc = run_main(capsys, ["count", "--module", str(path)] + strict)
        assert got == code
        if count is None:
            _assert_refused_near_the_budget(doc, 10 ** 8)
        else:
            assert doc["report"]["count"] == count


@pytest.mark.parametrize("alpha, inner, witnesses", [
    ("10", DISK_NORM, [[0, 1], [1, 0]]),
    ("5000", DISK_NORM, [[0, 1], [1, 0]]),
    ("2000", HEXAGON_INNER, [[0, 1], [1, -1]]),
])
def test_large_twist_minima_start_at_the_ceiling(capsys, tmp_path, alpha, inner,
                                                 witnesses):
    """The unit ball holds about e^(2 alpha) points, but the ball of the
    ceiling key 1 already spans: minima are those of e^-alpha times Z^2."""
    path = tmp_path / "twist.json"
    path.write_text(json.dumps(_scaled(alpha, inner)))
    code, doc = run_main(capsys, ["minima", "--module", str(path)])
    assert code == 0
    assert doc["report"]["mus"] == [alpha, alpha]
    assert doc["report"]["witnesses"] == witnesses


@pytest.mark.parametrize("alpha", ["0", "-2000"])
def test_minima_of_an_unreduced_basis(capsys, tmp_path, alpha):
    """Minima 1 on a basis whose unit vectors have keys near 7000: the
    ladder starts below them, within the budget."""
    path = tmp_path / "unreduced.json"
    path.write_text(json.dumps(_scaled(alpha, {
        "type": "ellipsoid", "gram": [[7321, 7200], [7200, 7081]]})))
    code, doc = run_main(capsys, ["minima", "--module", str(path)])
    assert code == 0
    assert doc["report"]["mus"] == [alpha, alpha]
    assert doc["report"]["witnesses"] == [[59, -60], [60, -61]]


def test_large_twist_chi_is_finite(capsys, tmp_path):
    path = tmp_path / "twist.json"
    # vol = 3 e^4000 is past the double range; its log is not
    path.write_text(json.dumps(_scaled("2000", HEXAGON_INNER)))
    code, doc = run_main(capsys, ["chi", "--module", str(path)])
    assert code == 0
    assert doc["report"] == {"chi": fmt_real(math.log(3) + 4000.0),
                             "method": "exact-polytope"}


@pytest.mark.parametrize("inner", [DISK_NORM, HEXAGON_INNER], ids=["disk", "hexagon"])
@pytest.mark.parametrize("alpha, lam, mu, vol, chi", [
    ("1e400", "0", "inf", "inf", "inf"), ("-1e400", "inf", "-inf", "0", "-inf")])
def test_twist_past_the_double_range_saturates(capsys, tmp_path, inner, alpha,
                                               lam, mu, vol, chi):
    """alpha = +-10^400 is no double: lambda = e^-alpha, the volume e^(2 alpha)
    vol and chi print as 0, inf or -inf, as at alpha = +-2000, with no
    OverflowError."""
    path = tmp_path / "twist.json"
    path.write_text(json.dumps(_scaled(alpha, inner)))
    code, doc = run_main(capsys, ["minima", "--module", str(path)])
    assert code == 0
    assert doc["report"]["lambdas"] == [lam, lam]
    assert doc["report"]["mus"] == [mu, mu]
    code, doc = run_main(capsys, ["chi", "--module", str(path)])
    assert code == 0
    assert doc["report"]["chi"] == chi
    module = load_module(str(path))
    assert jsonable(ball_volume(module).value) == vol


@pytest.mark.parametrize("entry, sign", [("1e400", -1), ("1e-400", 1)])
def test_chi_of_an_ellipsoid_past_the_double_range(capsys, tmp_path, entry, sign):
    """det G = 10^(+-400) is no double, but its log is: chi = log 2 -+ 200 log 10."""
    path = tmp_path / "rod.json"
    path.write_text(json.dumps({"rank": 1, "norm": {"type": "ellipsoid",
                                                    "gram": [[entry]]}}))
    code, doc = run_main(capsys, ["chi", "--module", str(path)])
    assert code == 0
    assert doc["report"] == {"chi": fmt_real(math.log(2) + sign * 200 * math.log(10)),
                             "method": "exact-ellipsoid"}


def test_budget_message_names_the_count(capsys, tmp_path):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(_scaled("1/2", HEXAGON_INNER)))
    enumeration._unit_count.cache_clear()
    code, doc = run_main(capsys, ["count", "--module", str(path),
                                  "--budget", "2"])
    assert code == 3
    assert doc["error"]["message"] == "predicted 9 candidates exceeds budget 2"


def test_bad_usage_exits_2(capsys):
    assert main(["no-such-command"]) == 2
    assert main([]) == 2


def _run(argv, cwd=None, stdout=subprocess.PIPE, **popen):
    """`python -m latmin.cli argv` in a fresh process, stderr captured, with
    stdout block-buffered as by default; `popen` goes to subprocess.run."""
    src = os.path.dirname(os.path.dirname(latmin.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("LATMIN_TIMING", None)
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, "-m", "latmin.cli"] + argv, cwd=cwd,
                          stdout=stdout, stderr=subprocess.PIPE, env=env, **popen)


def test_subprocess_output_byte_identical(tmp_path):
    cfg = write_ledger(tmp_path, [{"d": 4, "r": 3, "c": 1.0, "slack": 2.0}])
    argv = ["ledger", "eval", "--config", cfg]
    a = _run(argv)
    b = _run(argv)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


@pytest.mark.parametrize("kind", ["gram", "step-degree"])
def test_an_input_integer_past_the_str_digit_limit_is_bad_input(tmp_path, kind):
    """A 5,000-digit integer literal in a module's gram or a ledger step's
    degree exits 2 with an error document and no traceback where the
    interpreter limits int parsing; an interpreter without a limit reads
    the gram, a ball that holds only 0, and refuses the degree, past the
    double range."""
    path, digits = tmp_path / "input.json", "7" * 5000
    if kind == "gram":
        path.write_text('{"rank": 1, "norm": {"type": "ellipsoid", "gram": [[%s]]}}'
                        % digits)
        argv, unlimited = ["count", "--module", str(path)], 0
    else:
        path.write_text(json.dumps(dict(LEDGER, steps=[
            {"d": 0, "r": 3, "c": 1.0, "slack": 2.0}])).replace('"d": 0', '"d": ' + digits))
        argv, unlimited = ["ledger", "eval", "--config", str(path)], 2
    out = _run(argv)
    assert "Traceback" not in out.stderr.decode(), out.stderr
    # the child inherits the environment, and with it this process's limit
    want = 2 if getattr(sys, "get_int_max_str_digits", int)() else unlimited
    assert out.returncode == want, out.stdout
    if want == 2:
        assert "error" in json.loads(out.stdout)


def test_minima_writes_a_huge_exact_alpha_in_full(tmp_path):
    """The minimum of the rank-1 disk twisted by alpha = 10^5000 is written
    with its exact alpha in full (exit 0), and the str digit limit that
    guards parsing is restored after the report is encoded."""
    path = tmp_path / "twist.json"
    path.write_text(json.dumps({"rank": 1, "norm": {
        "type": "scaled", "alpha": "1e5000",
        "inner": {"type": "ellipsoid", "gram": [["1"]]}}}))
    out = _run(["minima", "--module", str(path)])
    assert "Traceback" not in out.stderr.decode()
    assert out.returncode == 0
    assert b'"alpha":"1%s/1"' % (b"0" * 5000) in out.stdout
    if hasattr(sys, "get_int_max_str_digits"):
        limit = sys.get_int_max_str_digits()
        assert encode([10 ** 5000]) == "[1%s]" % ("0" * 5000)
        assert sys.get_int_max_str_digits() == limit


def test_cli_import_does_not_load_mpmath(tmp_path):
    """No op loads mpmath, nor dataclasses with its inspect (the value
    types are records), nor hashlib with OpenSSL's _hashlib (digest16 uses
    the interpreter's own SHA-256), and each loads only the layers its
    subcommand runs: the CLI import no lattice layer and no fractions or
    decimal, a twisted count (which reads e^alpha) no minima, inequality
    or ledger code and no copy, and a ledger run, forked or not, no lattice
    code and no fractions, decimal or intervals (no ledger path makes a
    Fraction).  A forked simulate (on 2 or more CPUs) loads no pickle: each
    shard comes back as one length-prefixed byte message.  A twist's
    compile, minima and volume read no e^alpha."""
    src = os.path.dirname(os.path.dirname(latmin.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    path = tmp_path / "twist.json"
    path.write_text(json.dumps(_scaled("7/3", DISK_NORM)))
    twisted = (
        "from latmin import *\n"
        "for inner in (make_ellipsoid([[2, 1], [1, 3]]),\n"
        "              make_polymax([[1, 0], [0, 1], [1, 1]])):\n"
        "    m = twist(make_normed_module(2, inner), '7/3')\n"
        "    successive_minima(m), ball_volume(m)\n")

    def cli(*argv):
        return f"from latmin import cli\nassert cli.main({list(argv)!r}) == 0\n"

    lattice = {"latmin.norms", "latmin.enumeration", "latmin.minima",
               "latmin.inequalities", "latmin.linalg"}
    ledger = lattice | {"fractions", "decimal", "latmin.intervals"}
    cases = [
        ("import latmin.cli\n", {"latmin.enumeration", "latmin.norms",
                                 "latmin.minima", "latmin.inequalities",
                                 "latmin.ledger", "pickle", "multiprocessing",
                                 "concurrent.futures", "fractions", "decimal"}),
        (twisted, set()),
        (cli("count", "--module", str(path)),
         {"latmin.ledger", "latmin.inequalities", "latmin.minima", "copy"}),
        (cli("ledger", "simulate", "--mode", "genus-zero", "--trials", "3"),
         ledger),
        (cli("--threads", "2", "ledger", "simulate", "--mode", "genus-zero",
             "--trials", "300"), ledger | {"pickle"}),
        (cli("ledger", "sweep", "--g-max", "20", "--kappa-max", "3"), ledger),
        (cli("verify", "--trials", "1", "--max-rank", "2"), {"latmin.ledger"}),
    ]
    # each case runs twice: as is, and under -S, where no site-packages .pth
    # file can load typing first (the annotations are never evaluated); the
    # command line is read from cli.COMMANDS, with no argparse and so no
    # gettext or locale, which a plain run's site may load itself
    for flags, extra in (((), {"argparse"}),
                         (("-S",), {"typing", "argparse", "gettext", "locale"})):
        for code, banned in cases:
            out = subprocess.run(
                [sys.executable, *flags, "-c",
                 f"import sys\n{code}print(*sorted(sys.modules))"],
                capture_output=True, env=env)
            assert out.returncode == 0, (flags, code, out.stderr)
            loaded = set(out.stdout.decode().splitlines()[-1].split())
            assert "latmin" in loaded
            banned = banned | extra | {"mpmath", "dataclasses", "inspect",
                                       "hashlib", "_hashlib"}
            assert not loaded & banned, (flags, code, loaded & banned)


def test_only_the_process_entry_freezes_the_heap(tmp_path):
    """main() leaves its caller's heap collectable: in process, a count, a
    verify and a forked simulate freeze nothing.  The process entry freezes
    it after main() has written the document, and returns main's code."""
    before, disk = gc.get_freeze_count(), write_disk2(tmp_path)
    for argv in (["count", "--module", disk],
                 ["verify", "--trials", "1", "--max-rank", "2"],
                 ["--threads", "2", "ledger", "simulate", "--mode", "genus-zero",
                  "--trials", "300"]):
        assert main(argv) == 0, argv
        assert gc.get_freeze_count() == before, argv
    src = os.path.dirname(os.path.dirname(latmin.__file__))
    code = ("import gc, sys\nfrom latmin import cli\n"
            "sys.argv[1:] = ['count', '--module', 'missing.json']\n"
            "print(cli.entry(), gc.get_freeze_count() > 0, file=sys.stderr)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src))
    assert json.loads(out.stdout)["error"]["type"] == "FileNotFoundError"
    assert out.stderr.decode().split() == ["2", "True"]


def test_console_script_is_the_process_entry():
    """The `latmin` script of pyproject.toml and `python -m latmin.cli` call
    one function."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml")) as fh:
        scripts = fh.read().split("[project.scripts]", 1)[1]
    target = re.search(r'^latmin = "latmin\.cli:(\w+)"$', scripts, re.M).group(1)
    with open(latmin.cli.__file__) as fh:
        tail = fh.read().rsplit('if __name__ == "__main__":', 1)[1]
    assert tail.strip() == f"sys.exit({target}())"
    assert callable(getattr(latmin.cli, target))


def _fields_of(rec) -> dict:
    """A record's fields by name, as dataclasses.asdict gave them."""
    return {name: getattr(rec, name) for name in rec._fields}


def _replaced(rec, **changes):
    """A copy of a record with some fields changed."""
    return type(rec)(**{**_fields_of(rec), **changes})


def _asdict_jsonable(obj):
    """The former cli.jsonable, built on dataclasses.asdict, reading the
    fields of a record (any object with `_fields` but a namedtuple): the
    oracle."""
    if isinstance(obj, float):
        return fmt_real(obj)
    if isinstance(obj, Fraction):
        return format_rational(obj)
    if isinstance(obj, bool) or isinstance(obj, int) or obj is None:
        return obj
    if isinstance(obj, str):
        return obj
    if hasattr(obj, "_fields") and not isinstance(obj, tuple):
        return {k: _asdict_jsonable(v) for k, v in _fields_of(obj).items()}
    if isinstance(obj, dict):
        return {str(k): _asdict_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_asdict_jsonable(v) for v in obj]
    return str(obj)


@record
class _Leaf:
    x: Any
    y: Any = None


@record
class _Node:
    leaves: list
    pair: tuple
    table: dict
    child: Any = None


_Pair = collections.namedtuple("_Pair", "x y")  # has _fields, is a tuple


def _jsonable_cases():
    leaf = _Leaf(Fraction(-3, 4), (True, 1, 0.1))
    node = _Node([leaf, _Leaf(None, complex(1, 2))],
                 (Fraction(5), _Leaf("s", [2.5e-13, 1e300])),
                 {1: leaf, "k": [False, None], (1, 2): Fraction(0)},
                 _Node([], (), {}, child=leaf))
    ledger = simulate_reduction(3, "clifford-hyperelliptic")
    return [
        leaf, node, [node, (node,)], {"a": node, 2: (leaf, [leaf])},
        Fraction(7, 3), True, 1, None, 0.0, -1.5, float("nan"), "x",
        complex(0, 1), {3, }, b"bytes", _Pair(leaf, 0.5),
        {"ledger": ledger.to_json(), "theorem_chain":
         theorem_chain_check(ledger), "sum_ci": sum_ci_bound(ledger)},
        corollary_e(g=2, kappa=1, eps=1, absD=1.0, r1=1, r2=0, omega2=12.0,
                    delta=0.0, gamma=0.0),
        run_suite(seed=7, trials=2, rank_max=3),
    ]


def test_jsonable_matches_asdict_oracle():
    for obj in _jsonable_cases():
        got, want = jsonable(obj), _asdict_jsonable(obj)
        assert got == want, obj
        # == takes True for 1 and 1.0; the encoded text does not
        assert (json.dumps(got, sort_keys=True, default=repr)
                == json.dumps(want, sort_keys=True, default=repr)), obj


# first 16 hex digits of the sha256 of stdout, as produced by the
# asdict-based serializer that encoded the report twice
PINNED_STDOUT = {
    "positive-genus": (["ledger", "simulate", "--mode", "positive-genus",
                        "--trials", "2500", "--seed", "7"], "486e014999c69095"),
    "genus-zero": (["ledger", "simulate", "--mode", "genus-zero",
                    "--trials", "2500", "--seed", "7"], "319d84d04c300256"),
    "clifford-hyperelliptic": (
        ["ledger", "simulate", "--mode", "clifford-hyperelliptic",
         "--trials", "2500", "--seed", "7"], "300584784583bf90"),
    "clifford-nonhyperelliptic": (
        ["ledger", "simulate", "--mode", "clifford-nonhyperelliptic",
         "--trials", "2500", "--seed", "7"], "20d91f5ac026653b"),
    "sweep": (["ledger", "sweep", "--g-max", "200", "--kappa-max", "10"],
              "4930ae8db62449d7"),
}


@pytest.mark.parametrize("argv, want", PINNED_STDOUT.values(),
                         ids=PINNED_STDOUT.keys())
def test_ledger_stdout_is_pinned(capsys, monkeypatch, argv, want):
    monkeypatch.delenv("LATMIN_TIMING", raising=False)
    # at --threads 2 and 4, simulate forks one process per CPU beyond the first
    for threads in ("1", "2", "4"):
        _assert_pinned(capsys, ["--threads", threads] + argv, want)
    _assert_no_child_left()


def _assert_pinned(capsys, argv, want):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == want, argv


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_shard_count_is_bounded():
    # a pure rule: no process is started here, whatever the numbers
    for threads, trials, cpus in [(10 ** 6, 10 ** 7, 64), (10 ** 6, 10 ** 7, 1),
                                  (4, 99, 8), (4, 1, 8), (1, 10 ** 7, 8),
                                  (3, 250, 8), (8, 10 ** 4, 2)]:
        n = shard_count(threads, trials, cpus)
        assert 1 <= n <= threads and n <= cpus, (threads, trials, cpus)
        assert n == 1 or n <= trials // 100, (threads, trials, cpus)
    assert shard_count(10 ** 6, 10 ** 7, 64) == 64
    assert shard_count(10 ** 6, 10 ** 7, 1) == 1
    assert shard_count(4, 99, 8) == 1
    assert shard_count(3, 250, 8) == 2


def _many_cpus(monkeypatch):
    """Lets the shard count reach 4 on any machine."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)


def _old_report(seeds, mode) -> dict:
    """The simulate report as the dict that encode() serialized before the
    per-trial writer: the oracle for its text.  It reads the checks off the
    ledger module at call time, as the CLI does, so a patched check shows."""
    results, violations = [], 0
    for seed in seeds:
        ledger = ledger_mod.simulate_reduction(seed, mode)
        chain = ledger_mod.theorem_chain_check(ledger)
        sumci = ledger_mod.sum_ci_bound(ledger)
        violations += not (chain.holds and sumci.holds)
        results.append({"ledger": ledger.to_json(), "theorem_chain": chain,
                        "sum_ci": sumci})
    return {"trials": len(seeds), "violations": violations, "results": results}


def test_simulate_splices_shards_into_the_encoded_report(capsys, monkeypatch):
    """The sharded body is encode(report) of the serial report, with the
    violations summed over the shards and exit code 1."""
    _many_cpus(monkeypatch)
    sum_ci = ledger_mod.sum_ci_bound

    def fails_on_degree_3k(ledger):  # some violations in every shard
        rep = sum_ci(ledger)
        return _replaced(rep, holds=ledger.steps[0].d % 3 != 0)

    monkeypatch.setattr(ledger_mod, "sum_ci_bound", fails_on_degree_3k)
    report = _old_report(range(5, 405), "positive-genus")
    assert 0 < report["violations"] < 400
    for threads in ("1", "3", "4"):
        assert main(["--threads", threads, "ledger", "simulate", "--mode",
                     "positive-genus", "--trials", "400", "--seed", "5"]) == 1
        out = capsys.readouterr().out
        assert out.endswith(',"report":' + encode(report) + "}\n"), threads
    _assert_no_child_left()


@pytest.mark.parametrize("error", [ConfigError("seed refused")], ids=["config"])
@pytest.mark.parametrize("failing", ["child", "parent"])
def test_simulate_shard_error_is_reported_once(capsys, monkeypatch, failing,
                                               error):
    """An error in any shard gives the serial run's error document and exit
    code, and leaves no child process behind."""
    _many_cpus(monkeypatch)
    simulate = ledger_mod.simulate_reduction
    bad_seed = 350 if failing == "child" else 50  # in the last or first shard

    def refuses(seed, mode):
        if seed == bad_seed:
            raise error
        return simulate(seed, mode)

    monkeypatch.setattr(ledger_mod, "simulate_reduction", refuses)
    argv = ["ledger", "simulate", "--mode", "genus-zero", "--trials", "400"]
    code, serial = run_main(capsys, ["--threads", "1"] + argv)
    assert code == error.exit_code
    assert serial["error"] == {"type": type(error).__name__,
                               "message": str(error)}
    for threads in ("2", "4"):
        assert run_main(capsys, ["--threads", threads] + argv) == (code, serial)
        _assert_no_child_left()


@pytest.mark.parametrize("mode", MODES)
def test_simulate_body_is_encode_of_the_report(capsys, monkeypatch, mode):
    """Each trial's text, written directly, is encode() of its dict form,
    at every shard count (400 trials give 4 shards at --threads 4)."""
    _many_cpus(monkeypatch)
    body = encode(_old_report(range(11, 411), mode))
    for threads in ("1", "2", "4"):
        assert main(["--threads", threads, "ledger", "simulate", "--mode", mode,
                     "--trials", "400", "--seed", "11"]) == 0
        out = capsys.readouterr().out
        assert out.endswith(',"report":' + body + "}\n"), threads
    _assert_no_child_left()


def test_simulate_holds_its_report_about_once(tmp_path, monkeypatch):
    """Each shard builds its trials in one buffer and _run writes those
    buffers as they are: the traced peak of an in-process run with stdout a
    file is at most 1.25 times 1.13 bytes per byte written, the ratio
    measured with Python 3.11 (3.10, 3.12 and 3.13: 1.22-1.29).  Joining
    per-trial strings and copying the report into one document took 3.08."""
    import tracemalloc

    path = tmp_path / "out.json"
    argv = ["--threads", "1", "ledger", "simulate", "--mode", "genus-zero",
            "--trials", "5000", "--seed", "7"]
    with open(path, "w") as fh, monkeypatch.context() as m:
        m.setattr(sys, "stdout", fh)
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    size = path.stat().st_size
    assert code == 0 and size > 2_000_000
    assert peak <= 1.25 * 1.13 * size, (peak, size)


def test_emit_vectors_writes_them_from_the_tuples(tmp_path, monkeypatch):
    """count --emit-vectors encodes its vector tuples as they are, with no
    list copy of them, and lists them by key shell with no key kept per
    vector: the traced peak of an in-process run on the 113,081-point rank-3
    ball of G = I/900, stdout a file, is at most 14.0 bytes per byte written,
    1.25 times the worst measured (10.08-11.27 with Python 3.10-3.13; a
    sorted list of (key, vector) pairs took 15.99-16.56, and copying the
    vectors through jsonable 17.66-20.26)."""
    import tracemalloc

    gram = [["1/900" if i == j else "0" for j in range(3)] for i in range(3)]
    module = tmp_path / "ball.json"
    module.write_text(json.dumps({"rank": 3, "norm": {"type": "ellipsoid",
                                                      "gram": gram}}))
    path = tmp_path / "out.json"
    with open(path, "w") as fh, monkeypatch.context() as m:
        m.setattr(sys, "stdout", fh)
        tracemalloc.start()
        try:
            code = main(["count", "--module", str(module), "--emit-vectors"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    size = path.stat().st_size
    assert code == 0 and size > 1_000_000
    assert peak <= 14.0 * size, (peak, size)
    with open(path) as fh:
        report = json.load(fh)["report"]
    assert report["count"] == len(report["vectors"]) == 113081


def _hand_made_ledgers():
    """Ledgers whose reals print in every form: zero, minus zero, an
    exponent, a large float, a float with 13 digits and plain ints."""
    for v in (0.0, -0.0, 1e-7, 1e16, 123456789012.5, 0, 7):
        yield Ledger(2, 1, (LedgerStep(4, 3, v, v), LedgerStep(2, 1, v, 0.0)),
                     14 * v, "positive-genus")
        yield Ledger(0, 2, (LedgerStep(4, 6, 0.0, v),), v + 123456789012.5,
                     "genus-zero")
        yield Ledger(3, 1, (LedgerStep(6, 2, v, 0),), 13 * v,
                     "clifford-hyperelliptic")
        yield Ledger(3, 1, (LedgerStep(5, 3, 0, v),), v,
                     "clifford-nonhyperelliptic")


def test_trial_text_and_digest_match_their_oracles():
    for ledger in _hand_made_ledgers():
        chain, sumci = theorem_chain_check(ledger), sum_ci_bound(ledger)
        violated = _replaced(sumci, holds=False, verdict="violated")
        for reports in ((chain, sumci), (chain, violated)):
            want = encode({"ledger": ledger.to_json(), "theorem_chain":
                           reports[0], "sum_ci": reports[1]})
            assert _trial_text(ledger, *reports) == want, ledger
        blob = json.dumps(ledger.to_json(), sort_keys=True, separators=(",", ":"))
        assert ledger.digest() == hashlib.sha256(blob.encode()).hexdigest()[:16]


@pytest.mark.parametrize("call, starts", [("fork", 0), ("fork", 1),
                                          ("pipe", 0)])
def test_simulate_runs_the_shards_it_cannot_fork(capsys, monkeypatch, call,
                                                 starts):
    """When os.fork or os.pipe fails (say, at the process or file limit)
    after `starts` children, the other shards run in this process: the same
    stdout as --threads 1, and no child left."""
    _many_cpus(monkeypatch)
    real, started = getattr(os, call), []

    def until_the_limit():
        if len(started) == starts:
            raise OSError(errno.EAGAIN, f"{call} refused")
        started.append(call)
        return real()

    monkeypatch.setattr(os, call, until_the_limit)
    monkeypatch.delenv("LATMIN_TIMING", raising=False)
    argv, want = PINNED_STDOUT["positive-genus"]
    _assert_pinned(capsys, ["--threads", "4"] + argv, want)
    assert len(started) == starts
    _assert_no_child_left()


def test_simulate_reruns_the_shard_of_a_lost_child(capsys, monkeypatch):
    """A child that dies with no result (say, killed for memory) has its
    shard run again in the parent, with the same stdout."""
    _assert_child_failure_is_rerun(capsys, monkeypatch, lambda: os._exit(1))


def test_simulate_reruns_the_shard_of_a_child_that_raised(capsys, monkeypatch):
    """An error raised only in a child (say, MemoryError there) is no error
    of the run: its shard runs again in the parent, so the exit code and
    stdout are those of --threads 1."""
    def fail():
        raise MemoryError

    _assert_child_failure_is_rerun(capsys, monkeypatch, fail)


class _CutShort(io.BufferedWriter):
    """A child's end of its pipe that writes the line of its message whole,
    then half of the body, and leaves the process: a child killed or
    stopped mid-write."""

    def write(self, data):
        if len(data) < 64:  # the line "violations size\n"
            return super().write(data)
        super().write(memoryview(data)[:len(data) // 2])
        self.flush()
        os._exit(0)


def test_simulate_reruns_the_shard_of_a_cut_message(capsys, monkeypatch):
    """A message whose body is shorter than its line says is no result: the
    parent runs that shard again, so stdout and the exit code are those of
    --threads 1."""
    _many_cpus(monkeypatch)
    fdopen = os.fdopen

    def cut_writer(fd, mode="r", *args, **kwargs):  # a pipe's write end
        if mode == "wb":
            return _CutShort(io.FileIO(fd, "w"))
        return fdopen(fd, mode, *args, **kwargs)

    monkeypatch.setattr(os, "fdopen", cut_writer)
    monkeypatch.delenv("LATMIN_TIMING", raising=False)
    argv, want = PINNED_STDOUT["genus-zero"]
    _assert_pinned(capsys, ["--threads", "4"] + argv, want)
    _assert_no_child_left()


def _assert_child_failure_is_rerun(capsys, monkeypatch, fail):
    _many_cpus(monkeypatch)
    simulate, parent = ledger_mod.simulate_reduction, os.getpid()

    def fails_in_a_child(seed, mode):
        if os.getpid() != parent:
            fail()
        return simulate(seed, mode)

    monkeypatch.setattr(ledger_mod, "simulate_reduction", fails_in_a_child)
    monkeypatch.delenv("LATMIN_TIMING", raising=False)
    argv, want = PINNED_STDOUT["genus-zero"]
    _assert_pinned(capsys, ["--threads", "4"] + argv, want)
    _assert_no_child_left()


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
def test_shard_child_stops_once_its_parent_is_gone(tmp_path):
    """A shard's child whose parent is killed (so no `finally` reaps it)
    stops by itself, within 0.1 s of its timer."""
    pid_file = tmp_path / "child.pid"

    def shard(index):  # the child records its pid; both sides run forever
        if index:
            (tmp_path / "tmp").write_text(str(os.getpid()))
            os.replace(tmp_path / "tmp", pid_file)
        while True:
            time.sleep(0.01)

    parent = os.fork()
    if parent == 0:
        try:
            _run_forked(shard, [0, 1])
        finally:
            os._exit(1)
    child = None
    try:
        deadline = time.monotonic() + 30
        while not pid_file.exists():
            assert time.monotonic() < deadline, "the child never started"
            time.sleep(0.01)
        child = int(pid_file.read_text())
        os.kill(parent, signal.SIGKILL)
        os.waitpid(parent, 0)
        deadline = time.monotonic() + 5
        while _is_running(child):
            assert time.monotonic() < deadline, "the orphaned child still runs"
            time.sleep(0.01)
    finally:
        for pid in (parent, child):
            if pid is not None and _is_running(pid):
                os.kill(pid, signal.SIGKILL)


def _is_running(pid):
    """Not gone and not a zombie (an orphan is reaped by whoever adopts it)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] not in "ZX"
    except (FileNotFoundError, ProcessLookupError):
        return False


README_LEDGER = {"g": 2, "kappa": 1, "mode": "positive-genus", "L2_0": 20.0,
                 "steps": [{"d": 4, "r": 3, "c": 1.0, "slack": 2.0},
                           {"d": 2, "r": 2, "c": 0.0, "slack": 0.0}]}
INFEASIBLE_LEDGER = dict(LEDGER, steps=[{"d": 4, "r": 3, "c": 3.0, "slack": 0.0}])

# exit code and sha256 prefix of the stdout of `ledger eval --config
# config.json [--theorem T]`, pinned from the release that checked a ledger's
# feasibility and preconditions in theorem_chain_check
PINNED_EVAL = {
    "readme": (None, README_LEDGER, 0, "2fe4221311b5365e"),
    "genus-0": (None, dict(README_LEDGER, g=0), 2, "e3648ba16788b125"),
    "infeasible": (None, INFEASIBLE_LEDGER, 2, "636524b3c0f69232"),
    "kappa-2-d0-5": (None, dict(README_LEDGER, kappa=2, steps=[
        {"d": 5, "r": 3, "c": 1.0, "slack": 2.0}]), 2, "45e3963d481d01ae"),
    "genus-0-infeasible": (None, dict(INFEASIBLE_LEDGER, g=0), 2,
                           "636524b3c0f69232"),
    "bad-mode": (None, dict(README_LEDGER, mode="bogus"), 2, "2ed87a3704c66c58"),
    "genus-zero": (None, dict(README_LEDGER, g=0, mode="genus-zero", steps=[
        {"d": 4, "r": 5, "c": 1.0, "slack": 2.0},
        {"d": 2, "r": 3, "c": 0.0, "slack": 0.0}]), 0, "68c2d2801d7e0214"),
    "clifford": (None, dict(README_LEDGER, g=3, mode="clifford-hyperelliptic"),
                 0, "5af9fea67c3df820"),
    "B": ("B", {"g": 2, "d_circ": 2, "kappa": 1, "L2": 10.0}, 0,
          "ebe905dcc3c734c6"),
    "C": ("C", {"d_circ": 4, "kappa": 1, "eps": 1, "L2": 20.0}, 0,
          "4596509df5c05a8d"),
    "D": ("D", THEOREM_D, 0, "5801c86855342088"),
    "D-eps-3": ("D", dict(THEOREM_D, eps=3), 2, "51ba96b4c21456b8"),
    "D-omega2-negative": ("D", dict(THEOREM_D, omega2=-1.0), 2,
                          "855e60380539617a"),
    "E": ("E", THEOREM_E, 0, "6dd12a5c96752403"),
    "E-bad-split": ("E", dict(THEOREM_E, r1=2), 2, "da64370421f69e51"),
    "deg1": ("deg1", {"g": 1, "kappa": 2, "L2": 3.0}, 0, "2b21190adf8175ec"),
    "trivial": ("trivial", {"r_minus": 1, "deg_LQ": 2, "L2": 10.0}, 0,
                "bfd9533a9178e885"),
}


@pytest.mark.parametrize("theorem, cfg, code, want", PINNED_EVAL.values(),
                         ids=PINNED_EVAL.keys())
def test_ledger_eval_is_pinned(capsys, monkeypatch, tmp_path, theorem, cfg,
                               code, want):
    monkeypatch.delenv("LATMIN_TIMING", raising=False)
    monkeypatch.chdir(tmp_path)  # the config path is part of the output
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    argv = ["ledger", "eval", "--config", "config.json"]
    assert main(argv + (["--theorem", theorem] if theorem else [])) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == want


# sha256 prefixes of the stdout of corpus commands: three rank-5 runs pinned
# from the release before the compiled norm became the validator, and CI's
# rank-8 run (a few seconds), whose minima and volumes do the most work
PINNED_VERIFY = {f"seed-{seed}": (["verify", "--max-rank", "5", "--trials", "6",
                                   "--seed", str(seed)], want)
                 for seed, want in ((0, "01d4b95842f82c69"), (1, "b7885099572b8171"),
                                    (2, "0f05bc8bdc57f4ad"))}
PINNED_VERIFY["rank-8-seed-3"] = (["verify", "--max-rank", "8", "--trials", "40",
                                   "--seed", "3"], "2e9be8d5653eb879")


@pytest.mark.parametrize("argv, want", PINNED_VERIFY.values(), ids=PINNED_VERIFY.keys())
def test_verify_stdout_is_pinned(capsys, monkeypatch, argv, want):
    monkeypatch.delenv("LATMIN_TIMING", raising=False)
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == want


BOX = {"rank": 2, "norm": {"type": "polymax", "functionals": [[1, 0], [0, 2]]}}

# exit code and sha256 prefix of the stdout of count, minima and chi on the
# unit disk and on the box |x| <= 1, |2y| <= 1, each from a fresh process
# (cold caches), pinned from the release whose subcommands set their own
# budget and printed their own document; with the error documents of a bad
# budget and of bad verify arguments (pinned when verify took a config record)
PINNED_MODULE = {
    "count-disk": (["count", "--module", "disk.json"], 0, "17fa198305392ad3"),
    "count-disk-strict": (["count", "--module", "disk.json", "--strict"], 0,
                          "9c5e8a8de2e6d40b"),
    "count-disk-vectors": (["count", "--module", "disk.json", "--emit-vectors"], 0,
                           "9389764c4cac1c85"),
    "count-disk-budget-7": (["count", "--module", "disk.json", "--budget", "7"], 3,
                            "f6a9fce97f3a8b9b"),
    "minima-disk": (["minima", "--module", "disk.json"], 0, "8ad8a3838988dc5c"),
    "chi-disk": (["chi", "--module", "disk.json"], 0, "4b674b0c750139d5"),
    "count-box": (["count", "--module", "box.json"], 0, "f77c4977a508c7d4"),
    "count-box-strict": (["count", "--module", "box.json", "--strict"], 0,
                         "9d28749ea8b941c6"),
    "count-box-vectors": (["count", "--module", "box.json", "--emit-vectors"], 0,
                          "e405e4be2001d2d4"),
    "count-box-budget-7": (["count", "--module", "box.json", "--budget", "7"], 0,
                           "6046a847f47e4156"),
    "minima-box": (["minima", "--module", "box.json"], 0, "c5c090d0037751de"),
    "minima-box-budget-15": (["minima", "--module", "box.json", "--budget", "15"],
                             0, "599d58e369fd1bc4"),
    "chi-box": (["chi", "--module", "box.json"], 0, "fdcd273079ae2417"),
    "count-budget-negative": (["count", "--module", "disk.json", "--budget", "-1"],
                              2, "71f4f1df1c61f210"),
    "minima-budget-negative": (["minima", "--module", "disk.json", "--budget", "-1"],
                               2, "aebe4aa991e2b2b2"),
    "verify-budget-negative": (["verify", "--budget", "-1"], 2, "7ad71c78346ce3a7"),
    "verify-trials-0": (["verify", "--trials", "0"], 2, "86dcdd143b36f631"),
    "verify-seed-negative": (["verify", "--seed", "-1"], 2, "c63ff03bcc6665e3"),
    "verify-max-rank-9": (["verify", "--max-rank", "9"], 2, "3774e7729233e65c"),
}


@pytest.mark.parametrize("argv, code, want", PINNED_MODULE.values(),
                         ids=PINNED_MODULE.keys())
def test_module_stdout_is_pinned(tmp_path, argv, code, want):
    """The config holds the budget of count and minima, also under
    --budget, and a negative budget is a ConfigError on all three."""
    (tmp_path / "disk.json").write_text(json.dumps({"rank": 2, "norm": DISK_NORM}))
    (tmp_path / "box.json").write_text(json.dumps(BOX))
    out = _run(argv, cwd=tmp_path)  # the module path is part of the output
    assert out.returncode == code, out.stderr
    assert hashlib.sha256(out.stdout).hexdigest()[:16] == want
    doc = json.loads(out.stdout)
    if code == 2:
        assert doc["error"]["type"] == "ConfigError"
    elif code == 0 and argv[0] != "chi":
        budget = int(argv[-1]) if "--budget" in argv else enumeration.DEFAULT_BUDGET
        assert doc["manifest"]["config"]["budget"] == budget


@pytest.mark.parametrize("argv", [
    ["count", "--module", "MODULE"],
    ["minima", "--module", "MODULE", "--budget", "100"],
    ["verify", "--trials", "2", "--seed", "1"],
    ["ledger", "sweep", "--g-max", "3", "--kappa-max", "2"],
], ids=["count", "minima", "verify", "ledger-sweep"])
def test_timing_adds_only_the_duration(capsys, monkeypatch, tmp_path, argv):
    """LATMIN_TIMING adds manifest.duration_s, a 12-significant-digit
    count of seconds, and changes no other byte of the document."""
    argv = [write_disk2(tmp_path) if a == "MODULE" else a for a in argv]
    monkeypatch.delenv("LATMIN_TIMING", raising=False)
    code, plain = run_main(capsys, argv)
    monkeypatch.setenv("LATMIN_TIMING", "1")
    assert main(argv) == code == 0
    timed = json.loads(capsys.readouterr().out)
    duration = timed["manifest"].pop("duration_s")
    assert duration == fmt_real(float(duration)) and float(duration) >= 0
    assert timed == plain


def test_timing_leaves_an_error_document_as_it_is(capsys, monkeypatch):
    """An error document has no duration: with LATMIN_TIMING set it is the
    same bytes, with the same exit code."""
    argv = ["count", "--module", "/no/such/file.json"]
    monkeypatch.delenv("LATMIN_TIMING", raising=False)
    assert main(argv) == 2
    plain = capsys.readouterr().out
    assert json.loads(plain)["error"]["type"] == "FileNotFoundError"
    monkeypatch.setenv("LATMIN_TIMING", "1")
    assert main(argv) == 2
    assert capsys.readouterr().out == plain


def _closed_pipe():
    """The write end of a pipe whose read end is already closed."""
    r, w = os.pipe()
    os.close(r)
    return w


@pytest.mark.parametrize("argv", [
    ["verify", "--trials", "3"],
    ["count", "--module", "disk.json"],
    ["count", "--module", "missing.json"],
    ["--threads", "2", "ledger", "simulate", "--mode", "genus-zero",
     "--trials", "300"],
], ids=["verify", "count", "error-document", "forked-simulate"])
@pytest.mark.parametrize("sink", ["closed-pipe", "dev-full", "closed-fd"])
def test_unwritable_stdout_exits_4(tmp_path, argv, sink):
    """A document that stdout cannot take is no bad input and no crash:
    exit 4, one line on stderr, no traceback and no second document.  So is
    a run started with file descriptor 1 closed (`>&-`), where there is no
    stdout at all."""
    if sink == "dev-full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    (tmp_path / "disk.json").write_text(json.dumps({"rank": 2, "norm": DISK_NORM}))
    if sink == "closed-fd":
        out = _run(argv, cwd=tmp_path, stdout=None,
                   preexec_fn=lambda: os.close(1))
    else:
        fd = (_closed_pipe() if sink == "closed-pipe"
              else os.open("/dev/full", os.O_WRONLY))
        try:
            out = _run(argv, cwd=tmp_path, stdout=fd)
        finally:
            os.close(fd)
    err = out.stderr.decode()
    assert out.returncode == 4, err
    assert err.startswith("latmin: cannot write to stdout: ")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err and "Exception ignored" not in err
