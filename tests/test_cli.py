"""CLI behaviour: JSON output, exit codes, determinism."""

import json
import subprocess
import sys

import pytest

from latmin.cli import main


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
    code, doc = run_main(capsys, ["count", "--module", write_disk2(tmp_path),
                                  "--emit-vectors", "--strict"])
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
], ids=["module-directory", "ledger-directory", "module-not-utf8"])
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


@pytest.mark.parametrize("argv, doc", [
    (["count"], {"rank": 1, "norm": {"type": "ellipsoid", "gram": [["x"]]}}),
    (["count"], {"rank": 1, "norm": {"type": "polymax", "functionals": [["1/0"]]}}),
    (["count"], {"rank": "two", "norm": DISK_NORM}),
    (["count"], {"rank": 2.5, "norm": DISK_NORM}),
    (["count"], {"rank": "2.5", "norm": DISK_NORM}),
    (["count"], {"rank": True, "norm": {"type": "ellipsoid", "gram": [["1/1"]]}}),
    (["count"], [1, 2]),
    (["ledger", "eval", "--theorem", "B"],
     {"g": "x", "d_circ": 2, "kappa": 1, "L2": 10.0}),
], ids=["bad-literal", "zero-denominator", "bad-rank", "fractional-rank",
        "fractional-rank-string", "boolean-rank", "not-an-object",
        "bad-theorem-field"])
def test_malformed_input_exits_2(capsys, tmp_path, argv, doc):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    flag = "--config" if argv[0] == "ledger" else "--module"
    code, out = run_main(capsys, argv + [flag, str(path)])
    assert code == 2
    assert out["error"]["type"] == "ConfigError"


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
    code, doc = run_main(capsys, ["count", "--module", str(path),
                                  "--budget", "50"])
    assert code == 3
    assert doc["error"]["type"] == "EnumerationBudgetExceeded"


def test_zero_budget_exits_3(capsys, tmp_path):
    code, doc = run_main(capsys, ["count", "--module", write_disk2(tmp_path),
                                  "--budget", "0"])
    assert code == 3
    assert doc["error"]["type"] == "EnumerationBudgetExceeded"


def test_negative_budget_exits_2(capsys, tmp_path):
    code, doc = run_main(capsys, ["count", "--module", write_disk2(tmp_path),
                                  "--budget", "-1"])
    assert code == 2
    assert doc["error"]["type"] == "ConfigError"


def test_bad_usage_exits_2(capsys):
    assert main(["no-such-command"]) == 2
    assert main([]) == 2


def _run(argv, env_extra=None):
    import os

    env = dict(os.environ)
    env.pop("LATMIN_TIMING", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "latmin.cli"] + argv,
                          capture_output=True, env=env)


def test_subprocess_output_byte_identical(tmp_path):
    cfg = write_ledger(tmp_path, [{"d": 4, "r": 3, "c": 1.0, "slack": 2.0}])
    argv = ["ledger", "eval", "--config", cfg]
    a = _run(argv)
    b = _run(argv)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_env_budget_respected(tmp_path):
    path = write_disk2(tmp_path)
    out = _run(["count", "--module", path], {"LATMIN_BUDGET": "3"})
    assert out.returncode == 3


def test_non_integer_env_budget_exits_2(tmp_path):
    out = _run(["count", "--module", write_disk2(tmp_path)],
               {"LATMIN_BUDGET": "x"})
    assert out.returncode == 2
    assert json.loads(out.stdout)["error"]["type"] == "ConfigError"
    assert out.stderr == b""
