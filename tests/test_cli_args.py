"""The command line: parse_args reads COMMANDS as argparse read the parser
that it replaced, and a usage error or -h ends the process cleanly."""

import argparse
import os
import shlex

import pytest

from conftest import run_latmin
from latmin import cli
from latmin.cli import COMMANDS, main, parse_args


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of the CLI before its option table: the oracle."""
    parser = argparse.ArgumentParser(prog="latmin",
                                     description="normed lattice toolkit")
    parser.add_argument("--threads", type=int, default=1)
    sub = parser.add_subparsers(dest="command", required=True)
    module = argparse.ArgumentParser(add_help=False)
    module.add_argument("--module", required=True)
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--budget", type=int)
    p = sub.add_parser("count", parents=[module, budget])
    p.add_argument("--strict", action="store_true")
    p.add_argument("--emit-vectors", action="store_true")
    p.set_defaults(func=cli.cmd_count)
    p = sub.add_parser("minima", parents=[module, budget])
    p.set_defaults(func=cli.cmd_minima)
    p = sub.add_parser("chi", parents=[module])
    p.set_defaults(func=cli.cmd_chi)
    p = sub.add_parser("verify", parents=[budget])
    p.add_argument("--suite", default="counting")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-rank", type=int, default=3)
    p.set_defaults(func=cli.cmd_verify)
    p = sub.add_parser("ledger")
    lsub = p.add_subparsers(dest="ledger_cmd", required=True)
    p = lsub.add_parser("eval")
    p.add_argument("--config", required=True)
    p.add_argument("--theorem", choices=["B", "C", "D", "E", "deg1", "trivial"])
    p.set_defaults(func=cli.cmd_ledger_eval)
    p = lsub.add_parser("sweep")
    p.add_argument("--g-max", type=int, default=1000)
    p.add_argument("--kappa-max", type=int, default=50)
    p.set_defaults(func=cli.cmd_ledger_sweep)
    p = lsub.add_parser("simulate")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", required=True)
    p.add_argument("--trials", type=int, default=10)
    p.set_defaults(func=cli.cmd_ledger_simulate)
    return parser


VALID = [
    "count --module m.json",
    "count --module=m.json",
    "count --mod m.json",
    "count --m=m.json --str",
    "count --module a.json --module b.json",
    "count --strict --emit-vectors --module m.json --strict",
    "count --module m.json --budget 50",
    "count --module m.json --bud=-1",
    "count --module -3 --budget -0",
    "count --module - --e",
    "count --module 'a b'",
    "count --module=--x=y",
    "count --budget 1 --budget 2 --module m.json",
    "--threads 2 count --module m.json",
    "--threads=3 count --module m.json",
    "--thr 0 count --module m.json",
    "--threads -5 --threads 4 count --module m.json",
    "minima --module m.json",
    "minima --module m.json --budget 1000",
    "chi --module m.json",
    "chi --mo=x",
    "verify",
    "verify --trials 6 --seed 3 --max-rank 5",
    "verify --seed -3 --trials=0",
    "verify --su other --se 1 --tr 2 --max 4 --b 9",
    "verify --suite=counting --suite counting2",
    "verify --max-rank=8 --trials 40 --seed 3 --budget 100",
    "verify --trials 1_000",
    "ledger eval --config c.json",
    "ledger eval --config c.json --theorem B",
    "ledger eval --theorem=deg1 --c c.json",
    "ledger eval --config c.json --theorem trivial --theorem E",
    "ledger sweep",
    "ledger sweep --g-max 2 --kappa-max 1",
    "ledger sweep --g 5 --k=2",
    "ledger simulate --mode genus-zero",
    "ledger simulate --mode genus-zero --trials 300 --seed -1",
    "--threads 2 ledger simulate --mo positive-genus --tr=2500 --s 7",
    "ledger simulate --mode=-x --trials -3",
    "ledger simulate --mode m --seed 1 --seed 2 --trials 5 --trials 6",
]


@pytest.mark.parametrize("line", VALID)
def test_parse_args_matches_the_argparse_oracle(line):
    argv = shlex.split(line)
    want = vars(build_parser().parse_args(argv))
    got = parse_args(argv)
    assert vars(got) == want
    assert ("budget" in got) == (got.command in ("count", "minima", "verify"))


@pytest.mark.parametrize("argv", [
    [], ["no-such-command"], ["count"], ["count", "--module"],
    ["count", "--module", "m", "--strict=1"], ["count", "--module", "m", "extra"],
    ["count", "--module", "m", "--threads", "2"],
    ["verify", "--trials", "x"], ["verify", "--s", "1"], ["verify", "--seed", "-1e3"],
    ["ledger"], ["ledger", "run"], ["ledger", "eval", "--config", "c", "--theorem", "Z"],
    ["ledger", "simulate"], ["--threads", "x", "verify"], ["--bogus", "verify"],
    ["-x", "verify"],
])
def test_usage_errors_agree_with_argparse(capsys, argv):
    """Each usage error of the oracle is one here: exit 2, nothing on
    stdout, the usage line and one error line on stderr."""
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 2 and lines[0].startswith("usage: latmin ")
    assert lines[1].startswith("latmin: error: "), err


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["--he"], ["count", "-h"],
                                  ["ledger", "--help"], ["verify", "--h"],
                                  ["ledger", "simulate", "-h"]])
def test_help_prints_the_usage_of_every_subcommand(capsys, argv):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.startswith("usage: latmin ")
    for name in COMMANDS:
        assert f"  latmin [--threads N] {name}" in out


@pytest.mark.parametrize("argv,code", [
    (["--help"], 0), (["count"], 2), (["no-such-command"], 2),
    (["count", "--module", "m.json", "--threads", "2"], 2),
    (["ledger", "eval", "--config", "c.json", "--theorem", "Z"], 2),
    (["verify", "--trials", "x"], 2),
])
def test_usage_in_a_fresh_process(argv, code):
    out = run_latmin(argv)
    err = out.stderr.decode()
    assert out.returncode == code, err
    assert "Traceback" not in err
    if code:
        assert out.stdout == b""
        assert any(line.startswith("latmin: error: ") for line in err.splitlines()), err
    else:
        assert out.stdout.startswith(b"usage: latmin ") and err == ""


def test_the_readme_shows_the_usage_text(capsys):
    """The README's CLI section quotes `latmin --help` as it prints."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md")) as fh:
        readme = fh.read()
    quoted = readme.split("```text\nusage: latmin", 1)[1].split("```", 1)[0]
    assert main(["--help"]) == 0
    assert capsys.readouterr().out == "usage: latmin" + quoted
