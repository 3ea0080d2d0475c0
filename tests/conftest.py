"""Shared test plumbing: per-criterion pass/fail reporting, a run of a
library call under an enumeration budget, and a run of the CLI in a fresh
process."""

import contextvars
import os
import subprocess
import sys

import latmin
from latmin.enumeration import BUDGET

SRC = os.path.dirname(os.path.dirname(latmin.__file__))

# test_acceptance records one entry per criterion: n -> (description, passed)
ACCEPTANCE_RESULTS = {}


def with_budget(budget, fn, *args):
    """fn(*args) with every walk charged to `budget`, in a copy of the
    current context, as the CLI runs a subcommand: the budget ends with it."""
    def run():
        BUDGET.set(budget)
        return fn(*args)
    return contextvars.copy_context().run(run)


def run_latmin(argv, code=None, flags=(), env=None, stdout=subprocess.PIPE,
               **popen):
    """`python -m latmin.cli argv` in a fresh process, or `python -c code
    argv` (sys.argv[1:] is then argv), with this latmin first on its path
    and stderr captured.  LATMIN_TIMING and PYTHONUNBUFFERED are not passed
    on, so stdout is the pinned bytes, block-buffered as by default; `flags`
    go to the interpreter, `env` adds variables, and `popen` goes to
    subprocess.run (cwd, timeout, preexec_fn, ...)."""
    child = {k: v for k, v in os.environ.items()
             if k not in ("LATMIN_TIMING", "PYTHONUNBUFFERED")}
    child.update(PYTHONPATH=SRC, **(env or {}))
    entry = ["-m", "latmin.cli"] if code is None else ["-c", code]
    return subprocess.run([sys.executable, *flags, *entry, *argv], stdout=stdout,
                          stderr=subprocess.PIPE, env=child, **popen)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(ACCEPTANCE_RESULTS):
        desc, ok = ACCEPTANCE_RESULTS[n]
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {n}: {status} - {desc}")
