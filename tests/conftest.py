"""Shared test plumbing: per-criterion pass/fail reporting, a run of a
library call under an enumeration budget, a run of the CLI in a fresh
process, and the processes a run left behind."""

import collections
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


# a fresh process's pid (its session id, when it was started in a session
# of its own), exit code, stdout and stderr
Run = collections.namedtuple("Run", "pid returncode stdout stderr")


def run_latmin(argv, code=None, flags=(), env=None, stdout=subprocess.PIPE,
               input=None, timeout=None, **popen):
    """`python -m latmin.cli argv` in a fresh process, or `python -c code
    argv` (sys.argv[1:] is then argv), with this latmin first on its path
    and stderr captured.  LATMIN_TIMING and PYTHONUNBUFFERED are not passed
    on, so stdout is the pinned bytes, block-buffered as by default; `flags`
    go to the interpreter, `env` adds variables, `input` and `timeout` are
    those of subprocess.run, and `popen` goes to subprocess.Popen (cwd,
    start_new_session, preexec_fn, ...).  Returns its Run."""
    child = {k: v for k, v in os.environ.items()
             if k not in ("LATMIN_TIMING", "PYTHONUNBUFFERED")}
    child.update(PYTHONPATH=SRC, **(env or {}))
    entry = ["-m", "latmin.cli"] if code is None else ["-c", code]
    with subprocess.Popen([sys.executable, *flags, *entry, *argv],
                          stdin=None if input is None else subprocess.PIPE,
                          stdout=stdout, stderr=subprocess.PIPE, env=child,
                          **popen) as proc:
        try:
            out, err = proc.communicate(input, timeout)
        finally:
            proc.kill()  # nothing once it has been reaped
    return Run(proc.pid, proc.returncode, out, err)


def session_left(sid):
    """The pids of the live processes (zombies aside) in session `sid`, read
    from /proc: what a run started with start_new_session=True, whose pid
    is its session id, left running once it has exited."""
    left = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/stat") as fh:
                # the fields after the command name: state, ppid, pgrp, session
                state, _, _, session = fh.read().rsplit(")", 1)[1].split()[:4]
        except OSError:  # gone since the listing
            continue
        if session == str(sid) and state not in ("Z", "X"):
            left.append(int(pid))
    return left


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(ACCEPTANCE_RESULTS):
        desc, ok = ACCEPTANCE_RESULTS[n]
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {n}: {status} - {desc}")
