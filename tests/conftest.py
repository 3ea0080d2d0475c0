"""Shared test plumbing: per-criterion pass/fail reporting, and a run of a
library call under an enumeration budget."""

import contextvars

from latmin.enumeration import BUDGET

# test_acceptance records one entry per criterion: n -> (description, passed)
ACCEPTANCE_RESULTS = {}


def with_budget(budget, fn, *args):
    """fn(*args) with every walk charged to `budget`, in a copy of the
    current context, as the CLI runs a subcommand: the budget ends with it."""
    def run():
        BUDGET.set(budget)
        return fn(*args)
    return contextvars.copy_context().run(run)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(ACCEPTANCE_RESULTS):
        desc, ok = ACCEPTANCE_RESULTS[n]
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {n}: {status} - {desc}")
