"""Recompute reference_counts.json: the closed and strict lattice-point
counts of the count workload's modules for the default seed.

    python3 perfbench/make_reference.py

Run it from a checkout whose counts are known to be right; the benchmark
then fails any count op of the default seed that disagrees.
"""

import json
import shutil
import tempfile
import time
from pathlib import Path

import run
import workloads

SEED = 0
N_MODULES = 15  # the modules of a run of up to 60 s


def main():
    (run.HERE / "_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=run.HERE / "_work"))
    try:
        ops = workloads.count_ops(SEED, 2 * N_MODULES, workdir, None)
        order = [(k, 0) for k in range(len(ops))]
        rows, _ = run.run_ops(ops, order, 1, workdir, time.perf_counter())
        run.judge(ops, rows)
    finally:
        shutil.rmtree(workdir)
    failed = [row.reason for row in rows if row.reason]
    if failed:
        raise SystemExit(f"count ops failed: {failed}")
    # a passing count op's items are the count it printed
    counts = [[rows[i].items, rows[i + 1].items] for i in range(0, len(rows), 2)]
    path = run.HERE / "reference_counts.json"
    path.write_text(json.dumps({str(SEED): counts}) + "\n")


if __name__ == "__main__":
    main()
