"""End-to-end benchmark of the latmin CLI.

    python3 perfbench/run.py --workload {corpus,count,ledger} [--seed N]
                             [--seconds S] [--trace {0,1}]

Run from the root of a source checkout (the directory holding src/latmin).
One closed-loop client runs the workload's op list one op at a time, each op
a fresh `python -m latmin.cli` process, as a CLI user runs it.  With
--trace 0 the list runs in workloads.ROUNDS rounds, each in its own seeded
order, and the end-to-end metrics are taken over all executions.  With --trace 1 it runs
once, each op untraced and then under perfbench/traced_cli.py, and the
metrics are the per-layer ones.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The line before it records
the environment and the details behind the metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SETUP_EVERY = 3       # probes before every SETUP_EVERY-th execution
# The speed probe: a fresh interpreter doing fixed pure-Python work that
# never touches latmin.  On a shared 2-vCPU Xeon VM the speed drifts by up to
# 50% over minutes, as other tenants load the host, and every op slows with
# it.  The time metrics are scaled to the speed at which the probe takes
# REF_PROBE_S, its median time in a quiet spell there; the raw values are in
# the detail line.
SPEED_PROBE = """\
import json
from fractions import Fraction
rows = [[Fraction(i * j % 97, 1 + j) for j in range(12)] for i in range(2000)]
json.dumps([[str(x) for x in row] for row in rows])
"""
REF_PROBE_S = 0.09
OP_TIMEOUT_S = 120
RUN_DEADLINE_S = 150  # executions not started by then count as failed
MIN_EXECUTIONS = 11   # op_tail_s needs at least 10 executions beyond it


@dataclass
class Row:
    """One execution of op `op` in round `round`: what it cost, where its
    output went, the items it completed and why it failed (None if it did
    not)."""
    op: int = 0
    round: int = 0
    wall: float = 0.0
    rss_mb: float = 0.0
    code: Optional[int] = None
    out: Optional[Path] = None
    spans: Optional[Path] = None
    items: int = 0
    reason: Optional[str] = None
    digest: Optional[str] = None
    output_bytes: int = 0


def spawn(argv, out: Path) -> Row:
    """Run argv to completion; wall time and peak RSS come from wait4.

    The kernel charges a child the peak RSS of the process that forked it,
    so nothing large is held here while ops run: outputs go to files and are
    read after the last op has ended.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("LATMIN_") and k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(ROOT / "src")
    with open(out, "wb") as fh_out, open(out.with_suffix(".err"), "wb") as fh_err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh_out, stderr=fh_err, env=env,
                                cwd=ROOT)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    return Row(wall=wall, rss_mb=usage.ru_maxrss / 1024,
               code=proc.returncode, out=out)


def cli_argv(args, threads: int, spans: Optional[Path] = None):
    if spans is None:
        head = [sys.executable, "-m", "latmin.cli"]
    else:
        head = [sys.executable, str(HERE / "traced_cli.py"), str(spans)]
    return head + ["--threads", str(threads)] + args


def schedule(n_ops: int, rounds: int, seed: int):
    """(op, round) pairs: every op once per round, each round in its own
    seeded order, so an op's executions fall at different times of the run."""
    rng = random.Random(f"rounds:{seed}")
    order = []
    for r in range(rounds):
        ks = list(range(n_ops))
        rng.shuffle(ks)
        order += [(k, r) for k in ks]
    return order


def run_ops(ops, order, threads: int, workdir: Path, started: float,
            probes: Optional[list] = None, traced=False):
    """Run the (op, round) executions one after another, each once its
    predecessor has ended.

    With a `probes` list, a set-up probe and a speed probe are timed before
    every SETUP_EVERY-th execution, so both sample the whole run; each adds
    a (set-up seconds, speed-probe seconds) pair.  With `traced`,
    each op is run again under traced_cli.py right after its untraced run, so
    both see the same machine state.  Returns the untraced and the traced
    rows.
    """
    rows, traced_rows = [], []
    for i, (k, r) in enumerate(order):
        if time.perf_counter() - started > RUN_DEADLINE_S:
            for out in (rows, traced_rows) if traced else (rows,):
                out.append(Row(op=k, round=r,
                               reason="not started: run deadline passed"))
            continue
        if probes is not None and i % SETUP_EVERY == 0:
            probes.append((time_import(workdir), time_speed_probe(workdir)))
        row = spawn(cli_argv(ops[k].args, threads), workdir / f"op{k}r{r}.out")
        row.op, row.round = k, r
        rows.append(row)
        if traced:
            # single-threaded, so all spans of an op are in one process
            spans = workdir / f"op{k}r{r}.spans"
            row = spawn(cli_argv(ops[k].args, 1, spans),
                        workdir / f"traced{k}r{r}.out")
            row.op, row.round, row.spans = k, r, spans
            traced_rows.append(row)
    return rows, traced_rows


def judge(ops, rows: List[Row]) -> None:
    """Check each execution's output; sets items, digest and reason on its
    row."""
    for row in rows:
        op = ops[row.op]
        if row.reason:
            continue
        if row.code != 0:
            err = row.out.with_suffix(".err").read_text(errors="replace")
            row.reason = f"exit code {row.code} {err.strip().splitlines()[-1:]}"
            continue
        text = row.out.read_bytes()
        row.output_bytes = len(text)
        try:
            doc = json.loads(text)
            row.digest = doc["manifest"]["result_digest"]
            row.items = op.check(doc["report"])
        except ValueError:
            row.reason = "stdout is not a single JSON document"
        except (workloads.OpFailed, KeyError, TypeError) as exc:
            row.reason = f"{type(exc).__name__}: {exc}"
    workloads.check_count_pairs(ops, rows)
    for row in rows:
        if row.reason:
            row.items = 0


def items_per_s(rows: List[Row]) -> float:
    wall = sum(r.wall for r in rows)
    return sum(r.items for r in rows) / wall if wall else 0.0


def tail_index(n: int) -> int:
    """Index into sorted execution times of the highest percentile with at
    least 10 executions beyond it."""
    return max(n - 11, 0)


def e2e_metrics(rows: List[Row], setup_s: float, slowdown: float) -> dict:
    """The e2e metrics.  Times are divided by `slowdown` and items_per_s is
    multiplied by it, so they read as at the reference speed."""
    walls = [r.wall for r in rows if r.code is not None]
    return {
        "items_per_s": (items_per_s(rows) * slowdown, "1/s"),
        "op_p50_s": (statistics.median(walls) / slowdown, "s"),
        "op_tail_s": (sorted(walls)[tail_index(len(walls))] / slowdown, "s"),
        "peak_rss_mb": (max(r.rss_mb for r in rows), "MB"),
        "setup_s": (setup_s / slowdown, "s"),
        "ok_frac": (sum(r.reason is None for r in rows) / len(rows), "ratio"),
    }


def trace_metrics(plain: List[Row], traced: List[Row]) -> dict:
    """Per-layer metrics.  A traced op also fails if its untraced twin
    failed, printed another result_digest, or its span counts disagree with
    the lru caches' counts."""
    totals = layers.LayerTotals()
    missing = set()
    for p, t in zip(plain, traced):
        if t.reason is None and p.reason:
            t.reason = p.reason
        elif t.reason is None and p.digest != t.digest:
            t.reason = "traced result_digest differs from the untraced one"
        if t.reason is None:
            trace = json.loads(t.spans.read_text())
            missing.update(trace["missing"])
            try:
                layers.check_cache_counts(trace)
                totals.add(trace, t.output_bytes)
            except layers.SpanMismatch as exc:
                t.reason = str(exc)
        if t.reason:
            t.items = 0
    if missing:
        print(f"not traced, absent from latmin: {sorted(missing)}", file=sys.stderr)
    ratio = items_per_s(traced) / items_per_s(plain) if items_per_s(plain) else 0.0
    return totals.metrics(ratio)


def time_import(workdir: Path) -> float:
    """Seconds from spawning the interpreter to latmin.cli imported."""
    row = spawn([sys.executable, "-c", "import latmin.cli"], workdir / "setup.out")
    if row.code != 0:
        err = row.out.with_suffix(".err").read_text(errors="replace")
        raise RuntimeError(f"cannot import latmin.cli: {err[-500:]}")
    return row.wall


def time_speed_probe(workdir: Path) -> float:
    """Seconds from spawning the interpreter to the end of SPEED_PROBE."""
    row = spawn([sys.executable, "-c", SPEED_PROBE], workdir / "speed.out")
    if row.code != 0:
        raise RuntimeError(f"speed probe exited with code {row.code}")
    return row.wall


def environment(args, n_ops: int, n_executions: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = out.stdout.strip() or None
    try:
        mpmath_version = importlib.metadata.version("mpmath")
    except importlib.metadata.PackageNotFoundError:
        mpmath_version = None
    return {
        "python": platform.python_version(),
        "mpmath": mpmath_version,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git_commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "ops": n_ops,
        "executions": n_executions,
        "op_tail_percentile": round(
            100 * max(n_executions - 10, 1) / n_executions, 2),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "latmin" / "cli.py").is_file():
        print(f"no latmin source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    started = time.perf_counter()
    threads = min(2, os.cpu_count() or 1)
    # a traced run runs each op of the same list once untraced, once traced
    e2e_rounds = workloads.ROUNDS[args.workload]
    rounds = 1 if args.trace else e2e_rounds
    n_ops = max(round(args.seconds * workloads.OPS_PER_SECOND / e2e_rounds),
                -(-MIN_EXECUTIONS // rounds))
    reference = json.loads((HERE / "reference_counts.json").read_text())
    (HERE / "_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=HERE / "_work"))
    try:
        ops = workloads.build(args.workload, args.seed, n_ops, workdir, reference)
        order = schedule(len(ops), rounds, args.seed)
        probes = None if args.trace else []
        try:
            # the first import after a fresh checkout compiles bytecode
            time_import(workdir)
            rows, traced = run_ops(ops, order, threads, workdir, started,
                                   probes, bool(args.trace))
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 2
        judge(ops, rows)
        detail = {"env": environment(args, len(ops), len(rows))}
        if args.trace:
            judge(ops, traced)
            metrics = trace_metrics(rows, traced)
            rows = traced
        else:
            setup_s = statistics.median(s for s, _ in probes)
            slowdown = statistics.median(p for _, p in probes) / REF_PROBE_S
            e2e = e2e_metrics(rows, setup_s, slowdown)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
            detail["slowdown"] = slowdown
            detail["raw"] = {k: v for k, (v, _) in
                             e2e_metrics(rows, setup_s, 1.0).items()}
            # per op, its executions' wall times in round order
            walls = [[0.0] * rounds for _ in ops]
            for r in rows:
                walls[r.op][r.round] = round(r.wall, 4)
            detail["op_wall_s"] = walls
            detail["op_peak_rss_mb"] = [round(r.rss_mb, 1) for r in rows]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures = [(ops[row.op].args, row.reason) for row in rows if row.reason]
    for op_args, reason in failures:
        print(f"FAILED {' '.join(op_args)}: {reason}", file=sys.stderr)
    detail["failed_frac"] = len(failures) / len(rows)
    print(json.dumps(detail))
    print(json.dumps({"correct": not failures, "attempted": len(rows),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
