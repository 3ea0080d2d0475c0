"""Op lists and correctness checks for the three benchmark workloads.

Each workload turns (seed, op count) into a list of `Op`s: the arguments of
one `latmin` CLI call plus a check that reads the call's JSON output and
returns the number of work items it completed.  A check raises `OpFailed` on
a wrong answer.  Nothing here imports latmin: the library is only reached
through the CLI, as a user would reach it.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, List, Optional

WORKLOADS = ("corpus", "count", "ledger")

# op executions per second of a run, set-up probes included, calibrated on
# a 2-vCPU Xeon (one op averages about 0.75 s there); run.py sizes every op
# list as OPS_PER_SECOND * --seconds / ROUNDS[workload] ops
OPS_PER_SECOND = 1.2
# An untraced run executes its op list this many times, each round in its
# own order, so the latency percentiles average each op over the run's slow
# and fast spells.  corpus op costs are heavy-tailed (0.2 s to 1.7 s), so its
# percentiles fall between ops; it trades a round for more distinct ops,
# which fill those gaps.
ROUNDS = {"corpus": 2, "count": 3, "ledger": 3}

# corpus: `verify --trials` per op
CORPUS_TRIALS = 6
# count: box candidates (prod of 2 B_k + 1) the enumeration scans per module
COUNT_CANDIDATES = 75_000
# ledger: `simulate --trials` per op; a sweep op every SWEEP_EVERY ops
LEDGER_TRIALS = 2500
SWEEP_EVERY = 5
LEDGER_MODES = ("positive-genus", "genus-zero", "clifford-hyperelliptic",
                "clifford-nonhyperelliptic")


class OpFailed(Exception):
    """The op's output is not the right answer."""


@dataclass
class Op:
    args: List[str]
    # parses the report, checks it and returns the items the op completed
    check: Callable[[dict], int]
    # count workload: index of the module, shared by its closed and strict op
    module: Optional[int] = None
    strict: bool = False


def build(workload: str, seed: int, n_ops: int, workdir: Path,
          reference: Optional[dict]) -> List[Op]:
    if workload == "corpus":
        return corpus_ops(seed, n_ops)
    if workload == "count":
        return count_ops(seed, n_ops, workdir, reference)
    if workload == "ledger":
        return ledger_ops(seed, n_ops)
    raise ValueError(f"unknown workload {workload!r}")


# --- corpus -----------------------------------------------------------------

def corpus_ops(seed: int, n_ops: int) -> List[Op]:
    """`verify --max-rank 5` over a fixed pool of suite seeds 0..n_ops-1.

    The pool does not depend on the benchmark seed, which only sets the order
    of the ops.  Per-instance cost is heavy-tailed (one rank-5 instance can
    take 6 s where the median takes 8 ms), so corpora drawn per seed would
    move items_per_s by about 15% from seed to seed; a fixed pool keeps that
    spread down to run-to-run noise.
    """
    suite_seeds = list(range(n_ops))
    random.Random(f"corpus:{seed}").shuffle(suite_seeds)
    return [Op(["verify", "--suite", "counting", "--max-rank", "5",
                "--trials", str(CORPUS_TRIALS), "--seed", str(s)],
               _check_corpus)
            for s in suite_seeds]


def _check_corpus(report: dict) -> int:
    if report["total_violations"] != 0:
        raise OpFailed(f"{report['total_violations']} inequality violations")
    if report["skipped"] != 0:
        raise OpFailed(f"{report['skipped']} instances skipped")
    if report["instances"] != CORPUS_TRIALS + 2:
        raise OpFailed(f"{report['instances']} instances, expected "
                       f"{CORPUS_TRIALS + 2}")
    return report["instances"]


# --- count ------------------------------------------------------------------

def count_ops(seed: int, n_ops: int, workdir: Path,
              reference: Optional[dict]) -> List[Op]:
    """`count --module m` and `count --module m --strict` for each module.

    Module k has rank 3 + k % 3, is an ellipsoid for even k and a polymax
    with one or two rows beyond its rank for odd k, and is twisted by a small
    rational alpha when k % 6 >= 3, so every six consecutive modules hold
    each rank in both families, and each family both twisted and not.  The
    scale is set so the enumeration box holds about COUNT_CANDIDATES points,
    which keeps the cost of an op near that of the other workloads' ops.
    """
    refs = reference.get(str(seed), []) if reference else []
    ops = []
    for k in range((n_ops + 1) // 2):
        path = workdir / f"module{k:03d}.json"
        path.write_text(json.dumps(count_module(seed, k)))
        for strict in (False, True):
            args = ["count", "--module", str(path)] + (["--strict"] if strict else [])
            expected = refs[k][strict] if k < len(refs) else None
            ops.append(Op(args, _count_check(expected), module=k,
                          strict=strict))
    return ops


def _count_check(expected: Optional[int]) -> Callable[[dict], int]:
    def check(report: dict) -> int:
        n = report["count"]
        if n % 2 != 1:
            raise OpFailed(f"count {n} is even; the ball is symmetric about 0")
        if expected is not None and n != expected:
            raise OpFailed(f"count {n}, reference {expected}")
        return n
    return check


def check_count_pairs(ops: List[Op], rows) -> None:
    """The strict count of a module never exceeds its closed count in the
    same round.  A row's items are the count its op printed; both rows of a
    pair that breaks this fail."""
    pairs = {}
    for row in rows:
        op = ops[row.op]
        if op.module is not None and not row.reason:
            pairs.setdefault((op.module, row.round), {})[op.strict] = row
    for pair in pairs.values():
        if len(pair) == 2 and pair[True].items > pair[False].items:
            for row in pair.values():
                row.reason = (f"strict count {pair[True].items} > closed "
                              f"count {pair[False].items}")


def _inverse(m):
    n = len(m)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(m)]
    for c in range(n):
        p = next(i for i in range(c, n) if aug[i][c])
        aug[c], aug[p] = aug[p], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


def _rat(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def count_module(seed: int, k: int) -> dict:
    """Module k of the count workload, in the CLI's JSON module format.

    The seed draws the twist alpha; the shape of module k is the same for
    every seed.  The shape sets how many of the box's candidates are lattice
    points (from about 5% to over 50% here), and with six modules in a run,
    shapes drawn per seed moved items_per_s by about 15% from seed to seed.
    """
    twists = random.Random(f"count:{seed}:{k}")
    alpha = (Fraction(twists.choice((-3, -2, -1, 1, 2, 3)), 16)
             if k % 6 >= 3 else 0)
    rng = random.Random(f"count-shape:{k}")
    r = 3 + k % 3
    if k % 2 == 0:
        # G = A^T A + I with A = 2I + noise: positive definite, mildly skewed
        a = [[2 * (i == j) + rng.randint(-1, 1) for j in range(r)] for i in range(r)]
        base = [[sum(a[t][i] * a[t][j] for t in range(r)) + (i == j)
                 for j in range(r)] for i in range(r)]
        inv = _inverse(base)
        half_box = [math.sqrt(inv[i][i]) for i in range(r)]
    else:
        # diagonally dominant square part, plus rows that cut its corners
        base = []
        for i in range(r):
            row = [Fraction(rng.randint(-2, 2), 8) for _ in range(r)]
            row[i] = Fraction(1)
            base.append(row)
        inv = _inverse(base)
        half_box = [float(sum(abs(x) for x in inv[i])) for i in range(r)]
        for _ in range(rng.randint(1, 2)):
            base.append([Fraction(rng.choice((-2, -1, 1, 2)), 4) for _ in range(r)])
    target = COUNT_CANDIDATES
    unit_box = math.prod(2 * b * math.exp(float(alpha)) for b in half_box)
    scale = Fraction(round(16 * (target / unit_box) ** (1 / r)), 16)
    if k % 2 == 0:
        norm = {"type": "ellipsoid",
                "gram": [[_rat(x / (scale * scale)) for x in row] for row in base]}
    else:
        norm = {"type": "polymax",
                "functionals": [[_rat(x / scale) for x in row] for row in base]}
    if alpha:
        norm = {"type": "scaled", "alpha": _rat(alpha), "inner": norm}
    return {"rank": r, "norm": norm}


# --- ledger -----------------------------------------------------------------

def ledger_ops(seed: int, n_ops: int) -> List[Op]:
    """`ledger simulate` cycling through the four modes, and every
    SWEEP_EVERY-th op a `ledger sweep` over a grid of about 2000 cells, so a
    sweep op and a simulate op complete about as many items."""
    rng = random.Random(f"ledger:{seed}")
    ops = []
    for k in range(n_ops):
        n_simulate = k - k // SWEEP_EVERY
        if k % SWEEP_EVERY == SWEEP_EVERY - 1:
            g_max, kappa_max = rng.randint(180, 220), 10
            ops.append(Op(["ledger", "sweep", "--g-max", str(g_max),
                           "--kappa-max", str(kappa_max)],
                          _sweep_check((g_max - 1) * kappa_max)))
        else:
            mode = LEDGER_MODES[n_simulate % len(LEDGER_MODES)]
            ops.append(Op(["ledger", "simulate", "--mode", mode,
                           "--trials", str(LEDGER_TRIALS),
                           "--seed", str(rng.randrange(2 ** 31))],
                          _check_simulate))
    return ops


def _check_simulate(report: dict) -> int:
    if report["violations"] != 0:
        raise OpFailed(f"{report['violations']} ledgers violate their bounds")
    if len(report["results"]) != LEDGER_TRIALS:
        raise OpFailed(f"{len(report['results'])} results for "
                       f"{LEDGER_TRIALS} trials")
    return len(report["results"])


def _sweep_check(cells: int) -> Callable[[list], int]:
    def check(report: list) -> int:
        if len(report) != 4:
            raise OpFailed(f"{len(report)} sweep reports, expected 4")
        bad = [r["name"] for r in report if not r["holds"]]
        if bad:
            raise OpFailed(f"sweep absorptions fail: {bad}")
        return cells
    return check
