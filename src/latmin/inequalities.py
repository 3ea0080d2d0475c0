"""Executable checks for the counting inequalities, plus a seeded corpus.

Every check returns structured InequalityReport values.  These inequalities
are proved theorems, so a "violated" verdict on any instance means an
implementation bug; the batch runner treats violations as data and dumps the
offending instance for replay.  Verdicts follow the tolerance policy of
``reports``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .enumeration import h0_hat, h0_hat_sef
from .errors import ConfigError, EnumerationBudgetExceeded
from .minima import euler_characteristic, successive_minima
from .norms import (NormedModule, compile_norm, make_ellipsoid,
                    make_normed_module, make_polymax, twist)
from .reports import InequalityReport, _report
from .rng import DetRNG, derive


def _xlogx(n: int) -> float:
    # 0 log 0 = 0 by convention
    return n * math.log(n) if n > 0 else 0.0


LOG2 = math.log(2.0)
LOG3 = math.log(3.0)


def check_norm_scaling(module: NormedModule, alpha) -> list[InequalityReport]:
    """Scaling bounds for h0 and h0_sef under a twist by -alpha."""
    alpha = Fraction(alpha)
    if alpha < 0:
        raise ConfigError("alpha must be nonnegative")
    digest = module.digest()
    r = module.rank
    shrunk = twist(module, -alpha)
    h0 = h0_hat(module)
    h0a = h0_hat(shrunk)
    sef = h0_hat_sef(module)
    sefa = h0_hat_sef(shrunk)
    err = r * float(alpha) + r * LOG3
    return [
        _report("scaling-closed-lower", h0a, h0, digest),
        _report("scaling-closed-upper", h0, h0a + err, digest),
        _report("scaling-sef-lower", sefa, sef, digest),
        _report("scaling-sef-upper", sef, sefa + err, digest),
    ]


def check_sef_gap(module: NormedModule) -> list[InequalityReport]:
    """h0_sef <= h0 <= h0_sef + r log 3."""
    digest = module.digest()
    h0 = h0_hat(module)
    sef = h0_hat_sef(module)
    return [
        _report("sef-gap-lower", sef, h0, digest),
        _report("sef-gap-upper", h0, sef + module.rank * LOG3, digest),
    ]


def check_filtration(module: NormedModule, alphas: tuple | list) -> list[InequalityReport]:
    """Filtration bounds over 0 = a_0 <= a_1 <= ... <= a_n.  The rank at a_i
    is # {j : lambda_j <= e^(-a_i)}: the minima keys at most the unit cap of
    the twist by -a_i, which has the module's keys.  Each cap is resolved no
    higher than the largest minimum key, so no twist's ball is charged; the
    module's own is, by its count."""
    alphas = [Fraction(a) for a in alphas]
    if not alphas or alphas[0] != 0:
        raise ConfigError("filtration must start at alpha_0 = 0")
    if any(b < a for a, b in zip(alphas, alphas[1:])):
        raise ConfigError("filtration alphas must be nondecreasing")
    digest = module.digest()
    keys = ([k for _, k, _, _ in successive_minima(module).mu_parts]
            if module.rank else [])
    top = max(keys, default=0)
    caps = [compile_norm(twist(module, -a).norm).cap(1, limit=top) for a in alphas]
    ranks = [sum(k <= cap for k in keys) for cap in caps]
    r0 = ranks[0]
    h0 = h0_hat(module)
    h0n = h0_hat(twist(module, -alphas[-1]))
    sef = h0_hat_sef(module)
    sefn = h0_hat_sef(twist(module, -alphas[-1]))
    steps = [float(b - a) for a, b in zip(alphas, alphas[1:])]
    upper_sum = sum(ranks[i] * steps[i] for i in range(len(steps)))
    lower_sum = sum(ranks[i + 1] * steps[i] for i in range(len(steps)))
    up_err = 4.0 * _xlogx(r0) + 2.0 * r0 * LOG3
    low_err = 2.0 * _xlogx(r0) + r0 * LOG3
    return [
        _report("filtration-upper", h0, h0n + upper_sum + up_err, digest),
        _report("filtration-lower", lower_sum - low_err, h0, digest),
        _report("filtration-upper-sef", sef, sefn + upper_sum + up_err, digest),
        _report("filtration-lower-sef", lower_sum - low_err, sef, digest),
    ]


def check_second_minima(module: NormedModule) -> list[InequalityReport]:
    """Minkowski window: r log 2 - log r! <= chi - sum mu_i <= r log 2."""
    digest = module.digest()
    r = module.rank
    chi = euler_characteristic(module)
    minima = successive_minima(module)
    gap = chi - sum(minima.mus)
    return [
        _report("minima-window-lower", r * LOG2 - math.lgamma(r + 1), gap,
                digest),
        _report("minima-window-upper", gap, r * LOG2, digest),
    ]


def check_gs_count(module: NormedModule) -> list[InequalityReport]:
    """|h0 - sum max(mu_i, 0)| <= r log 3 + 2 r log r, and the sef variant."""
    digest = module.digest()
    r = module.rank
    minima = successive_minima(module)
    summax = sum(max(m, 0.0) for m in minima.mus)
    bound = r * LOG3 + 2.0 * _xlogx(r)
    h0 = h0_hat(module)
    sef = h0_hat_sef(module)
    return [
        _report("minima-count", abs(h0 - summax), bound, digest),
        _report("minima-count-sef", abs(sef - summax), bound, digest),
    ]


def check_minkowski_count(module: NormedModule) -> InequalityReport:
    """chi <= h0 + r log 2."""
    digest = module.digest()
    chi = euler_characteristic(module)
    h0 = h0_hat(module)
    return _report("minkowski-count", chi, h0 + module.rank * LOG2, digest)


def random_module(seed: int, rank_min: int = 1, rank_max: int = 3) -> NormedModule:
    """Deterministic random instance: family, rank and norm data from seed."""
    rng = DetRNG(seed, 0xA11CE)
    rank = rng.randint(rank_min, rank_max)
    family = rng.choice(("ellipsoid", "polymax"))
    if family == "ellipsoid":
        a = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(rank)]
        gram = [[sum(a[k][i] * a[k][j] for k in range(rank)) + (i == j)
                 for j in range(rank)] for i in range(rank)]
        spec = make_ellipsoid(gram)
    else:
        # diagonally dominant square part keeps the enclosing box small
        rows = []
        for k in range(rank):
            diag = Fraction(rng.randint(1, 4), rng.randint(1, 4))
            row = [diag * Fraction(rng.randint(-2, 2), 8 * rank)
                   for _ in range(rank)]
            row[k] = diag
            rows.append(row)
        for _ in range(rng.randint(0, 2)):
            rows.append([Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                         for _ in range(rank)])
        spec = make_polymax(rows)
    module = make_normed_module(rank, spec)
    if rng.randint(0, 1):
        module = twist(module, rng.fraction(Fraction(-1, 2), Fraction(1, 2)))
    return module


# boundary-tight witnesses always included in the corpus
def witness_modules() -> list[NormedModule]:
    z1 = make_normed_module(1, make_polymax([["1/1"]]))
    box = make_normed_module(2, make_polymax([["1/4", "0/1"], ["0/1", "1/1"]]))
    return [z1, box]


def run_suite(seed: int = 0, trials: int = 100, rank_min: int = 1,
              rank_max: int = 3) -> dict:
    """Run all checks over the witnesses, then over `trials` random modules of
    rank rank_min..rank_max drawn from `seed`; violations are returned as data.
    Each instance is drawn when it runs, so memory does not grow with `trials`.

    Every walk is charged to the one budget of the run, ``enumeration.BUDGET``:
    an instance with a walk past it counts as skipped."""
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    if seed < 0:
        raise ConfigError("seed must be >= 0")
    if not (1 <= rank_min <= rank_max <= 8):
        raise ConfigError("ranks must satisfy 1 <= rank_min <= rank_max <= 8")
    stats: dict = {}
    violations: list = []
    skipped = 0
    witnesses = witness_modules()
    for t in range(-len(witnesses), trials):  # t < 0 picks a witness
        if t < 0:
            mod, alpha, alphas = witnesses[t], Fraction(1), [Fraction(0), Fraction(1)]
        else:
            mod = random_module(derive(seed, t), rank_min, rank_max)
            rng = DetRNG(seed, t, 0xC0FFEE)
            # scaling alpha in [0, 3]; a filtration of at most 4 alphas
            alpha = rng.fraction(Fraction(0), Fraction(3), 8)
            n = rng.randint(0, 3)
            alphas = [Fraction(0)]
            for _ in range(n):
                alphas.append(alphas[-1] + rng.fraction(Fraction(0), Fraction(3, 4), 8))
        try:  # all of an instance's reports, or none of them
            reports = (check_norm_scaling(mod, alpha) + check_sef_gap(mod)
                       + check_filtration(mod, alphas) + check_second_minima(mod)
                       + check_gs_count(mod) + [check_minkowski_count(mod)])
        except EnumerationBudgetExceeded:
            skipped += 1
            continue
        for rep in reports:
            s = stats.setdefault(rep.name, {"checked": 0, "holds": 0, "violations": 0,
                                            "min_slack": None})
            s["checked"] += 1
            if rep.verdict == "violated":
                s["violations"] += 1
                report = {name: getattr(rep, name) for name in rep._fields}
                violations.append({"report": report, "instance": mod.to_json()})
            else:
                s["holds"] += 1
            if s["min_slack"] is None or rep.slack < s["min_slack"]:
                s["min_slack"] = rep.slack

    return {
        "suite": "counting",
        "trials": trials,
        "seed": seed,
        "instances": len(witnesses) + trials,
        "skipped": skipped,
        "total_violations": sum(s["violations"] for s in stats.values()),
        "inequalities": {name: stats[name] for name in sorted(stats)},
        "violation_dumps": violations,
    }
