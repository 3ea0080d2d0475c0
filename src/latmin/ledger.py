"""Abstract reduction ledgers and closed-form bound evaluators.

A Ledger records the arithmetic shadow of a degree-reduction sequence: per
step a Q-degree d_i, a Q-rank r_i, an absolute minimum c_i >= 0 and a
nonnegative intersection slack.  The geometric construction itself is out of
scope; its arithmetic consequences (derived self-intersections, chained
count bounds, closed-form constants) are all mechanically checkable here.

Admissibility is decided once, when a Ledger is made: the mode's rules,
feasible derived intersections, and the mode's closed-form bound, which
must meet its preconditions and be finite; that bound, the intersections
and the digest, which every check reads, are kept then, so no check of a
ledger that was made raises.  All evaluation is double precision; verdicts
use EXACT_TOL.

The paper's six closed forms (the trivial and degree-one bounds, Theorems
B, C and D, Corollary E's bounds on delta_X) are evaluated through one
table, _THEOREMS, and each evaluator checks its own preconditions.  A
closed form past the double range (an OverflowError, or a float that is not
finite) is bad input, in eval_theorem and in Ledger.validate.
"""

from __future__ import annotations

import math
import sys
from functools import reduce
from operator import add

from .errors import ConfigError, InfeasibleLedger, PreconditionViolated
from .record import digest16, record
from .reports import EXACT_TOL, InequalityReport, _report
from .rng import DetRNG

MODES = ("positive-genus", "genus-zero", "clifford-hyperelliptic",
         "clifford-nonhyperelliptic")

LOG2 = math.log(2.0)
LOG3 = math.log(3.0)
LOG2PI = math.log(2.0 * math.pi)

_FEAS_TOL = 1e-12
_MAX_REAL = sys.float_info.max


def _is_real(x) -> bool:
    """x is an int or a float (no bool) that a double holds: no NaN or inf."""
    return (type(x) is float or type(x) is int) and -_MAX_REAL <= x <= _MAX_REAL


def _is_count(x) -> bool:
    """x is an int (no bool) that a double holds: float arithmetic on it
    raises no OverflowError."""
    return type(x) is int and _is_real(x)


# The ledger's JSON layout, written once: the templates of a ledger and of a
# step as json.dumps(to_json(), sort_keys=True, separators=(",", ":")) lays
# out a validated ledger (its mode needs no escape), with its reals at REAL.
_LAYOUT = ('{"L2_0":REAL,"g":%d,"kappa":%d,"mode":"%s","steps":[%s]}',
           '{"c":REAL,"d":%d,"r":%d,"slack":REAL}')
_DIGEST_LAYOUT = tuple(t.replace("REAL", "%r") for t in _LAYOUT)  # as json.dumps
_TEXT_LAYOUT = tuple(t.replace("REAL", '"%.12g"') for t in _LAYOUT)  # as cli.fmt_real


@record
class LedgerStep:
    d: int        # deg over Q (already multiplied by kappa)
    r: int        # h^0 over Q
    c: float      # absolute minimum, >= 0
    slack: float  # nonnegative intersection term


@record
class Ledger:
    g: int
    kappa: int
    steps: tuple[LedgerStep, ...]
    L2_0: float
    mode: str

    def __post_init__(self):
        self.validate()  # once per ledger: every ledger in use is admissible

    def validate(self) -> None:
        """The field types, before any float arithmetic (ints, kappa, d and
        r ones that a double holds; c, slack and L2_0 finite reals, an int
        made a float so 20 and 20.0 give one digest); the mode's rules; then
        L_i^2 and L_i'^2 = L_i^2 - 2 d_i c_i, which must be >= 0 (to
        _FEAS_TOL); then the genus the mode needs and the closed-form bound
        of theorem_chain_check (theorem_b_bound for positive genus / genus
        zero, theorem_c_bound for the Clifford modes), which must meet its
        preconditions and be finite.  Only then are the bound, the
        intersections and the digest kept outside the fields."""
        if type(self.g) is not int or not _is_count(self.kappa):
            raise ConfigError("g and kappa must be ints, and kappa one that a "
                              "double holds")
        if not _is_real(self.L2_0):
            raise ConfigError(f"L2_0 = {self.L2_0!r} is not a finite real")
        if type(self.L2_0) is int:
            object.__setattr__(self, "L2_0", float(self.L2_0))
        if self.mode not in MODES:
            raise ConfigError(f"unknown ledger mode {self.mode!r}")
        if self.g < 0 or self.kappa < 1:
            raise ConfigError("need g >= 0 and kappa >= 1")
        if not self.steps:
            raise ConfigError("ledger needs at least one step")
        if self.L2_0 < 0:
            raise ConfigError("L2_0 must be nonnegative")
        for i, s in enumerate(self.steps):
            if not (_is_count(s.d) and _is_count(s.r)):
                raise ConfigError(f"step {i}: d and r must be ints that a "
                                  "double holds")
            if not (_is_real(s.c) and _is_real(s.slack)):
                raise ConfigError(f"step {i}: c = {s.c!r} and slack = "
                                  f"{s.slack!r} must be finite reals")
            if type(s.c) is int:  # an equal value and hash: the step stays equal
                object.__setattr__(s, "c", float(s.c))
            if type(s.slack) is int:
                object.__setattr__(s, "slack", float(s.slack))
            if s.d <= 0 or s.r <= 0:
                raise ConfigError(f"step {i}: d and r must be positive")
            if s.c < 0 or s.slack < 0:
                raise ConfigError(f"step {i}: c and slack must be nonnegative")
            if i and s.d >= self.steps[i - 1].d:
                raise ConfigError(f"step {i}: degrees must strictly decrease")
            if self.mode == "positive-genus":
                if s.r > s.d:
                    raise ConfigError(f"step {i}: positive genus needs r <= d")
            elif self.mode == "genus-zero":
                if s.r != s.d + self.kappa:
                    raise ConfigError(f"step {i}: genus zero needs r = d + kappa")
            else:
                if s.r > s.d / 2 + self.kappa:
                    raise ConfigError(f"step {i}: Clifford needs r <= d/2 + kappa")
        l2, l2p = [self.L2_0], []
        for i, s in enumerate(self.steps):
            prime = l2[i] - 2.0 * s.d * s.c
            if prime < -_FEAS_TOL:
                raise InfeasibleLedger(f"L'_{i}^2 = {prime} < 0")
            l2p.append(prime)
            l2.append(prime - s.slack)
            if l2[-1] < -_FEAS_TOL:
                raise InfeasibleLedger(f"L_{i + 1}^2 = {l2[-1]} < 0")
        if self.steps[0].d % self.kappa:
            raise ConfigError("d_0 must be a multiple of kappa")
        d_circ = self.steps[0].d // self.kappa
        if self.mode in ("positive-genus", "genus-zero"):  # Theorem B at g >= 1, g = 0
            if (self.g > 0) != (self.mode == "positive-genus"):
                raise PreconditionViolated(
                    f"{self.mode} ledger needs g {'= 0' if self.g else '>= 1'}")
            bound = theorem_b_bound(self.g, d_circ, self.kappa, self.L2_0)
        elif self.g < 2:
            raise PreconditionViolated("Clifford ledger needs g >= 2")
        else:
            eps = 2 if self.mode == "clifford-hyperelliptic" else 1
            bound = theorem_c_bound(d_circ, self.kappa, eps, self.L2_0)
        if not math.isfinite(bound):
            raise ConfigError(f"ledger is past the double range: bound = {bound}")
        object.__setattr__(self, "_bound", bound)  # theorem_chain_check's rhs
        object.__setattr__(self, "_l2", tuple(l2[:-1]))  # one L_i^2 per step
        object.__setattr__(self, "_l2p", tuple(l2p))
        object.__setattr__(self, "_digest", digest16(self.json_text(_DIGEST_LAYOUT).encode()))

    def to_json(self) -> dict:
        return {"g": self.g, "kappa": self.kappa, "mode": self.mode,
                "L2_0": self.L2_0,
                "steps": [dict(vars(s)) for s in self.steps]}

    def json_text(self, layout=_TEXT_LAYOUT) -> str:
        """The ledger's JSON text in `layout`: _TEXT_LAYOUT or _DIGEST_LAYOUT."""
        head, step = layout
        return head % (self.L2_0, self.g, self.kappa, self.mode, ",".join(
            [step % (s.c, s.d, s.r, s.slack) for s in self.steps]))

    def digest(self) -> str:
        """digest16 of json.dumps(to_json(), sort_keys=True, separators=(",",
        ":")), written by the ledger's one layout when it was validated."""
        return self._digest


def _checked_fields(kinds: dict, data: dict) -> dict:
    """`kinds` fields of `data`: JSON numbers that a double holds, ints as
    JSON integers (no bool), reals made floats."""
    for key, kind in kinds.items():
        if not (_is_real(data[key]) and (kind is float or type(data[key]) is int)):
            raise ValueError(f"{key} = {data[key]!r} is not a finite {kind.__name__}")
    return {key: kind(data[key]) for key, kind in kinds.items()}


def ledger_from_json(data: dict) -> Ledger:
    """The ledger of a JSON object as read: Ledger.validate is its one check."""
    try:
        steps = tuple(LedgerStep(**s) for s in data["steps"])
        return Ledger(data["g"], data["kappa"], steps, data["L2_0"],
                      data["mode"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad ledger JSON: {exc}") from exc


def derived_intersections(ledger: Ledger) -> tuple[list[float], list[float]]:
    """Forward sequences L_i^2 and L_i'^2 = L_i^2 - 2 d_i c_i, as new lists."""
    return list(ledger._l2), list(ledger._l2p)


def _left_sum(terms):
    """The terms added left to right: from Python 3.12 on, sum() of floats
    is compensated, and that moves the last bits of the ledger's output."""
    return reduce(add, terms, 0)


def _chain_value(steps) -> float:
    """sum r_i c_i + 4 r_0 log r_0 + 2 r_0 log 3 over the given steps: the
    chained count bound with the terminal section count taken as 0."""
    r0 = steps[0].r
    return (_left_sum(s.r * s.c for s in steps)
            + 4.0 * r0 * math.log(r0) + 2.0 * r0 * LOG3)


def onestep_chain(ledger: Ledger, j: int) -> tuple[InequalityReport, InequalityReport]:
    """Intersection chain at step j plus the count-side bound.

    The count bound treats the terminal section count as 0 (the reduction's
    endpoint): sum r_i c_i + 4 r_0 log r_0 + 2 r_0 log 3 over i <= j, which
    the second report compares with the closed form that Ledger.validate
    kept for theorem_chain_check.
    """
    if not (0 <= j < len(ledger.steps)):
        raise ConfigError(f"step index {j} out of range")
    digest = ledger.digest()
    lhs = ledger._l2p[j] + 2.0 * _left_sum(s.d * s.c for s in ledger.steps[: j + 1])
    first = _report("chain-intersection", lhs, ledger.L2_0, digest)
    second = _report("chain-count-bound", _chain_value(ledger.steps[: j + 1]),
                     ledger._bound, digest)
    return first, second


def sum_ci_bound(ledger: Ledger) -> InequalityReport:
    """c_0 + sum c_i <= L^2 / d_0 (must hold for every feasible ledger)."""
    lhs = ledger.steps[0].c + _left_sum(s.c for s in ledger.steps)
    rhs = ledger.L2_0 / ledger.steps[0].d
    return _report("sum-ci", lhs, rhs, ledger.digest())


def trivial_bound(r_minus: int, deg_LQ: int, L2: float) -> float:
    """(r_minus / deg) * L^2 + r_minus log 3."""
    if r_minus < 1 or deg_LQ < 1:
        raise PreconditionViolated("need r_minus >= 1 and deg >= 1")
    if L2 < 0:
        raise PreconditionViolated("L2 must be nonnegative")
    return (r_minus / deg_LQ) * L2 + r_minus * LOG3


def theorem_b_bound(g: int, d_circ: int, kappa: int, L2: float) -> float:
    """Closed-form count bound: L2/2 + 4d log(3d) for g > 0, and the
    (1/2 + 1/d)-coefficient variant with r = (d + 1) kappa for g = 0."""
    if kappa < 1 or L2 < 0:
        raise PreconditionViolated("need kappa >= 1 and L2 >= 0")
    if g > 0:
        if d_circ <= 1:
            raise PreconditionViolated("g > 0 needs d_circ > 1")
        d = d_circ * kappa
        return 0.5 * L2 + 4.0 * d * math.log(3.0 * d)
    if g == 0:
        if d_circ <= 0:
            raise PreconditionViolated("g = 0 needs d_circ > 0")
        r = (d_circ + 1) * kappa
        return (0.5 + 1.0 / d_circ) * L2 + 4.0 * r * math.log(3.0 * r)
    raise PreconditionViolated("genus must be nonnegative")


def theorem_c_bound(d_circ: int, kappa: int, eps: int, L2: float) -> float:
    """(1/4 + eps/(2 d_circ)) L2 + 4d log(3d) with d = d_circ * kappa."""
    if d_circ <= 1:
        raise PreconditionViolated("theorem C needs d_circ > 1")
    if eps not in (1, 2):
        raise PreconditionViolated("eps must be 1 or 2")
    if kappa < 1 or L2 < 0:
        raise PreconditionViolated("need kappa >= 1 and L2 >= 0")
    d = d_circ * kappa
    return (0.25 + eps / (2.0 * d_circ)) * L2 + 4.0 * d * math.log(3.0 * d)


def theorem_d_bound(g: int, kappa: int, eps: int, omega2: float) -> float:
    """Canonical-bundle case; identical to theorem_c_bound at d_circ = 2g-2."""
    if g <= 1:
        raise PreconditionViolated("theorem D needs g > 1")
    if eps not in (1, 2):
        raise PreconditionViolated("eps must be 1 or 2")
    if kappa < 1 or omega2 < 0:
        raise PreconditionViolated("need kappa >= 1 and omega2 >= 0")
    return theorem_c_bound(2 * g - 2, kappa, eps, omega2)


def deg_one_bound(g: int, kappa: int, L2: float) -> float:
    """Degree-one case: L2 + kappa log 3 (g > 0) or L2 + 5 kappa log 3 (g = 0)."""
    if kappa < 1 or L2 < 0 or g < 0:
        raise PreconditionViolated("need kappa >= 1, L2 >= 0, g >= 0")
    if g > 0:
        return L2 + kappa * LOG3
    return L2 + 5.0 * kappa * LOG3


def chi_ok(g: int, r1: int, r2: int, absD: float) -> float:
    """r1 log V(g) + r2 log V(2g) - (g/2) log |D_K|."""
    from .intervals import log_unit_ball_volume  # only here: intervals loads fractions

    if g < 1 or r1 < 0 or r2 < 0 or absD < 1:
        raise PreconditionViolated("need g >= 1, r1, r2 >= 0, absD >= 1")
    return (r1 * log_unit_ball_volume(g) + r2 * log_unit_ball_volume(2 * g)
            - 0.5 * g * math.log(absD))


def stirling_check(g: int, r1: int, r2: int) -> InequalityReport:
    """r1 log V(g) + r2 log V(2g) >= (r/2) log(2 pi) - (r/2) log r."""
    from .intervals import log_unit_ball_volume

    if g < 1 or r1 < 0 or r2 < 0 or r1 + r2 < 1:
        raise PreconditionViolated("need g >= 1 and at least one embedding")
    r = g * (r1 + 2 * r2)
    lhs = 0.5 * r * LOG2PI - 0.5 * r * math.log(r)
    rhs = r1 * log_unit_ball_volume(g) + r2 * log_unit_ball_volume(2 * g)
    return _report("stirling-chi-ok", lhs, rhs, f"g{g}-r1{r1}-r2{r2}")


def noether_chi_fal(omega2: float, delta: float, g: int, kappa: int) -> float:
    """chi_Fal = (omega^2 + delta)/12 - (1/3) g kappa log(2 pi)."""
    return (omega2 + delta) / 12.0 - (g * kappa / 3.0) * LOG2PI


# exact integer coefficients of C(g, K) = 2g log|D_K| + 18 d log d + 25 d
C_LOG_ABSD_PER_G = 2
C_DLOGD = 18
C_D = 25


def c_constant(g: int, kappa: int, absD: float) -> float:
    d = (2 * g - 2) * kappa
    return (C_LOG_ABSD_PER_G * g * math.log(absD)
            + C_DLOGD * d * math.log(d) + C_D * d)


@record
class CorollaryEReport:
    c_value: float
    rhs_omega: float       # (2 + 3 eps/(g-1)) omega^2 + 12 gamma + 3 C
    rhs_chi: float         # (8 + 4 eps/(g-1+eps)) chi_Fal + (4(g-1)/(g-1+eps)) gamma + C
    delta: float
    holds_omega: bool
    holds_chi: bool


def corollary_e(*, g: int, kappa: int, eps: int, absD: float, r1: int,
                r2: int, omega2: float, delta: float, gamma: float) -> CorollaryEReport:
    """Evaluate both closed-form upper bounds on delta_X, for g >= 2, kappa
    = r1 + 2 r2 embeddings, eps in {1, 2}, |D_K| >= 1 and omega^2 >= 0."""
    if g < 2:
        raise PreconditionViolated("context needs g >= 2")
    if kappa < 1 or r1 < 0 or r2 < 0:
        raise ConfigError("need kappa >= 1 and r1, r2 >= 0")
    if r1 + 2 * r2 != kappa:
        raise ConfigError("embedding split must satisfy r1 + 2 r2 = kappa")
    if eps not in (1, 2):
        raise ConfigError("eps must be 1 or 2")
    if absD < 1:
        raise ConfigError("absD must be >= 1")
    if omega2 < 0:
        raise ConfigError("omega2 must be nonnegative")
    c = c_constant(g, kappa, absD)
    rhs_omega = (2.0 + 3.0 * eps / (g - 1)) * omega2 + 12.0 * gamma + 3.0 * c
    chi_fal = noether_chi_fal(omega2, delta, g, kappa)
    rhs_chi = ((8.0 + 4.0 * eps / (g - 1 + eps)) * chi_fal
               + (4.0 * (g - 1) / (g - 1 + eps)) * gamma + c)
    return CorollaryEReport(c, rhs_omega, rhs_chi, delta,
                            delta <= rhs_omega + EXACT_TOL,
                            delta <= rhs_chi + EXACT_TOL)


# theorem -> (its evaluator, the config fields the evaluator takes with
# their types): the five bounds and Corollary E's report on delta_X
_THEOREMS = {
    "trivial": (trivial_bound, {"r_minus": int, "deg_LQ": int, "L2": float}),
    "B": (theorem_b_bound, {"g": int, "d_circ": int, "kappa": int, "L2": float}),
    "C": (theorem_c_bound, {"d_circ": int, "kappa": int, "eps": int, "L2": float}),
    "D": (theorem_d_bound, {"g": int, "kappa": int, "eps": int, "omega2": float}),
    "deg1": (deg_one_bound, {"g": int, "kappa": int, "L2": float}),
    "E": (corollary_e, {"g": int, "kappa": int, "eps": int, "absD": float,
                        "r1": int, "r2": int, "omega2": float,
                        "delta": float, "gamma": float}),
}


def eval_theorem(name: str, cfg: dict) -> tuple:
    """(report, holds) of theorem `name` on the config fields it takes: a
    bound b as {"bound": b}, which holds, and Corollary E's report, which
    holds when both its verdicts do."""
    if name not in _THEOREMS:
        raise ConfigError(f"unknown theorem {name!r}")
    evaluate, kinds = _THEOREMS[name]
    try:
        args = _checked_fields(kinds, cfg)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad theorem {name} config: {exc!r}") from exc
    try:
        report = evaluate(**args)
        if type(report) is float:
            report = {"bound": report}
        values = report if type(report) is dict else vars(report)
        for key, value in values.items():
            if not math.isfinite(value):  # a bool verdict is finite
                raise OverflowError(f"{key} = {value}")
    except OverflowError as exc:
        raise ConfigError(f"theorem {name} config is past the double range: {exc}") from exc
    return report, all(v for v in values.values() if type(v) is bool)


def asymptotic_margin_per_d() -> float:
    """Limit of the per-unit-d margin in the 25d absorption as g -> infinity."""
    return C_D - 16.0 * LOG3 - 2.0 * LOG2PI


def _absorption_slacks(g: int, kappa: int) -> tuple:
    """The float slacks (rhs - lhs) of the absorptions (i), (ii) and (iii) of
    ``verify_constant_chain`` at one cell (g, kappa)."""
    d = (2 * g - 2) * kappa
    r = g * kappa
    dlogd = d * math.log(d)
    cprime = 4.5 * dlogd + 4.0 * d * LOG3
    return ((54.0 * dlogd + 61.0 * d) - (12.0 * cprime + 4.0 * r * LOG2PI),
            (C_DLOGD * dlogd + C_D * d) - (4.0 * cprime + 4.0 * r * LOG2PI),
            cprime - (4.0 * d * math.log(3.0 * d) + r * LOG2
                      + 0.5 * r * math.log(r) - 0.5 * r * LOG2PI))


def verify_constant_chain(g_max: int, kappa_max: int) -> list[InequalityReport]:
    """Check the constant-absorption steps on the full (g, kappa) grid.

    Three absorptions, all independent of |D_K| (the log|D_K| coefficients
    cancel exactly), reported with the minimum slack over the grid:
      (i)   12 C' + 4r log 2pi <= 54 d log d + 61 d
      (ii)   4 C' + 4r log 2pi <= 18 d log d + 25 d
      (iii)  4d log(3d) + r log 2 + (r/2) log(r/(2 pi)) <= (9/2) d log d + 4 d log 3
    with C' = (9/2) d log d + 4 d log 3 (absD = 1), d = (2g-2) kappa, r = g kappa.

    They hold for every g >= 2 and kappa >= 1, not only on the grid: the
    d log d terms cancel, r/d = g/(2g-2) lies in (1/2, 1], and the slacks
    (``_absorption_slacks``, one cell) are, rounded down,
      (i)   61d - 48 d log 3 - 4r log 2pi >= d (61 - 48 log 3 - 4 log 2pi) > 0.9151 d
      (ii)  25d - 16 d log 3 - 4r log 2pi >= d (25 - 16 log 3 - 4 log 2pi) > 0.0706 d
      (iii) (1/2) d log d - (1/2) r log r + r ((1/2) log 2pi - log 2)
                >= r ((1/2) log 2pi - log 2) > 0.2257 r, as d >= r >= 1,
    each bound attained at g = 2, where r = d.  Three exact decisions make
    them positive: with pi < 355/113, e^25 > 3^16 (710/113)^4 for (ii) and
    e^61 > 3^48 (710/113)^4 for (i) (``intervals.compare_exp``), and with
    pi > 333/106, 2pi > 4 for (iii).
    """
    if g_max < 2 or kappa_max < 1:
        raise PreconditionViolated("need g_max >= 2 and kappa_max >= 1")
    mins = dict.fromkeys(("i", "ii", "iii", "ii-per-d"), math.inf)
    for g in range(2, g_max + 1):
        for kappa in range(1, kappa_max + 1):
            s_i, s_ii, s_iii = _absorption_slacks(g, kappa)
            for key, s in (("i", s_i), ("ii", s_ii), ("iii", s_iii),
                           ("ii-per-d", s_ii / ((2 * g - 2) * kappa))):
                mins[key] = min(mins[key], s)
    digest = f"grid-g{g_max}-k{kappa_max}"
    return [
        _report("chain-absorb-12cprime", -mins["i"], 0.0, digest),
        _report("chain-absorb-4cprime", -mins["ii"], 0.0, digest),
        _report("chain-absorb-into-cprime", -mins["iii"], 0.0, digest),
        # per-unit-d margin of (ii), attached for reporting
        _report("chain-margin-ii-per-d", 0.0, mins["ii-per-d"], digest),
    ]


def simulate_reduction(seed: int, mode: str) -> Ledger:
    """Deterministic admissible ledger from a seed.

    kappa = 1, n in [0, 3] reduction steps after the first, deg_0 <= 12, and
    c, slack in [0, 2].  Degrees strictly decrease, ranks satisfy the mode
    constraint, and L2_0 is chosen large enough that both the derived
    intersections and the summed-c bound are feasible by construction.
    """
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}")
    rng = DetRNG(seed, 0x1ED6E2)
    if mode == "genus-zero":
        g = 0
    elif mode == "positive-genus":
        g = rng.randint(1, 5)
    else:
        g = rng.randint(2, 6)
    n = rng.randint(0, 3)
    deg0 = rng.randint(n + 2, 12)
    candidates = list(range(1, deg0))
    picks = [candidates.pop(rng.randint(0, len(candidates) - 1))
             for _ in range(n)]
    degs = sorted([deg0] + picks, reverse=True)

    steps, dc_sum, slack_sum, c_sum = [], 0, 0, 0  # added left to right, as _left_sum
    for d in degs:
        if mode == "positive-genus":
            r = rng.randint(1, d)
        elif mode == "genus-zero":
            r = d + 1
        elif mode == "clifford-hyperelliptic":
            r = rng.randint(1, d // 2 + 1)
        else:  # clifford-nonhyperelliptic: strong Clifford bound
            r = rng.randint(1, (d + 1) // 2)
        c = round(rng.u01() * 2.0, 6)
        slack = round(rng.u01() * 2.0, 6)
        steps.append(LedgerStep(d, r, c, slack))
        dc_sum, slack_sum, c_sum = dc_sum + d * c, slack_sum + slack, c_sum + c

    need_chain = 2.0 * dc_sum + slack_sum
    need_sumci = steps[0].d * (steps[0].c + c_sum)
    l2 = max(need_chain, need_sumci) + round(rng.u01() * 5.0, 6)
    return Ledger(g, 1, tuple(steps), l2, mode)


def theorem_chain_check(ledger: Ledger) -> InequalityReport:
    """The chained reduction bound never exceeds the closed-form bound.

    The chained value takes the terminal count as 0: V = sum r_i c_i +
    4 r_0 log r_0 + 2 r_0 log 3.  The closed form, theorem_b_bound for
    positive genus / genus zero and theorem_c_bound for the Clifford modes,
    is the one Ledger.validate kept.
    """
    return _report("theorem-chain", _chain_value(ledger.steps), ledger._bound,
                   ledger.digest())
