"""Successive minima, unit-ball volumes, and the Euler characteristic.

Minima are found by exhaustive enumeration: grow the search radius
geometrically until the enumerated vectors span the full rank, then take the
rank-increasing prefix of the key-sorted list; the exact parts of each
minimum are read off the compiled norm (``norms.CompiledNorm``).  Volumes
are exact for ellipsoids, square PolyMax systems and rank-2 polygons, and
seeded counter-based Monte Carlo otherwise, testing sample points with the
compiled norm's key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List

from .enumeration import DEFAULT_BUDGET, vectors_with_keys
from .errors import PreconditionViolated
from .linalg import IncrementalSpan, determinant
from .norms import NormedModule, compile_norm, make_polymax
from .rng import _mix, derive


@dataclass(frozen=True)
class MinimaReport:
    lambdas: tuple          # classical minima as floats, nondecreasing
    mus: tuple              # logarithmic minima mu_i = -log lambda_i, nonincreasing
    witnesses: tuple        # integer vectors, ||w_i|| = lambda_i
    mu_parts: tuple         # exact log-representation: (alpha, key, den, squared)


def _canonical(v: tuple) -> bool:
    for x in v:
        if x:
            return x > 0
    return True


@lru_cache(maxsize=1024)
def successive_minima(module: NormedModule, budget: int = DEFAULT_BUDGET) -> MinimaReport:
    """lambda_i = min { t : rank <{v : ||v|| <= t}> >= i }, with witnesses."""
    r = module.rank
    if r < 1:
        raise PreconditionViolated("successive minima need rank >= 1")
    radius = Fraction(1)
    while True:
        compiled, pairs = vectors_with_keys(module, radius, budget)
        nonzero = [(k, v) for k, v in pairs if any(v)]
        probe = IncrementalSpan()
        for _, v in nonzero:
            if probe.add(v) and probe.rank == r:
                break
        if probe.rank >= r:
            break
        radius *= 2

    witnesses: List[tuple] = []
    keys: List[int] = []
    span = IncrementalSpan()
    for key, vec in nonzero:
        if not _canonical(vec):
            continue
        if span.add(vec):
            witnesses.append(vec)
            keys.append(key)
            if span.rank == r:
                break

    lambdas = tuple(math.exp(compiled.log(k)) for k in keys)
    mus = tuple(-compiled.log(k) + 0.0 for k in keys)
    parts = tuple((compiled.alpha, k, compiled.den, compiled.squared) for k in keys)
    return MinimaReport(lambdas, mus, tuple(witnesses), parts)


@dataclass(frozen=True)
class VolumeReport:
    value: float
    method: str             # exact-ellipsoid | exact-parallelepiped | exact-polygon | monte-carlo
    stderr: float
    log_value: float
    exact: Fraction | None = None  # rational volume where one exists (alpha = 0 part)


def log_unit_ball_volume(r: int) -> float:
    """log of the volume of the Euclidean unit ball in R^r."""
    return (r / 2) * math.log(math.pi) - math.lgamma(r / 2 + 1)


def _clip(poly, cx: Fraction, cy: Fraction, rhs: Fraction):
    """Clip a convex polygon against cx*x + cy*y <= rhs (exact)."""
    out = []
    n = len(poly)
    for i in range(n):
        ax, ay = poly[i]
        bx, by = poly[(i + 1) % n]
        da = cx * ax + cy * ay - rhs
        db = cx * bx + cy * by - rhs
        if da <= 0:
            out.append((ax, ay))
        if (da < 0 < db) or (db < 0 < da):
            t = da / (da - db)
            out.append((ax + t * (bx - ax), ay + t * (by - ay)))
    return out


def polygon_ball_area(functionals) -> Fraction:
    """Exact area of {x in R^2 : max_j |<a_j, x>| <= 1}."""
    bx, by = (b + 1 for b in compile_norm(make_polymax(functionals)).unit_bounds)
    poly = [(-bx, -by), (bx, -by), (bx, by), (-bx, by)]
    for cx, cy in functionals:
        poly = _clip(poly, cx, cy, Fraction(1))
        poly = _clip(poly, -cx, -cy, Fraction(1))
    area = Fraction(0)
    n = len(poly)
    for i in range(n):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % n]
        area += x0 * y1 - x1 * y0
    return abs(area) / 2


@lru_cache(maxsize=1024)
def ball_volume(module: NormedModule, samples: int = 100_000,
                seed: int = 0) -> VolumeReport:
    """Volume of the unit ball B(M) = {x : ||x|| <= 1}."""
    compiled = compile_norm(module.norm)
    alpha = compiled.alpha
    r = module.rank
    shift = r * float(alpha)  # scaling by e^{-alpha} multiplies volume by e^{r alpha}
    if r == 0:
        return VolumeReport(1.0, "exact-parallelepiped", 0.0, 0.0, Fraction(1))
    if compiled.squared:
        det = determinant(compiled.data)
        log_v = log_unit_ball_volume(r) - 0.5 * math.log(det) + shift
        return VolumeReport(math.exp(log_v), "exact-ellipsoid", 0.0, log_v)
    rows = compiled.data
    if len(rows) == r:
        det = abs(determinant(rows))
        base = Fraction(2) ** r / det
        log_v = r * math.log(2) - math.log(det) + shift
        return VolumeReport(math.exp(log_v), "exact-parallelepiped", 0.0, log_v,
                            base if alpha == 0 else None)
    if r == 2:
        area = polygon_ball_area(rows)
        log_v = math.log(area) + shift
        return VolumeReport(math.exp(log_v), "exact-polygon", 0.0, log_v,
                            area if alpha == 0 else None)
    # Monte Carlo rejection sampling over the enclosing box; a point is in
    # the ball when its key is at most den * e^scale
    if samples < 10_000:
        raise PreconditionViolated("monte-carlo volume needs samples >= 10^4")
    bounds = [float(b) for b in compiled.unit_bounds]
    key_f = compiled.key
    limit = compiled.den * math.exp(float(compiled.scale))
    digest = int(module.digest(), 16)
    # counter-based stream keyed by (seed, instance digest, sample index);
    # per-sample coordinates come from successive mixes of that key
    base = derive(seed, digest)
    scale53 = 2.0 ** -53
    hits = 0
    for i in range(samples):
        state = _mix(base ^ i)
        point = [(2.0 * ((_mix(state ^ (k + 1)) >> 11) * scale53) - 1.0) * bounds[k]
                 for k in range(r)]
        if key_f(point) <= limit:
            hits += 1
    box_vol = 1.0
    for b in bounds:
        box_vol *= 2.0 * b
    p = hits / samples
    value = box_vol * p
    stderr = box_vol * math.sqrt(max(p * (1.0 - p), 0.0) / samples)
    log_v = math.log(value) if value > 0 else float("-inf")
    return VolumeReport(value, "monte-carlo", stderr, log_v)


@dataclass(frozen=True)
class ChiReport:
    value: float
    stderr: float
    method: str


def euler_characteristic(module: NormedModule, samples: int = 100_000,
                         seed: int = 0) -> ChiReport:
    """chi(M) = log vol(B(M)); the covolume of Z^r is 1."""
    vol = ball_volume(module, samples, seed)
    stderr = vol.stderr / vol.value if vol.stderr else 0.0
    return ChiReport(vol.log_value, stderr, vol.method)
