"""Successive minima, unit-ball volumes, and the Euler characteristic.

Minima are found by exhaustive enumeration over a ladder of integer key
caps (``norms.CompiledNorm``) from key 1, the least nonzero key, to the
ceiling, the largest key of a unit vector, whose ball spans; neither reads
e^alpha, so a twist has its base's rungs and witnesses.  The radius doubles
until a rung finds a vector, then grows by about e^(1/r) per rung; the
ladder starts at its last rung whose box holds only 0, read off
``CompiledNorm.box_limit``, so huge entries walk no empty rungs.  A rung
lists only its shell of keys above the last cap, and one greedy span pass
over the ladder picks the canonical rank-increasing vectors as witnesses,
the exact parts of whose minima are read off the compiled norm.  Volumes are
exact: a closed form for ellipsoids, and Lasserre's facet recursion for
PolyMax balls (J. Optim. Theory Appl. 39, 1983).  Each face of the recursion
is s times an integral node, a box [0, w] cut by slabs with integer normals,
widths and ends, so only volumes and the scales s are Fractions; a node and
its central reflection share one memo entry.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache

from .enumeration import vectors_with_keys
from .errors import PreconditionViolated
from .intervals import exp_float, log_unit_ball_volume, saturated_float
from .linalg import IncrementalSpan
from .norms import NormedModule, compile_norm
from .record import record


@record
class MinimaReport:
    lambdas: tuple          # classical minima as floats, nondecreasing
    mus: tuple              # logarithmic minima mu_i = -log lambda_i, nonincreasing
    witnesses: tuple        # integer vectors, ||w_i|| = lambda_i
    mu_parts: tuple         # exact log-representation: (alpha, key, den, squared)


@lru_cache(maxsize=1024)
def successive_minima(module: NormedModule) -> MinimaReport:
    """lambda_i = min { t : rank <{v : ||v|| <= t}> >= i }, with witnesses."""
    r = module.rank
    if r < 1:
        raise PreconditionViolated("successive minima need rank >= 1")
    compiled, span, found = compile_norm(module.norm), IncrementalSpan(), []
    zero = (0,) * r  # v > zero: v != 0 with a positive first nonzero entry
    ceiling = max(compiled.key([int(i == k) for i in range(r)]) for k in range(r))
    # the rungs up to the first find are 4^k (2^k for polymax) from key 1,
    # not a basis key (an unreduced basis has long ones); a box of one
    # candidate is all zeros and its rung holds only 0, so the ladder starts
    # at the last such rung, below the box's first key 2^h past one candidate
    shift, h = 1 + compiled.squared, compiled.box_limit(1).bit_length() - 1
    last, cap = 0, 1 << shift * max(0, (h - 1) // shift)
    while span.rank < r:
        for key, vec in vectors_with_keys(module, cap, above=last)[1]:
            if vec > zero and span.add(vec):
                found.append((key, vec))
                if span.rank == r:
                    break
        # radius x2 (key x4 or x2) until a vector is found, then about e^(1/r);
        # the sorted shell (last, cap] is the next run of the whole sorted list
        mul, div = (r + 1 + compiled.squared, r) if found else (2 + 2 * compiled.squared, 1)
        last, cap = cap, min(ceiling, max(cap + 1, cap * mul // div))

    keys, witnesses = zip(*found)
    lambdas = tuple(exp_float(compiled.log(k)) for k in keys)
    mus = tuple(-compiled.log(k) + 0.0 for k in keys)
    parts = tuple((compiled.alpha, k, compiled.den, compiled.squared) for k in keys)
    return MinimaReport(lambdas, mus, witnesses, parts)


@record
class VolumeReport:
    value: float
    method: str             # exact-ellipsoid | exact-polytope
    log_value: float
    # a polymax ball's rational volume before its twist, which multiplies
    # it by e^(r alpha); None for an ellipsoid
    exact: Fraction | None = None


def _node(lower, upper, slabs):
    """Normal form (s, node) of {y : lower <= y <= upper, c.y between the
    ends of each slab}, for integer bounds, normals and ends: the set is
    s * node, and node is (w, slabs) with integer widths w and integer ends.

    Each normal is divided by its signed gcd, so that it is primitive with a
    positive first nonzero entry; parallel slabs then share it and are
    merged, unit normals are folded into the box, the box is translated to
    [0, w] and slabs the box already satisfies are dropped.  Scaling by L,
    the lcm of the slab gcds, keeps the ends integers, and dividing by G, the
    gcd of the widths and the ends, makes them coprime: s = G/L.
    Returns None when a width or a slab's range in the box is empty or flat
    (the recursion gives any other such set volume 0).
    Lasserre's formula counts a repeated facet twice: nodes must be normal.
    """
    primitive, scale, zero = [], 1, (0,) * len(lower)
    for c, lo, hi in slabs:
        g = math.gcd(*c)
        if g:  # else a face's own facet: its range holds 0
            if c < zero:  # its first nonzero entry is negative
                g = -g
            if g != 1:
                c = tuple(x // g for x in c)
                scale = math.lcm(scale, g)
            primitive.append((c, lo, hi, g))
    lower, upper = [x * scale for x in lower], [x * scale for x in upper]
    merged = {}
    for c, lo, hi, g in primitive:
        lo, hi = sorted((lo * (scale // g), hi * (scale // g)))
        if sum(map(abs, c)) == 1:
            k = c.index(1)
            lower[k], upper[k] = max(lower[k], lo), min(upper[k], hi)
        else:
            if c in merged:
                lo, hi = max(lo, merged[c][0]), min(hi, merged[c][1])
            merged[c] = (lo, hi)
    widths = tuple(map(operator.sub, upper, lower))
    if min(widths, default=1) <= 0:
        return None
    kept = []
    for c, (lo, hi) in merged.items():
        shift = sum(map(operator.mul, c, lower))
        lo, hi = lo - shift, hi - shift
        cmin = sum(x * w for x, w in zip(c, widths) if x < 0)
        cmax = sum(x * w for x, w in zip(c, widths) if x > 0)
        if hi <= max(lo, cmin) or lo >= cmax:
            return None
        if lo > cmin or hi < cmax:
            kept.append((c, lo, hi))
    g = math.gcd(*widths, *(e for _, lo, hi in kept for e in (lo, hi))) or 1
    return Fraction(g, scale), (tuple(w // g for w in widths),
                                tuple(sorted((c, lo // g, hi // g) for c, lo, hi in kept)))


def _reflect(node):
    """The node's image under y -> w - y, the central reflection of its box."""
    widths, slabs = node
    return widths, tuple((c, top - hi, top - lo) for c, lo, hi in slabs
                         for top in [sum(map(operator.mul, c, widths))])


def _node_volume(node, memo: dict) -> Fraction:
    """Lasserre's recursion vol_n(P) = (1/n) sum_i b_i vol_{n-1}(proj F_i)/|c_p|
    over the facets c.y = level of a normal node, with b_i the facet's
    distance term; each face is projected by eliminating the coordinate p
    with the largest |c_p|, and its volume is s^(n-1) times that of its
    integer node.  A node and its central reflection have one volume, so
    the memo is keyed on the smaller of the two."""
    widths, slabs = node
    if not slabs:
        return math.prod(widths)
    key = min(node, _reflect(node))
    if key in memo:
        return memo[key]
    n = len(widths)
    # (c, level, b) per facet c.y = level: the upper box facets y_k = w_k
    # (the lower ones have b = 0) and both sides of each slab; _node finds
    # the face of a side that the box already satisfies flat
    facets = [(tuple(int(i == k) for i in range(n)), w, w)
              for k, w in enumerate(widths)]
    for c, lo, hi in slabs:
        facets += [(c, hi, hi), (c, lo, -lo)]
    total = Fraction(0)
    for c, level, b in facets:
        if not b:
            continue
        size = list(map(abs, c))
        p = size.index(max(size))
        q, d = c[p], c[:p] + c[p + 1:]  # q y_p = level - d.y on the face
        face = _node([0] * (n - 1), widths[:p] + widths[p + 1:],
                     [(d, level - q * widths[p], level)]
                     + [(tuple(q * e - f[p] * x for e, x in zip(f[:p] + f[p + 1:], d)),
                         q * lo - f[p] * level, q * hi - f[p] * level)
                        for f, lo, hi in slabs])
        if face is not None:
            s, face = face
            v = _node_volume(face, memo)
            total += Fraction(b * s.numerator ** (n - 1) * v.numerator,
                              abs(q) * s.denominator ** (n - 1) * v.denominator)
    memo[key] = total / n
    return memo[key]


@lru_cache(maxsize=1024)
def ball_volume(module: NormedModule) -> VolumeReport:
    """Volume of the unit ball B(M) = {x : ||x|| <= 1}."""
    compiled = compile_norm(module.norm)
    r = module.rank
    # scaling by e^{-alpha} multiplies the volume by e^{r alpha}; +-inf when
    # alpha itself is past the double range; at rank 0 the factor is 1 and
    # its log 0, not 0 * inf
    shift = r and r * saturated_float(compiled.alpha)
    if compiled.squared:
        det = compiled.det  # its log, as det may lie outside the double range
        log_det = math.log(det.numerator) - math.log(det.denominator)
        log_v = log_unit_ball_volume(r) - 0.5 * log_det + shift
        return VolumeReport(exp_float(log_v), "exact-ellipsoid", log_v)
    # with y = A0 x for the compiled basis rows A0, the ball is the cube [-1, 1]^r
    # cut by |c_j . y| <= D = det A'_0 for A'_0 = den A0 and each other integer
    # row A'_j: c_j = D A'_j A'_0^{-1} = A'_j adj(A'_0), all integers
    adj, D = compiled.adjugate, compiled.int_det
    slabs = [(tuple(sum(a * adj[i][k] for i, a in enumerate(row)) for k in range(r)),
              -D, D) for j, row in enumerate(compiled.int_rows) if j not in compiled.basis]
    s, node = _node([-1] * r, [1] * r, slabs)
    vol = s ** r * _node_volume(node, {}) / abs(compiled.det)
    log_v = math.log(vol.numerator) - math.log(vol.denominator) + shift
    return VolumeReport(exp_float(log_v), "exact-polytope", log_v, vol)


def euler_characteristic(module: NormedModule) -> float:
    """chi(M) = log vol(B(M)); the covolume of Z^r is 1."""
    return ball_volume(module).log_value
