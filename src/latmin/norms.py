"""Normed free Z-modules with exact rational norm data.

The central object is a pair (Z^r, ||.||) where the norm is described exactly
by one record, ``NormSpec(kind, rows, alpha)``:

* kind ``"ellipsoid"``, rows the gram G -- ||x|| = e^{-alpha} sqrt(x^T G x),
  G symmetric positive definite with rational entries;
* kind ``"polymax"``, rows the functionals a_j -- ||x|| = e^{-alpha} max_j
  |<a_j, x>| over m >= r rational rows.

The lattice is always Z^r with covolume 1; general lattices are normalized by
pulling the norm back through a basis change before construction.  A twist
by e^{-alpha} (``make_scaled``) adds to the spec's alpha, so a nested twist
cannot be built; in JSON a spec with alpha != 0 is a ``"scaled"`` wrapper
around its untwisted spec.

This is the only module that knows how a norm is represented.  Everything
else evaluates norms through ``compile_norm(spec)``, a cached
``CompiledNorm``: integer keys, the integer key cap of a radius (limited
to a key, it also decides that key against the radius), the widths of the
walk at a cap (its box), log norms, the integer LDL^T chain of an
ellipsoid that enumeration prunes with, a polymax basis with its integer
adjugate, and the determinant of the gram or of the basis.
``linalg`` computes the chain and the basis in integer arithmetic.
The compile is the only check of norm data (``make_normed_module`` compiles),
and a twist reuses its base's compile, recomputing only the scale.

``CompiledNorm.box_limit(N)``, the first key t = 2^k whose box holds more
than N candidates, is the unit cap's limit at N = the budget, and at N = 1
ends the keys whose ball holds only 0, where the minima ladder starts.  The
box grows with the key, so k is found by doubling (0, 1, 2, 4, ...) and then
bisecting, in O(log bits) boxes, not one per bit of t.  The box has no twist,
so a twist shares its base's limits.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import cached_property, lru_cache

from .errors import ConfigError, DimensionMismatch, InvalidNorm, UnboundedBall
from .intervals import exp_float, floor_exp, saturated_float
from .linalg import adjugate, independent_rows, ldl_chain
from .record import digest16, record


def parse_rational(s) -> Fraction:
    """Parse a 'p/q' string (or int) into a Fraction; a bool is no number."""
    if isinstance(s, bool):
        raise TypeError(f"{s!r} is not a rational")
    if isinstance(s, int):
        return Fraction(s)
    if isinstance(s, Fraction):
        return s
    return Fraction(str(s))


def format_rational(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


@record
class NormSpec:
    """A norm on Z^r: the gram (kind "ellipsoid") or the functionals (kind
    "polymax") as ``rows``, tuples of Fractions, twisted by e^{-alpha}."""
    kind: str
    rows: tuple
    alpha: Fraction = Fraction(0)

    def __post_init__(self):  # once per spec: each lru-cache lookup hashes it
        object.__setattr__(self, "_hash", hash((self.kind, self.rows, self.alpha)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def dim(self) -> int:
        if self.kind == "ellipsoid":  # a gram that is not square fails to compile
            return len(self.rows)
        return len(self.rows[0]) if self.rows else 0

    def to_json(self) -> dict:
        field = "gram" if self.kind == "ellipsoid" else "functionals"
        data = {"type": self.kind,
                field: [[format_rational(x) for x in row] for row in self.rows]}
        if not self.alpha:
            return data
        return {"type": "scaled", "alpha": format_rational(self.alpha), "inner": data}


def _rows(data) -> tuple:
    return tuple(tuple(parse_rational(x) for x in row) for row in data)


def make_ellipsoid(gram) -> NormSpec:
    return NormSpec("ellipsoid", _rows(gram))


def make_polymax(functionals) -> NormSpec:
    return NormSpec("polymax", _rows(functionals))


def make_scaled(inner: NormSpec, alpha) -> NormSpec:
    """Scale a norm by e^{-alpha}: twists add."""
    return NormSpec(inner.kind, inner.rows, inner.alpha + parse_rational(alpha))


class CompiledNorm:
    """A norm spec compiled to integer data, built once per spec.

    With den the lcm of the entry denominators, A' = den * A (polymax rows)
    or G' = den * G (ellipsoid gram) is integer, and every vector v gets the
    key max_j |A'_j . v| or v^T G' v.  Then norm(v) = e^{-alpha} * key/den
    or e^{-alpha} * sqrt(key/den), so ``norm(v) <= t`` compares key/den with
    t (or t^2) times e^scale, scale = alpha (or 2 alpha): once per threshold,
    as ``cap(t)``, the integer K with norm(v) <= t exactly when key(v) <= K.

    A polymax also keeps the indices ``basis`` of r independent rows, the
    adjugate of their integer rows A'_0 = den * A_0 and det A'_0
    (``int_det``): all of its data is integer but ``alpha`` and ``det``,
    the determinant of the gram G or of the basis A_0.
    """

    def __init__(self, spec: NormSpec):
        """Compile an untwisted spec, rejecting data that is not a norm."""
        self.rank = n = spec.dim
        self.squared = spec.kind == "ellipsoid"
        data = spec.rows
        if not data and not self.squared:
            raise UnboundedBall("no functionals")
        if any(len(row) != n for row in data):
            raise InvalidNorm("gram matrix is not square" if self.squared
                              else "functionals have inconsistent lengths")
        self.den = math.lcm(*(x.denominator for row in data for x in row))
        self.int_rows = [[int(x * self.den) for x in row] for row in data]
        if self.squared:
            if any(data[i][j] != data[j][i]
                   for i in range(n) for j in range(i)):
                raise InvalidNorm("gram matrix is not symmetric")
            # the pivots a are the trailing principal minors of G', all > 0
            # exactly when G is positive definite (Sylvester's criterion)
            self.chain = ldl_chain(self.int_rows)
            if len(self.chain) < n or any(a <= 0 for a, _, _ in self.chain):
                raise InvalidNorm("gram matrix is not positive definite")
            self.det = Fraction(self.chain[0][0] if n else 1, self.den ** n)
        else:
            # r independent integer rows A'_0 with y = A'_0 x: |y_i| <= cap on
            # the ball and x = adj(A'_0) y / det A'_0, so |x_k| <= cap s_k /
            # |det A'_0|, s_k the row sum of |adj(A'_0)|
            self.basis = independent_rows(self.int_rows, n)
            if len(self.basis) < n:
                raise UnboundedBall("functionals do not span R^r; unit ball unbounded")
            rows = [self.int_rows[i] for i in self.basis]
            self.adjugate = adjugate(rows)
            self.adjugate_sums = [sum(map(abs, row)) for row in self.adjugate]
            # det A'_0 = (A'_0 adj(A'_0))[0][0], and 1 at rank 0
            self.int_det = (sum(a * adj[0] for a, adj in zip(rows[0], self.adjugate))
                            if n else 1)
            self.det = Fraction(self.int_det, self.den ** n)
        # size -> box_limit(size): the box has no twist, so a twist's copy
        # shares this dict
        self.box_limits = {}
        self._scale(Fraction(0))

    def _scale(self, alpha: Fraction) -> None:
        """Set the twist alpha and the exponent scale of its caps."""
        self.alpha = alpha
        self.scale = 2 * alpha if self.squared else alpha

    def key(self, v):
        """Key of an int, Fraction or float vector (exact for the first two)."""
        if self.squared:
            total = 0
            for i, gi in enumerate(self.int_rows):
                vi = v[i]
                if vi:
                    total += vi * sum(g * x for g, x in zip(gi, v))
            return total
        best = 0
        for row in self.int_rows:
            s = abs(sum(a * x for a, x in zip(row, v)))
            if s > best:
                best = s
        return best

    def cap(self, t: Fraction, strict: bool = False, limit: int | None = None) -> int:
        """The largest key K with norm(v) <= t (< t if strict) iff key(v) <= K,
        for t > 0: floor(t^2 den e^scale) for an ellipsoid, floor(t den e^scale)
        for a polymax, or the limit if that is lower.  Only an untwisted sphere
        meets an integer key, and there the strict cap is one lower."""
        bound = (t * t if self.squared else t) * self.den
        k = floor_exp(bound, self.scale, limit)
        return k - (strict and not self.scale and k == bound)

    def log(self, key) -> float:
        """Natural log of the norm of a vector with this key (-inf at 0)."""
        if key == 0:
            return float("-inf")
        base = math.log(key) - math.log(self.den)
        if self.squared:
            base /= 2
        return base - saturated_float(self.alpha)

    def box(self, cap: int) -> list[int]:
        """B_i with level i of the walk at a cap over at most 2 B_i + 1
        integers.  Ellipsoid: (a t + b)^2 <= d (a cap - p), p >= 0, holds at
        most floor(2 s / a) + 1, s = isqrt(d a cap): B_i rounds s / a, and by
        Hadamard prod 2 s / a <= the G'^-1 box.  Polymax: B_i >= |x_i|."""
        if self.squared:
            return [(2 * math.isqrt(d * a * cap) + a) // (2 * a) for a, d, _ in self.chain]
        return [cap * s // abs(self.int_det) for s in self.adjugate_sums]

    def box_limit(self, size: int) -> int:
        """The first key t = 2^k with prod (2 B_i(t) + 1) > size, or 1 at
        rank 0, whose box never grows; memoized in ``box_limits``."""
        t = self.box_limits.get(size)
        if t is None:
            def passes(k):
                return math.prod(2 * b + 1 for b in self.box(1 << k)) <= size

            lo, hi = -1, 0  # 2^lo passes (lo = -1: none yet), then 2^hi fails
            while self.rank and passes(hi):
                lo, hi = hi, 2 * hi or 1
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if passes(mid) else (lo, mid)
            t = self.box_limits[size] = 1 << hi
        return t


@lru_cache(maxsize=2048)
def compile_norm(norm: NormSpec) -> CompiledNorm:
    """The compiled form of a norm spec, built once per spec.  A twist is a
    shallow copy of its base's compile: only the scale is recomputed."""
    if not norm.alpha:
        return CompiledNorm(norm)
    compiled = object.__new__(CompiledNorm)
    compiled.__dict__.update(compile_norm(make_scaled(norm, -norm.alpha)).__dict__)
    compiled._scale(norm.alpha)
    return compiled


@record
class NormValue:
    """Exact norm value of one vector: its key under the compiled norm."""

    norm: CompiledNorm
    key: int | Fraction

    def le(self, threshold) -> bool:
        """Decide norm <= threshold exactly."""
        return self._within(parse_rational(threshold), False)

    def lt(self, threshold) -> bool:
        return self._within(parse_rational(threshold), True)

    def _within(self, t: Fraction, strict: bool) -> bool:
        """key <= the cap of t > 0, resolved no higher than the key; a
        rational vector v is decided as m v, m the denominator of its key."""
        if t <= 0:  # only the zero vector has norm 0, and it is not < 0
            return not (strict or self.key or t)
        m = self.key.denominator
        key = int(self.key * m ** (1 + self.norm.squared))
        return key <= self.norm.cap(m * t, strict, limit=key)

    def log(self) -> float:
        """Natural log of the norm value (-inf at 0)."""
        return self.norm.log(self.key)

    def to_float(self) -> float:
        return exp_float(self.log())


@record
class NormedModule:
    rank: int
    norm: NormSpec

    def to_json(self) -> dict:
        return {"rank": self.rank, "norm": self.norm.to_json()}

    def digest(self) -> str:
        return self._digest

    @cached_property  # on first read: a twist is never named
    def _digest(self) -> str:
        """digest16 of json.dumps(to_json(), sort_keys=True, separators=(",",
        ":")): the module's name in reports."""
        blob = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
        return digest16(blob.encode())


def make_normed_module(rank: int, norm: NormSpec) -> NormedModule:
    """Validate and freeze a normed module; compiling the norm checks its data."""
    if rank < 0:
        raise DimensionMismatch("rank must be nonnegative")
    if norm.dim != rank:
        raise DimensionMismatch(f"norm dimension {norm.dim} != rank {rank}")
    compile_norm(norm)
    return NormedModule(rank, norm)


def twist(module: NormedModule, alpha) -> NormedModule:
    """The module with norm scaled by e^{-alpha} (rational alpha)."""
    return NormedModule(module.rank, make_scaled(module.norm, alpha))


def norm_eval(module: NormedModule, v: tuple | list) -> NormValue:
    """Exact norm value of an integer (or rational) vector."""
    if len(v) != module.rank:
        raise DimensionMismatch(f"vector length {len(v)} != rank {module.rank}")
    compiled = compile_norm(module.norm)
    return NormValue(compiled, compiled.key([parse_rational(x) for x in v]))


def spec_from_json(data: dict) -> NormSpec:
    kind = data["type"]
    if kind == "ellipsoid":
        return make_ellipsoid(data["gram"])
    if kind == "polymax":
        return make_polymax(data["functionals"])
    if kind == "scaled":
        return make_scaled(spec_from_json(data["inner"]), parse_rational(data["alpha"]))
    raise InvalidNorm(f"unknown norm type {kind!r}")


def module_from_json(data: dict) -> NormedModule:
    """Parse and validate a module; malformed data raises ConfigError."""
    try:
        rank, spec = data["rank"], spec_from_json(data["norm"])
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad module JSON: {exc!r}") from exc
    if type(rank) is not int:  # bool is an int subclass, and not a rank
        raise ConfigError(f"bad module JSON: rank {rank!r} is not an integer")
    return make_normed_module(rank, spec)


def load_module(path: str) -> NormedModule:
    with open(path) as fh:
        return module_from_json(json.load(fh))
