"""Three model Hadamard spaces behind one functional interface.

Every operation takes a :class:`Space` descriptor first.  The per-kind
choice of metric and geodesic interpolator lives only in ``kernels``,
which hands out a space's unchecked pair; ``distance``,
``geodesic_point`` and ``diameter`` check their arguments and then call
it, and a caller that makes many calls in one space takes the pair once.
``diameter`` measures every pair with one metric.  The spaces:

* ``euclidean`` -- R^n, points are coordinate tuples.
* ``hyperbolic`` -- the hyperboloid sheet {<x,x> = -1, x0 > 0} in
  (n+1)-dimensional Minkowski space with signature (-,+,...,+).  Geodesics
  and rays have sinh/cosh closed forms; interpolation results are
  re-projected onto the sheet, which keeps the constraint residual near
  rounding level throughout the desk-scale working region (points within
  distance ~10 of the basepoint).
* ``tree`` -- a finite metric tree with marked ends (see ``trees``).

Points and ideal vectors have ``coordinate_count`` entries, n in R^n and
n + 1 in H^n: ``validate_point``, ``validate_ideal``, ``busemann`` and
``ray_point`` check one point, and ``check_arity`` the points of ``distance``,
``geodesic_point``, ``diameter``, ``center_of_mass`` and ``hausdorff``.

Ideal points are unit directions (euclidean), future-pointing null
vectors of any positive scale (hyperbolic), or marked leaf ids (tree).
Horofunction levels follow the convention b(o) = 0 with b decreasing at
unit rate along rays toward the ideal point, so horoballs {b <= t}
expand as t grows.

Hyperbolic closed forms used below:

* distance(x, y) = 2 asinh(sqrt(<x-y, x-y>)/2), which is exact for nearby
  points where acosh(-<x,y>) loses half the significand;
* ray(x, xi, s) = exp(-s) x + sinh(s) xi / alpha with alpha = -<x, xi>,
  which lies on the sheet identically in exact arithmetic; each component
  is a double-double sum of Dekker products, rounded once;
* separation of two rays toward the same end,
  cosh d(s) - 1 = 2 sinh^2(g/2) + 2 (sinh^2(d0/2) - sinh^2(g/2)) e^{-2s}
  with g the horofunction gap b(x) - b(y) and d0 = distance(x, y).  The
  naive route (interpolate far ray points, then measure) cancels
  catastrophically past s ~ 8; this form is stable for every s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import chain, combinations, starmap
from typing import TYPE_CHECKING

from .errors import GeometryError
from .trees import Tree, TreePoint

if TYPE_CHECKING:
    from numpy.random import Generator

EUCLIDEAN = "euclidean"
HYPERBOLIC = "hyperbolic"
TREE = "tree"

HYPERBOLOID_TOL = 1e-9  # relative to x0^2, the scale of the rounding in <x,x>
MAX_DIM = 1024  # keeps coordinate tuples and draws small; far above desk scale
IDEAL_TOL = 1e-9
_T_BITS = 26  # fractional bits of the stereographic parameter of a null vector
_TINY = 2.0**-400  # below this, squares underflow inside _mink_exact

_SEED_MASK = 0x7FFF_FFFF_FFFF_FFFF


@dataclass(frozen=True)
class Space:
    """Descriptor for one of the three model spaces."""

    kind: str
    dim: int = 0
    tree: Tree | None = None

    def __post_init__(self):
        if self.kind != TREE and not 1 <= self.dim <= MAX_DIM:
            raise GeometryError(f"dim must lie in [1, {MAX_DIM}], got {self.dim}")

    @classmethod
    def euclidean(cls, dim: int) -> "Space":
        return cls(EUCLIDEAN, dim)

    @classmethod
    def hyperbolic(cls, dim: int) -> "Space":
        return cls(HYPERBOLIC, dim)

    @classmethod
    def tree_space(cls, edges, ideal_leaves=(), basepoint=None) -> "Space":
        return cls(TREE, 0, Tree(edges, ideal_leaves, basepoint))


@dataclass(frozen=True)
class IdealPoint:
    """Boundary point: a direction, a null vector, or a marked leaf id."""

    vector: tuple[float, ...] | None = None
    leaf: str | None = None

    @classmethod
    def direction(cls, components) -> "IdealPoint":
        vec = tuple(float(c) for c in components)
        norm = math.hypot(*vec)
        if not (math.isfinite(norm) and norm > 0.0):
            raise GeometryError(f"direction must be finite and nonzero, got {vec}")
        return cls(vector=tuple(c / norm for c in vec))

    @classmethod
    def null_vector(cls, components) -> "IdealPoint":
        return cls(vector=_null_vector(components))

    @classmethod
    def end(cls, leaf: str) -> "IdealPoint":
        return cls(leaf=str(leaf))


def basepoint(space: Space):
    if space.kind == EUCLIDEAN:
        return (0.0,) * space.dim
    if space.kind == HYPERBOLIC:
        return (1.0,) + (0.0,) * space.dim
    return space.tree.basepoint


# -- point validation ------------------------------------------------------


def _left_sum(values) -> float:
    """Plain left-to-right float sum.

    sum() gives exactly this up to Python 3.11; 3.12 compensates it, which
    moves the last bits of sums of three or more terms.
    """
    s = 0.0
    for v in values:
        s += v
    return s


def _mink(x, y) -> float:
    s = -x[0] * y[0]
    for i in range(1, len(x)):
        s += x[i] * y[i]
    return s


_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter


def _two_product(a: float, b: float):
    """Error-free product: returns (fl(a*b), rounding remainder)."""
    p = a * b
    c = _SPLIT * a
    ahi = c - (c - a)
    alo = a - ahi
    c = _SPLIT * b
    bhi = c - (c - b)
    blo = b - bhi
    return p, ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo


def _two_sum(a: float, b: float):
    """Error-free sum: returns (fl(a+b), rounding remainder)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _mink_exact(x, y) -> float:
    """Minkowski product via exact products and exact summation.

    The horofunction level of a far ray point comes from a cancellation
    of order exp(2s); plain double products waste half the achievable
    accuracy there, and this path recovers it.
    """
    terms = []
    p, e = _two_product(x[0], y[0])
    terms.append(-p)
    terms.append(-e)
    for i in range(1, len(x)):
        p, e = _two_product(x[i], y[i])
        terms.append(p)
        terms.append(e)
    return math.fsum(terms)


def _checked_null(v) -> list[float]:
    """Raise unless v is finite, future pointing and null to IDEAL_TOL v0^2;
    return v scaled exactly, by a power of two, to v0 in [0.5, 1)."""
    if len(v) < 2 or not all(math.isfinite(c) for c in v):
        raise GeometryError(f"ideal vector must have >= 2 finite components, got {v}")
    if v[0] <= 0.0:
        raise GeometryError("ideal vector must be future pointing")
    u = [math.ldexp(c, -math.frexp(v[0])[1]) for c in v]
    if not any(u[1:]):
        raise GeometryError("ideal vector needs a nonzero spatial part")
    if not abs(_mink(u, u)) <= IDEAL_TOL * u[0] * u[0]:
        raise GeometryError(f"ideal vector must be null, <xi,xi> = {_mink(v, v)}")
    return u


def _null_vector(components) -> tuple[float, ...]:
    """Future-pointing vector that is null in exact arithmetic.

    Exactly null input comes back unchanged.  Other input near the light
    cone is snapped: with w its unit spatial direction, the pole on the
    axis p of largest |w_p| and t = w'/(1 + |w_p|) on the other axes
    rounded to _T_BITS fractional bits, (1+|t|^2, 2t, sign(w_p)(1-|t|^2))
    has double entries and norm exactly 0.  The direction moves by at most
    sqrt(n-1) 2^-26 rad.  The scale is free: levels and rays use xi only
    through ratios of <., xi>.
    """
    v = tuple(float(c) for c in components)
    u = _checked_null(v)
    # squares of components below _TINY underflow inside _mink_exact
    if _mink_exact(u, u) == 0.0 and all(c == 0.0 or abs(c) >= _TINY for c in u):
        return v
    norm = math.hypot(*u[1:])
    w = [c / norm for c in u[1:]]
    pole = max(range(len(w)), key=lambda i: abs(w[i]))
    wp = w.pop(pole)
    k = [round(c * 2.0**_T_BITS / (1.0 + abs(wp))) for c in w]
    # |w_p| >= n^-1/2 keeps |t| < 1: 2^52 (1 +- |t|^2) are integers below 2^53
    one, kk = 1 << 2 * _T_BITS, sum(j * j for j in k)
    spatial = [math.ldexp(j, 1 - _T_BITS) for j in k]
    spatial.insert(pole, math.copysign(math.ldexp(one - kk, -2 * _T_BITS), wp))
    return (math.ldexp(one + kk, -2 * _T_BITS),) + tuple(spatial)


def _project_hyperboloid(x):
    n2 = -_mink(x, x)
    if n2 <= 0.0:
        raise GeometryError("vector is not timelike, cannot project to hyperboloid")
    r = 1.0 / math.sqrt(n2)
    if x[0] < 0.0:
        r = -r
    return tuple([c * r for c in x])


def coordinate_count(space: Space) -> int:
    """Length of a point or ideal vector: dim in R^n, dim + 1 in H^n."""
    return space.dim + 1 if space.kind == HYPERBOLIC else space.dim


def _check_length(space: Space, v, unit: str = "coordinates") -> None:
    if space.kind != TREE and len(v) != coordinate_count(space):
        raise GeometryError(f"expected {coordinate_count(space)} {unit}, got {len(v)}")


def validate_point(space: Space, p) -> None:
    if space.kind == TREE:
        if not isinstance(p, TreePoint):
            raise GeometryError(f"tree space expects TreePoint, got {type(p).__name__}")
        space.tree.validate(p)
        return
    if not isinstance(p, tuple) or not all(isinstance(c, float) for c in p):
        raise GeometryError("point must be a tuple of floats")
    if not all(map(math.isfinite, p)):
        raise GeometryError(f"point coordinates must be finite, got {p}")
    _check_length(space, p)
    if space.kind == EUCLIDEAN:
        return
    if p[0] <= 0.0:
        raise GeometryError("hyperboloid point must have positive first coordinate")
    tol = HYPERBOLOID_TOL * p[0] * p[0]  # an overflowing x0^2 accepts nothing
    if not abs(_mink(p, p) + 1.0) <= tol < math.inf:
        raise GeometryError(f"point is off the hyperboloid: <x,x> = {_mink(p, p)}")


def canonical_point(space: Space, p):
    validate_point(space, p)
    if space.kind == TREE:
        return space.tree.canonical(p)
    return tuple(float(c) for c in p)


def validate_ideal(space: Space, xi: IdealPoint) -> None:
    if space.kind == TREE:
        if xi.leaf is None:
            raise GeometryError("tree ideal point must name a marked leaf")
        space.tree.leaf_edge(xi.leaf)
        return
    if xi.vector is None:
        raise GeometryError(f"{space.kind} ideal point needs a vector")
    v = xi.vector
    _check_length(space, v, "components")
    if space.kind == EUCLIDEAN:
        norm = math.sqrt(sum(c * c for c in v))
        if not abs(norm - 1.0) <= 1e-12:
            raise GeometryError(f"direction must be unit, |u| = {norm}")
        return
    _checked_null(v)


def normalize_ideal(space: Space, xi: IdealPoint) -> IdealPoint:
    """Snap a hyperbolic ideal vector to an exactly null one; no-op otherwise."""
    if space.kind != HYPERBOLIC or xi.vector is None:
        return xi
    return IdealPoint(vector=_null_vector(xi.vector))


# -- metric and geodesics ---------------------------------------------------


def kernels(space: Space):
    """The space's metric and geodesic interpolator, (metric, interpolate).

    metric(x, y) is the distance and interpolate(x, y, t) the point at
    arclength fraction t from x toward y, for 0 < t < 1; neither checks
    its arguments.  `distance`, `geodesic_point` and `diameter` call these
    after their checks, and a caller that makes many calls in one space
    can take them once.
    """
    if space.kind == EUCLIDEAN:
        return math.dist, _euclid_geodesic
    if space.kind == HYPERBOLIC:
        return _hyp_distance, _hyp_geodesic
    return space.tree.distance, partial(_tree_geodesic, space.tree)


def diameter(space: Space, points) -> float:
    """Largest pairwise distance of a finite point set (0 below two points).

    Pairs are measured in the order (0, 1), (0, 2), ..., (1, 2), ..., and
    a wrong-length point is reported as `distance` would report the first
    pair that holds one.
    """
    check_arity(space, points)
    return farthest(kernels(space)[0], points)


def farthest(metric, points) -> float:
    """Largest metric(p, q) over the pairs of points, in diameter's order."""
    # max() takes a later value only if strictly greater, so NaN is skipped
    return max(chain((0.0,), starmap(metric, combinations(points, 2))))


def check_arity(space: Space, points) -> None:
    """Raise for the first pair (0, k), or (0, 1), that holds a point of
    the wrong length, naming both lengths; no-op in trees and below two
    points."""
    if space.kind != TREE and len(points) >= 2:
        n = coordinate_count(space)
        for k, p in enumerate(points):
            if len(p) != n:
                raise GeometryError(
                    f"expected {n} coordinates, "
                    f"got {len(points[0])} and {len(points[k or 1])}"
                )


def _hyp_distance(x, y) -> float:
    """Hyperbolic distance of two sheet points of equal length.

    <x-y, x-y> is summed as _mink sums it, one difference at a time.
    """
    d = x[0] - y[0]
    q = -d * d
    for i in range(1, len(x)):
        d = x[i] - y[i]
        q += d * d
    if q <= 0.0:
        return 0.0
    return 2.0 * math.asinh(0.5 * math.sqrt(q))


def distance(space: Space, x, y) -> float:
    """Geodesic distance.  Arity is checked here; deeper point validity
    (on-sheet, offsets in range) is enforced where points enter the
    system, via canonical_point in the aggregate constructors."""
    check_arity(space, (x, y))
    return kernels(space)[0](x, y)


def geodesic_point(space: Space, x, y, t: float):
    """Point at arclength fraction t in [0, 1] from x toward y."""
    if not 0.0 <= t <= 1.0:
        raise GeometryError(f"geodesic parameter must lie in [0, 1], got {t}")
    if t == 0.0:
        return x
    if t == 1.0:
        return y
    check_arity(space, (x, y))
    return kernels(space)[1](x, y, t)


def _euclid_geodesic(x, y, t: float):
    return tuple(a + t * (b - a) for a, b in zip(x, y))


def _hyp_geodesic(x, y, t: float):
    d = _hyp_distance(x, y)
    if d < 1e-14:
        return x
    # unit tangent at x toward y, written to avoid cancellation for small d
    cm1 = 2.0 * math.sinh(0.5 * d) ** 2
    sh = math.sinh(d)
    c, s = math.cosh(t * d), math.sinh(t * d)
    return _project_hyperboloid(
        [c * a + s * (((b - a) - cm1 * a) / sh) for a, b in zip(x, y)]
    )


def _tree_geodesic(tree: Tree, x, y, t: float):
    route = tree._route(x, y)
    if route[0] == 0.0:
        return x
    return tree._follow(x, y, route, t * route[0])


def ray_point(space: Space, x, xi: IdealPoint, s: float):
    """Unit-speed point at arclength s >= 0 along the ray from x toward xi."""
    if s < 0.0:
        raise GeometryError(f"ray parameter must be nonnegative, got {s}")
    _check_length(space, x)
    if s == 0.0:
        return x
    if space.kind == EUCLIDEAN:
        return tuple(a + s * u for a, u in zip(x, xi.vector))
    if space.kind == HYPERBOLIC:
        alpha = -_mink_exact(x, xi.vector)
        if alpha <= 0.0:
            raise GeometryError("ideal vector points away from the sheet")
        # Rounding decay or grow only slides the point along the null xi.
        # The xi spine grows like exp(s); summing exact products keeps the
        # low bits that carry the transverse part until the final rounding.
        decay = math.exp(-s)
        grow = math.sinh(s) / alpha
        comps = []
        for a, n in zip(x, xi.vector):
            p, e = _two_product(decay, a)
            q, f = _two_product(grow, n)
            hi, lo = _two_sum(p, q)
            comps.append(_two_sum(hi, lo + e + f))
        # The level -<r, xi> is alpha e^-s; rounding the coordinates moves it
        # by up to half of `grain`, so below that no double carries it.
        # r0 and xi0 are the largest components, so grain is below
        # 2^-51 r0 xi0 (n + 1) (a factor 2 to spare) and is summed only when
        # the level comes down to that bound.
        level = alpha * decay
        if level <= 2.0**-51 * comps[0][0] * xi.vector[0] * len(comps):
            grain = math.fsum(
                math.ulp(hi) * abs(n) for (hi, _), n in zip(comps, xi.vector)
            )
            if not level > grain:
                raise GeometryError(
                    f"ray point at s = {s} is too far out: its level {level:.3e} "
                    f"is below the rounding {grain:.3e} of its coordinates"
                )
        if s >= 5.0 and len(comps) <= 8:
            return _round_minimizing_level(comps, xi.vector, level)
        return tuple(hi for hi, _ in comps)
    return space.tree.ray(x, xi.leaf, s)


def _round_minimizing_level(comps, xi_vec, target: float) -> tuple[float, ...]:
    """Round (hi, lo) double-double components to doubles, choosing
    per-component directions that best preserve -<r, xi> = target.

    Far along a ray the per-component rounding granularity exceeds the
    horofunction residual being represented, so the nearest rounding is
    not the best one; every candidate stays within one ulp of the true
    point, leaving all metric identities untouched.
    """
    nearest = [hi for hi, _ in comps]
    alts = [
        math.nextafter(hi, math.inf if lo > 0.0 else -math.inf) for hi, lo in comps
    ]
    cands = (
        tuple(alts[i] if mask >> i & 1 else nearest[i] for i in range(len(nearest)))
        for mask in range(1 << len(nearest))
    )
    return min(cands, key=lambda c: abs(_mink_exact(c, xi_vec) + target))


def busemann(space: Space, xi: IdealPoint, o, x) -> float:
    """Horofunction level of x: 0 at o, decreasing at unit rate toward xi."""
    _check_length(space, x)
    if space.kind == EUCLIDEAN:
        return -_left_sum((a - b) * u for a, b, u in zip(x, o, xi.vector))
    if space.kind == HYPERBOLIC:
        alpha = -_mink_exact(x, xi.vector)
        if alpha <= 0.0:
            raise GeometryError("ideal vector points away from the sheet")
        beta = -_mink_exact(o, xi.vector)
        return math.log(alpha) - math.log(beta)
    tree = space.tree
    return tree.depth_toward_end(x, xi.leaf) - tree.depth_toward_end(o, xi.leaf)


def ray_separation(space: Space, x, y, xi: IdealPoint, s: float) -> float:
    """distance(ray(x, xi, s), ray(y, xi, s)), computed stably per space."""
    if space.kind == EUCLIDEAN:
        return distance(space, x, y)  # parallel rays keep their separation
    if space.kind == HYPERBOLIC:
        d0 = distance(space, x, y)
        alpha = -_mink(x, xi.vector)
        beta = -_mink(y, xi.vector)
        if alpha <= 0.0 or beta <= 0.0:
            raise GeometryError("ideal vector points away from the sheet")
        gap = math.log(alpha) - math.log(beta)
        a2 = math.sinh(0.5 * d0) ** 2
        g2 = math.sinh(0.5 * gap) ** 2
        cm1 = 2.0 * (g2 + (a2 - g2) * math.exp(-2.0 * s))
        if cm1 <= 0.0:
            return 0.0
        return 2.0 * math.asinh(math.sqrt(0.5 * cm1))
    return space.tree.distance(space.tree.ray(x, xi.leaf, s), space.tree.ray(y, xi.leaf, s))


# -- seeded generation -------------------------------------------------------


def sub_rng(seed: int, index: int = 0) -> Generator:
    """Per-sample generator seeded by the pair (seed, index).

    Distinct pairs give independent streams, so no two seeds share a
    sample, and each sample depends on nothing but its own pair, so
    parallel and sequential runs agree.
    """
    from numpy.random import default_rng  # only seeded draws load numpy
    return default_rng([int(seed) & _SEED_MASK, int(index) & _SEED_MASK])


def draw_point(space: Space, rng: Generator, scale: float):
    """One point within distance `scale` of the basepoint."""
    if scale <= 0.0:
        raise GeometryError(f"scale must be positive, got {scale}")
    if space.kind == EUCLIDEAN:
        direction = _unit_gauss(rng, space.dim)
        r = scale * float(rng.random())
        return tuple(r * u for u in direction)
    if space.kind == HYPERBOLIC:
        direction = _unit_gauss(rng, space.dim)
        r = scale * float(rng.random())
        c, s = _cosh_sinh(r, "scale", scale)
        return _project_hyperboloid((c,) + tuple(s * u for u in direction))
    tree = space.tree
    target = tree.random_physical_point(rng)
    d = tree.distance(tree.basepoint, target)
    if d <= scale:
        return target
    return tree.walk(tree.basepoint, target, scale * float(rng.random()))


def random_point(space: Space, seed: int, scale: float):
    return draw_point(space, sub_rng(seed), scale)


def draw_ideal(space: Space, rng: Generator) -> IdealPoint:
    if space.kind == EUCLIDEAN:
        return IdealPoint(vector=_unit_gauss(rng, space.dim))
    if space.kind == HYPERBOLIC:
        return IdealPoint(vector=_null_vector((1.0,) + _unit_gauss(rng, space.dim)))
    leaves = sorted(space.tree.ideal_leaves)
    if not leaves:
        raise GeometryError("tree has no marked ideal leaves")
    return IdealPoint(leaf=leaves[int(rng.integers(len(leaves)))])


def random_shift(space: Space, x, step: float, rng: Generator):
    """Geodesic exponential step of size `step` in a random direction."""
    if step < 0.0:
        raise GeometryError(f"step must be nonnegative, got {step}")
    if step == 0.0:
        return x
    if space.kind == EUCLIDEAN:
        direction = _unit_gauss(rng, space.dim)
        return tuple(a + step * u for a, u in zip(x, direction))
    if space.kind == HYPERBOLIC:
        while True:
            g = tuple(float(c) for c in rng.normal(size=space.dim + 1))
            gx = _mink(g, x)
            tangent = tuple(gi + gx * a for gi, a in zip(g, x))
            norm2 = _mink(tangent, tangent)
            if norm2 > 1e-12:
                break
        norm = math.sqrt(norm2)
        tangent = tuple(w / norm for w in tangent)
        c, s = _cosh_sinh(step, "step", step)
        return _project_hyperboloid(tuple(c * a + s * w for a, w in zip(x, tangent)))
    return space.tree.random_walk_shift(x, step, rng)


def _cosh_sinh(r: float, name: str, value: float):
    """(cosh r, sinh r), or an error naming the parameter that set r."""
    try:
        return math.cosh(r), math.sinh(r)
    except OverflowError:
        raise GeometryError(f"{name} = {value} overflows: cosh({r}) is out of range") from None


def _unit_gauss(rng: Generator, dim: int) -> tuple[float, ...]:
    while True:
        g = rng.normal(size=dim)
        norm = math.sqrt(float(g.dot(g)))
        if norm > 1e-12:
            return tuple(float(c / norm) for c in g)
