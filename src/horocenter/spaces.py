"""Three model Hadamard spaces behind one functional interface.

Every operation takes a :class:`Space` descriptor first.  The per-kind
choice of pair measure (the quadrance <x-y, x-y> in H^n), distance and
geodesic interpolator lives only in ``kernels``, and of horofunction
level and ray toward an ideal point only in ``horofunction``.
``distance``, ``geodesic_point``, ``diameter``, ``busemann`` and
``ray_point`` check their arguments and then call these callables, which
a caller that makes many calls takes once.  The spaces:

* ``euclidean`` -- R^n, points are coordinate tuples.
* ``hyperbolic`` -- the hyperboloid sheet {<x,x> = -1, x0 > 0} in
  (n+1)-dimensional Minkowski space with signature (-,+,...,+).  Geodesics
  and rays have sinh/cosh closed forms.  Geodesic points, draws and shifts
  are computed on their spatial coordinates y and lifted to
  (sqrt(1 + |y|^2), y), which lies on the sheet to rounding out to where
  x0^2 overflows; their error is the error of y.
* ``tree`` -- a finite metric tree with marked ends (see ``trees``).

Points and ideal vectors have ``coordinate_count`` entries, n in R^n and
n + 1 in H^n.  ``canonical_point`` is the one point check, which every
input point passes once, in ``Configuration.of`` or ``ConvexBody.of``.
Past it only lengths are checked: ``busemann`` and ``ray_point`` check
their point's, and ``check_arity`` those of ``distance``,
``geodesic_point``, ``diameter``, ``ray_separation``, ``center_of_mass``
and ``hausdorff``.  An ideal point is checked in one place:
``horofunction`` builds its pair from what ``validate_ideal`` returns, and
every level, ray and selector reads through such a pair, so the library
refuses what ``validate_ideal`` refuses, with its message.

Ideal points are unit directions (euclidean), future-pointing null
vectors of any positive scale (hyperbolic), or marked leaf ids (tree).
Horofunction levels are 0 at the space's ``basepoint`` -- the origin in
R^n, (1, 0, ..., 0) in H^n, the space document's ``basepoint`` in a
tree -- and decrease at unit rate along rays toward the ideal point, so
horoballs {b <= t} expand as t grows.

Hyperbolic closed forms used below:

* distance(x, y) = 2 asinh(sqrt(<x-y, x-y>)/2), which is exact for nearby
  points where acosh(-<x,y>) loses half the significand;
* alpha = -<x, xi> for a null xi, a quotient of positive terms over the
  spatial parts (``_hyp_alpha``), so a level log(alpha) does not cancel;
* ray(x, xi, s) = exp(-s) x + sinh(s) xi / alpha, computed on the spatial
  parts and lifted (``_hyp_ray``);
* in H^2 and H^3, levels and rays read through unrolled copies of
  ``_hyp_alpha`` and ``_hyp_ray`` with the same bits, as geodesics and
  quadrances do through unrolled copies of the generic kernels;
* separation of two rays toward the same end,
  cosh d(s) - 1 = 2 sinh^2(g/2) + 2 (sinh^2(d0/2) - sinh^2(g/2)) e^{-2s}
  with g the horofunction gap b(x) - b(y) and sinh^2(d0/2) = <x-y, x-y>/4
  for d0 = distance(x, y).  The naive route (interpolate far ray points,
  then measure) cancels catastrophically past s ~ 8; this form is stable
  for every s.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import chain, combinations, starmap

from .errors import GeometryError
from .trees import Tree, TreePoint
from .values import Frozen

EUCLIDEAN = "euclidean"
HYPERBOLIC = "hyperbolic"
TREE = "tree"

HYPERBOLOID_TOL = 1e-9  # relative to x0^2, the scale of the rounding in <x,x>
MAX_DIM = 1024  # keeps coordinate tuples and draws small; far above desk scale
IDEAL_TOL = 1e-9
_T_BITS = 26  # fractional bits of the stereographic parameter of a null vector
_RAY_X0_MAX, _RAY_LEVEL_TOL = 2.0**39, 3.5e-8  # see ray_point

_SEED_MASK = 0x7FFF_FFFF_FFFF_FFFF


class Space(Frozen):
    """Descriptor for one of the three model spaces."""

    __slots__ = ("kind", "dim", "tree")

    def __init__(self, kind: str, dim: int = 0, tree: Tree | None = None):
        if kind == TREE:
            if not isinstance(tree, Tree):
                raise GeometryError(f"tree must be a Tree in a tree space, got {tree!r}")
        elif kind not in (EUCLIDEAN, HYPERBOLIC):
            raise GeometryError(f"kind must be euclidean, hyperbolic or tree, got {kind!r}")
        elif isinstance(dim, bool) or not isinstance(dim, int):
            raise GeometryError(f"dim must be an integer, got {dim!r}")
        elif not 1 <= dim <= MAX_DIM:
            raise GeometryError(f"dim must lie in [1, {MAX_DIM}], got {dim}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "tree", tree)

    @classmethod
    def euclidean(cls, dim: int) -> "Space":
        return cls(EUCLIDEAN, dim)

    @classmethod
    def hyperbolic(cls, dim: int) -> "Space":
        return cls(HYPERBOLIC, dim)

    @classmethod
    def tree_space(cls, edges, ideal_leaves=(), basepoint=None) -> "Space":
        return cls(TREE, 0, Tree(edges, ideal_leaves, basepoint))


class IdealPoint(Frozen):
    """Boundary point: a direction, a null vector, or a marked leaf id."""

    __slots__ = ("vector", "leaf")
    _defaults = {"vector": None, "leaf": None}

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


def _hyp_alpha(x, v) -> float:
    """-<x, v> = x0 v0 - y.v_s for a sheet point x and a v read as null,
    as validate_ideal returns it, with v0 in [1, 2); an error unless it is
    positive.

    When y.v_s > 0 that cancels; on the lift the Lagrange identity gives
    (v0^2 + |y ^ v_s|^2) / (x0 v0 + y.v_s) with |y ^ v_s|^2 =
    v0^2 |y - c v_s|^2, c = y.v_s / v0^2: a quotient of positive terms,
    here divided through by v0, so v0^2 is never formed.  Rounding c v_i
    moves y_i - c v_i by up to 2^-53 |y|, near the line toward v as much
    as the difference, so past x0 = 2^12 |y - c v_s|^2 is summed exactly.
    """
    x0, v0 = x[0], v[0]
    dot = 0.0  # _left_sum, without its frame
    for i in range(1, len(x)):
        dot += x[i] * v[i]
    if dot <= 0.0:  # no cancellation: x0 v0 and -dot share a sign
        alpha = x0 * v0 - dot
    else:
        t = dot / v0
        if x0 > 2.0**12:
            from fractions import Fraction  # far levels only
            y, w = [Fraction(a) for a in x[1:]], [Fraction(b) for b in v[1:]]
            c = sum(a * b for a, b in zip(y, w)) / Fraction(v0) ** 2
            q = float(sum((a - c * b) ** 2 for a, b in zip(y, w)))
        else:
            c, q = t / v0, 0.0
            for i in range(1, len(x)):
                d = x[i] - c * v[i]
                q += d * d
        alpha = v0 * (1.0 + q) / (x0 + t)
    if not alpha > 0.0:  # NaN too; v passed validate_ideal, so x is at fault
        raise GeometryError(f"point {tuple(x)} is off the hyperboloid sheet")
    return alpha


# _hyp_alpha unrolled for H^2 and H^3, operation for operation, so they give
# the same bits: the dot drops the generic sum's leading 0.0 + and so can be
# -0.0 where that sum is 0.0, which only the dot <= 0.0 branch sees, where
# x0 v0 - dot differs at most in the sign of a zero, refused either way; q
# drops a 0.0 + of a square, which never changes it.  Past x0 = 2^12 the
# cancelling branch is the generic one's exact sum.  Change them with
# _hyp_alpha


def _h2_alpha(x, v) -> float:
    x0, x1, x2 = x
    v0, v1, v2 = v
    dot = x1 * v1 + x2 * v2
    if dot <= 0.0:
        alpha = x0 * v0 - dot
    elif x0 > 2.0**12:
        return _hyp_alpha(x, v)
    else:
        t = dot / v0
        c = t / v0
        d1, d2 = x1 - c * v1, x2 - c * v2
        alpha = v0 * (1.0 + (d1 * d1 + d2 * d2)) / (x0 + t)
    if not alpha > 0.0:
        raise GeometryError(f"point {tuple(x)} is off the hyperboloid sheet")
    return alpha


def _h3_alpha(x, v) -> float:
    x0, x1, x2, x3 = x
    v0, v1, v2, v3 = v
    dot = x1 * v1 + x2 * v2 + x3 * v3
    if dot <= 0.0:
        alpha = x0 * v0 - dot
    elif x0 > 2.0**12:
        return _hyp_alpha(x, v)
    else:
        t = dot / v0
        c = t / v0
        d1, d2, d3 = x1 - c * v1, x2 - c * v2, x3 - c * v3
        alpha = v0 * (1.0 + (d1 * d1 + d2 * d2 + d3 * d3)) / (x0 + t)
    if not alpha > 0.0:
        raise GeometryError(f"point {tuple(x)} is off the hyperboloid sheet")
    return alpha


def _is_null(v) -> bool:
    """Whether <v, v> is exactly 0, in integers over a common denominator."""
    ratios = [c.as_integer_ratio() for c in v]
    bits = max(d.bit_length() for _, d in ratios)
    m = [n << bits - d.bit_length() for n, d in ratios]
    return m[0] * m[0] == sum(k * k for k in m[1:])


def _checked_null(v) -> list[float]:
    """Raise unless v is finite, future pointing and null to IDEAL_TOL v0^2;
    return v scaled exactly, by a power of two, to v0 in [1, 2)."""
    if len(v) < 2 or not all(math.isfinite(c) for c in v):
        raise GeometryError(f"ideal vector must have >= 2 finite components, got {v}")
    if v[0] <= 0.0:
        raise GeometryError("ideal vector must be future pointing")
    u = [math.ldexp(c, 1 - math.frexp(v[0])[1]) for c in v]
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
    if _is_null(v):
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


def _lift(y, name: str, value: float) -> tuple[float, ...]:
    """The sheet point (sqrt(1 + |y|^2), y) over spatial coordinates y, or,
    past the range canonical_point accepts, an error naming `name` = value."""
    x0 = math.hypot(1.0, *y)
    if not x0 * x0 < math.inf:  # <x,x> overflows, or y holds inf or nan
        raise GeometryError(f"{name} = {value} overflows: the point's x0^2 = {x0 * x0}")
    return (x0,) + tuple(y)


def coordinate_count(space: Space) -> int:
    """Length of a point or ideal vector: dim in R^n, dim + 1 in H^n."""
    return space.dim + 1 if space.kind == HYPERBOLIC else space.dim


def _check_length(space: Space, v, unit: str = "coordinates"):
    """v, once its length is checked."""
    if space.kind != TREE and len(v) != coordinate_count(space):
        raise GeometryError(f"expected {coordinate_count(space)} {unit}, got {len(v)}")
    return v


def canonical_point(space: Space, p):
    """p as the aggregates store it, or an error: the type, finiteness,
    length and sheet checks here, the edge and offset checks in
    Tree.canonical."""
    if space.kind == TREE:
        if not isinstance(p, TreePoint):
            raise GeometryError(f"tree space expects TreePoint, got {type(p).__name__}")
        return space.tree.canonical(p)
    if not isinstance(p, tuple) or not all(isinstance(c, float) for c in p):
        raise GeometryError("point must be a tuple of floats")
    if not all(map(math.isfinite, p)):
        raise GeometryError(f"point coordinates must be finite, got {p}")
    _check_length(space, p)
    if space.kind == HYPERBOLIC:
        if p[0] <= 0.0:
            raise GeometryError("hyperboloid point must have positive first coordinate")
        tol = HYPERBOLOID_TOL * p[0] * p[0]  # an overflowing x0^2 accepts nothing
        if not abs(_mink(p, p) + 1.0) <= tol < math.inf:
            raise GeometryError(f"point is off the hyperboloid: <x,x> = {_mink(p, p)}")
    if type(p) is tuple and all(type(c) is float for c in p):
        return p  # a body or configuration shares it: no copy per aggregate
    return tuple(map(float, p))


def validate_ideal(space: Space, xi: IdealPoint):
    """What horofunction builds its pair from, or an error: the unit
    direction, the marked leaf, or the null vector scaled exactly, by a
    power of two, to v0 in [1, 2).  Every vector IdealPoint.null_vector
    snaps, and every draw_ideal, already has v0 = 1 + |t|^2 there and
    keeps its bits.  Levels and rays read only ratios of v, so v and
    v 2^k give the same bits; in that range _hyp_alpha neither under- nor
    overflows for x0 < 2^512, the range _lift keeps."""
    if space.kind == TREE:
        if xi.leaf is None:
            raise GeometryError("tree ideal point must name a marked leaf")
        space.tree.end(xi.leaf)
        return xi.leaf
    if xi.vector is None:
        raise GeometryError(f"{space.kind} ideal point needs a vector")
    v = xi.vector
    _check_length(space, v, "components")
    if space.kind == EUCLIDEAN:
        norm = math.sqrt(sum(c * c for c in v))
        if not abs(norm - 1.0) <= 1e-12:
            raise GeometryError(f"direction must be unit, |u| = {norm}")
        return v
    return _checked_null(v)


def normalize_ideal(space: Space, xi: IdealPoint) -> IdealPoint:
    """Snap a hyperbolic ideal vector to an exactly null one; no-op otherwise."""
    if space.kind != HYPERBOLIC or xi.vector is None:
        return xi
    return IdealPoint(vector=_null_vector(xi.vector))


# -- metric and geodesics ---------------------------------------------------


def kernels(space: Space):
    """The space's (measure, to_distance, interpolate).

    measure(x, y) is the quadrance <x-y, x-y> in H^n and the distance
    elsewhere, and to_distance(measure(x, y)) is the distance.
    to_distance is nondecreasing, so it commutes with max and min: a set
    of pairs pays one sqrt and asinh, at its extreme.  interpolate(x, y,
    t, d=None) is the point at arclength fraction t from x toward y, for
    0 < t < 1, where d is their distance if the caller has it (else the
    H^n one takes the quadrance itself, not through measure).  None of
    them checks its arguments.  `distance` and `geodesic_point` call these
    after their checks, and a caller that makes many calls in one space
    can take them once.

    H^2 and H^3, where the center recursion spends its time, get
    `_h2_quadrance`/`_h2_geodesic` and `_h3_quadrance`/`_h3_geodesic`,
    unrolled copies of the generic pair with the same bits; a
    wrong-length point raises from their unpacking, so callers check
    arity first.  The names are read from this module at each call, so a
    wrapper installed there sees every call.
    """
    if space.kind == EUCLIDEAN:
        return math.dist, float, _euclid_geodesic  # float(d) is d
    if space.kind == HYPERBOLIC:
        if space.dim == 2:
            return _h2_quadrance, _quadrance_distance, _h2_geodesic
        if space.dim == 3:
            return _h3_quadrance, _quadrance_distance, _h3_geodesic
        return _hyp_quadrance, _quadrance_distance, _hyp_geodesic
    return space.tree.distance, float, partial(_tree_geodesic, space.tree)


def diameter(space: Space, points) -> float:
    """Largest pairwise distance of a finite point set (0 below two points).

    Pairs are measured in the order (0, 1), (0, 2), ..., (1, 2), ..., and
    a wrong-length point is reported as `distance` would report the first
    pair that holds one.
    """
    check_arity(space, points)
    measure, to_distance, _ = kernels(space)
    return farthest(to_distance, starmap(measure, combinations(points, 2)))


def farthest(to_distance, measures) -> float:
    """The distance of the largest of a set of pair measures (0.0 if none)."""
    # max() takes a later value only if strictly greater, so NaN is skipped
    return to_distance(max(chain((0.0,), measures)))


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


def _hyp_quadrance(x, y) -> float:
    """<x-y, x-y> of two points of equal length, summed as _mink sums it,
    one difference at a time, so it does not cancel like <x,x> does."""
    d = x[0] - y[0]
    q = -d * d
    for i in range(1, len(x)):
        d = x[i] - y[i]
        q += d * d
    return q


def _quadrance_distance(q: float) -> float:
    """2 asinh(sqrt(q)/2), the distance at quadrance q, nondecreasing in q."""
    return 0.0 if q <= 0.0 else 2.0 * math.asinh(0.5 * math.sqrt(q))


def distance(space: Space, x, y) -> float:
    """Geodesic distance.  Arity is checked here; the rest of a point's
    validity (on-sheet, offsets in range) is checked once, where it
    enters a Configuration or ConvexBody, by canonical_point."""
    check_arity(space, (x, y))
    measure, to_distance, _ = kernels(space)
    return to_distance(measure(x, y))


def geodesic_point(space: Space, x, y, t: float):
    """Point at arclength fraction t in [0, 1] from x toward y."""
    if not 0.0 <= t <= 1.0:
        raise GeometryError(f"geodesic parameter must lie in [0, 1], got {t}")
    if t == 0.0:
        return x
    if t == 1.0:
        return y
    check_arity(space, (x, y))
    return kernels(space)[2](x, y, t)


def _euclid_geodesic(x, y, t: float, d=None):
    return tuple(a + t * (b - a) for a, b in zip(x, y))


def _hyp_geodesic(x, y, t: float, d=None):
    # one frame, as the recursion's hottest call: it repeats _hyp_quadrance,
    # _quadrance_distance and _lift operation for operation, and _h2_geodesic
    # and _h3_geodesic repeat it; change them together
    n = len(x)
    if d is None:
        e = x[0] - y[0]
        q = -e * e
        for i in range(1, n):
            e = x[i] - y[i]
            q += e * e
        d = 0.0 if q <= 0.0 else 2.0 * math.asinh(0.5 * math.sqrt(q))
    if d < 1e-14:
        return x
    # (sinh((1-t)d) x + sinh(td) y) / sinh d, with weights in [0, 1]
    sh = math.sinh(d)
    a, b = math.sinh((1.0 - t) * d) / sh, math.sinh(t * d) / sh
    s = []
    for i in range(1, n):
        s.append(a * x[i] + b * y[i])
    x0 = math.hypot(1.0, *s)
    if not x0 * x0 < math.inf:
        raise GeometryError(f"distance = {d} overflows: the point's x0^2 = {x0 * x0}")
    return (x0, *s)


# _hyp_quadrance and _hyp_geodesic unrolled for H^2 and H^3, operation for
# operation (each sum left to right, from -e0*e0), so they give the same bits;
# change them with the generic pair


def _h2_quadrance(x, y) -> float:
    x0, x1, x2 = x
    y0, y1, y2 = y
    e0, e1, e2 = x0 - y0, x1 - y1, x2 - y2
    return -e0 * e0 + e1 * e1 + e2 * e2


def _h2_geodesic(x, y, t: float, d=None):
    x0, x1, x2 = x
    y0, y1, y2 = y
    if d is None:
        e0, e1, e2 = x0 - y0, x1 - y1, x2 - y2
        q = -e0 * e0 + e1 * e1 + e2 * e2
        d = 0.0 if q <= 0.0 else 2.0 * math.asinh(0.5 * math.sqrt(q))
    if d < 1e-14:
        return x
    sh = math.sinh(d)
    a, b = math.sinh((1.0 - t) * d) / sh, math.sinh(t * d) / sh
    s1, s2 = a * x1 + b * y1, a * x2 + b * y2
    z0 = math.hypot(1.0, s1, s2)
    if not z0 * z0 < math.inf:
        raise GeometryError(f"distance = {d} overflows: the point's x0^2 = {z0 * z0}")
    return (z0, s1, s2)


def _h3_quadrance(x, y) -> float:
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    e0, e1, e2, e3 = x0 - y0, x1 - y1, x2 - y2, x3 - y3
    return -e0 * e0 + e1 * e1 + e2 * e2 + e3 * e3


def _h3_geodesic(x, y, t: float, d=None):
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    if d is None:
        e0, e1, e2, e3 = x0 - y0, x1 - y1, x2 - y2, x3 - y3
        q = -e0 * e0 + e1 * e1 + e2 * e2 + e3 * e3
        d = 0.0 if q <= 0.0 else 2.0 * math.asinh(0.5 * math.sqrt(q))
    if d < 1e-14:
        return x
    sh = math.sinh(d)
    a, b = math.sinh((1.0 - t) * d) / sh, math.sinh(t * d) / sh
    s1, s2, s3 = a * x1 + b * y1, a * x2 + b * y2, a * x3 + b * y3
    z0 = math.hypot(1.0, s1, s2, s3)
    if not z0 * z0 < math.inf:
        raise GeometryError(f"distance = {d} overflows: the point's x0^2 = {z0 * z0}")
    return (z0, s1, s2, s3)


def _tree_geodesic(tree: Tree, x, y, t: float, d=None):
    route = tree._route(x, y)
    if route[0] == 0.0:
        return x
    return tree._follow(x, y, route, t * route[0])


def horofunction(space: Space, xi: IdealPoint):
    """(level, ray) toward xi, once xi passes validate_ideal: busemann(space,
    xi, x) and ray_point(space, x, xi, s) are level(x) and ray(x, s) after
    their point checks, and a caller that reads many levels builds the pair
    once.  In H^n log(xi0) is taken here, once.  ray(x, 0) is x.

    H^2 and H^3, where `select` reads its levels and rays, get `_h2_alpha`
    and `_h2_ray`, and `_h3_alpha` and `_h3_ray`: unrolled copies of
    `_hyp_alpha` and `_hyp_ray` with the same bits, read from this module
    at each call, as `kernels` reads its kernels.  A wrong-length point
    raises from their unpacking, so callers check lengths first.
    """
    v = validate_ideal(space, xi)
    if space.kind == EUCLIDEAN:
        def level(x):
            return -_left_sum(a * c for a, c in zip(x, v))
        def ray(x, s):
            return tuple(a + s * c for a, c in zip(x, v)) if s else x
    elif space.kind == HYPERBOLIC:
        if space.dim == 2:
            alpha, step = _h2_alpha, _h2_ray
        elif space.dim == 3:
            alpha, step = _h3_alpha, _h3_ray
        else:
            alpha, step = _hyp_alpha, _hyp_ray
        log_v0 = math.log(v[0])
        def level(x):  # -<basepoint, v> = v0 exactly: alpha's dot is 0
            return math.log(alpha(x, v)) - log_v0
        ray = partial(step, v)
    else:
        tree = space.tree
        def level(x):
            return tree.depth_toward_end(x, v) - tree.base_depth[v]
        def ray(x, s):
            return tree.ray(x, v, s) if s else x
    return level, ray


def _hyp_ray(v, x, s: float):
    """The ray point at arclength s from x toward the null vector v, as
    validate_ideal returns it (see ray_point); x itself at s = 0."""
    if not s:
        return x
    sh = _sinh(s, "s", s)
    alpha = _hyp_alpha(x, v)
    decay, grow = math.exp(-s), sh / alpha
    r = _lift([decay * a + grow * n for a, n in zip(x[1:], v[1:])], "s", s)
    return _read_back(r, v, alpha * decay, s) if r[0] > _RAY_X0_MAX else r


def _read_back(r, v, want: float, s: float):
    """r, once its level alpha reads within _RAY_LEVEL_TOL of want."""
    read = _hyp_alpha(r, v)
    if not abs(read - want) <= _RAY_LEVEL_TOL * want:
        off = f"its level reads {read:.3e}, not {want:.3e}"
        raise GeometryError(f"ray point at s = {s} is too far out: {off}")
    return r


# _hyp_ray unrolled for H^2 and H^3, operation for operation, with _lift
# written out; change them with _hyp_ray


def _h2_ray(v, x, s: float):
    if not s:
        return x
    sh = _sinh(s, "s", s)
    alpha = _h2_alpha(x, v)
    decay, grow = math.exp(-s), sh / alpha
    _, x1, x2 = x
    _, v1, v2 = v
    y1, y2 = decay * x1 + grow * v1, decay * x2 + grow * v2
    y0 = math.hypot(1.0, y1, y2)
    if not y0 * y0 < math.inf:
        raise GeometryError(f"s = {s} overflows: the point's x0^2 = {y0 * y0}")
    r = (y0, y1, y2)
    return _read_back(r, v, alpha * decay, s) if y0 > _RAY_X0_MAX else r


def _h3_ray(v, x, s: float):
    if not s:
        return x
    sh = _sinh(s, "s", s)
    alpha = _h3_alpha(x, v)
    decay, grow = math.exp(-s), sh / alpha
    _, x1, x2, x3 = x
    _, v1, v2, v3 = v
    y1, y2, y3 = decay * x1 + grow * v1, decay * x2 + grow * v2, decay * x3 + grow * v3
    y0 = math.hypot(1.0, y1, y2, y3)
    if not y0 * y0 < math.inf:
        raise GeometryError(f"s = {s} overflows: the point's x0^2 = {y0 * y0}")
    r = (y0, y1, y2, y3)
    return _read_back(r, v, alpha * decay, s) if y0 > _RAY_X0_MAX else r


def ray_point(space: Space, x, xi: IdealPoint, s: float):
    """Unit-speed point at arclength s >= 0 along the ray from x toward xi.

    In H^n it is the lift of exp(-s) y + sinh(s) xi_s / alpha, whose level
    alpha e^-s the rounding of y moves by up to 2.3 (2^-52 x0)^2 relative.
    Past x0 = 2^39, where that passes 3.5e-8, the level is read back, and
    ray_point raises naming s if it is off by more.  xi is checked as
    busemann checks it, at s = 0 too."""
    if not 0.0 <= s < math.inf:
        raise GeometryError(f"ray parameter s must be finite and nonnegative, got {s}")
    _check_length(space, x)
    return horofunction(space, xi)[1](x, s)


def busemann(space: Space, xi: IdealPoint, x) -> float:
    """Horofunction level of x: 0 at basepoint(space) -- the origin,
    (1, 0, ..., 0) or the tree's basepoint -- decreasing at unit rate
    toward xi.  xi passes validate_ideal or is refused with its message;
    hyperbolic xi is read as exactly null, as every constructor makes it,
    so a raw IdealPoint(vector=v) that is null only to IDEAL_TOL gets the
    level as if it were null."""
    _check_length(space, x)
    return horofunction(space, xi)[0](x)


def ray_separation(space: Space, x, y, xi: IdealPoint, s: float) -> float:
    """distance(ray(x, xi, s), ray(y, xi, s)), computed stably per space."""
    level, ray = horofunction(space, xi)  # checks xi in every space
    if space.kind == EUCLIDEAN:
        return distance(space, x, y)  # parallel rays keep their separation
    if space.kind == HYPERBOLIC:
        check_arity(space, (x, y))
        a2 = 0.25 * max(_hyp_quadrance(x, y), 0.0)  # sinh^2(d0/2)
        g2 = math.sinh(0.5 * (level(x) - level(y))) ** 2
        cm1 = 2.0 * (g2 + (a2 - g2) * math.exp(-2.0 * s))
        if cm1 <= 0.0:
            return 0.0
        return 2.0 * math.asinh(math.sqrt(0.5 * cm1))
    return space.tree.distance(ray(x, s), ray(y, s))


# -- seeded generation -------------------------------------------------------
# `Stream` below is stream.Stream; annotations are never evaluated, so
# only a draw loads it.


def checked_seed(seed, name: str = "seed") -> int:
    """seed as an int, or an error naming it as `name` unless it lies in
    [0, 2**63), where no two seeds share a stream: masked to 63 bits, -1
    would draw the samples of 2**63 - 1, and 2**63 those of 0."""
    seed = int(seed)
    if not 0 <= seed <= _SEED_MASK:
        raise GeometryError(f"{name} must lie in [0, 2**63), got {seed}")
    return seed


def sub_rng(seed: int, index: int = 0) -> Stream:
    """Per-sample stream seeded by the pair (seed, index): the draws of
    numpy.random.default_rng([seed, index]), with the seed and the index
    each refused outside [0, 2**63) (`checked_seed`).

    Distinct pairs give independent streams, so no two seeds share a
    sample, and each sample depends on nothing but its own pair, so
    parallel and sequential runs agree.
    """
    from .stream import Stream  # only seeded draws load the ziggurat tables
    return Stream(checked_seed(seed), checked_seed(index, "index"))


def draw_point(space: Space, rng: Stream, scale: float):
    """One point within distance `scale` of the basepoint."""
    if not 0.0 < scale < math.inf:
        raise GeometryError(f"scale must be positive and finite, got {scale}")
    if space.kind != TREE:
        direction = _unit_gauss(rng, space.dim)
        r = scale * float(rng.random())
        if space.kind == EUCLIDEAN:
            return tuple(r * u for u in direction)
        s = _sinh(r, "scale", scale)
        return _lift([s * u for u in direction], "scale", scale)
    tree = space.tree
    target = tree.random_physical_point(rng)
    d = tree.distance(tree.basepoint, target)
    if d <= scale:
        return target
    return tree.walk(tree.basepoint, target, scale * float(rng.random()))


def random_point(space: Space, seed: int, scale: float):
    return draw_point(space, sub_rng(seed), scale)


def draw_ideal(space: Space, rng: Stream) -> IdealPoint:
    if space.kind == EUCLIDEAN:
        return IdealPoint(vector=_unit_gauss(rng, space.dim))
    if space.kind == HYPERBOLIC:
        return IdealPoint(vector=_null_vector((1.0,) + _unit_gauss(rng, space.dim)))
    leaves = list(space.tree.ends)
    if not leaves:
        raise GeometryError("tree has no marked ideal leaves")
    return IdealPoint(leaf=leaves[int(rng.integers(len(leaves)))])


def _random_shift(space: Space, x, step: float, rng: Stream, name: str, value: float):
    """Geodesic exponential step of size `step` in a random direction; an
    overflow names the parameter `name` = value."""
    if not 0.0 <= step < math.inf:
        raise GeometryError(f"step must be finite and nonnegative, got {step}")
    if step == 0.0:
        return x
    if space.kind == EUCLIDEAN:
        direction = _unit_gauss(rng, space.dim)
        return tuple(a + step * u for a, u in zip(x, direction))
    if space.kind == HYPERBOLIC:
        while True:
            g = tuple(float(rng.normal()) for _ in range(space.dim + 1))
            gx = _mink(g, x)
            tangent = tuple(gi + gx * a for gi, a in zip(g, x))
            norm2 = _mink(tangent, tangent)
            if norm2 > 1e-12:
                break
        c, s = _cosh_sinh(step, name, value)
        s /= math.sqrt(norm2)  # a unit tangent
        return _lift([c * a + s * w for a, w in zip(x[1:], tangent[1:])], name, value)
    return space.tree.random_walk_shift(x, step, rng)


def _cosh_sinh(r: float, name: str, value: float):
    """(cosh r, sinh r), or an error naming the parameter that set r."""
    try:
        return math.cosh(r), math.sinh(r)
    except OverflowError:
        raise _out_of_range(r, name, value) from None


def _sinh(r: float, name: str, value: float) -> float:
    """sinh r, or the error that _cosh_sinh raises for r."""
    try:
        return math.sinh(r)
    except OverflowError:
        raise _out_of_range(r, name, value) from None


def _out_of_range(r: float, name: str, value: float) -> GeometryError:
    return GeometryError(f"{name} = {value} overflows: cosh({r}) is out of range")


def _unit_gauss(rng: Stream, dim: int) -> tuple[float, ...]:
    while True:
        g = [float(rng.normal()) for _ in range(dim)]
        norm = math.sqrt(_fma_norm2(g))
        if norm > 1e-12:
            return tuple(c / norm for c in g)


def _fma_norm2(g) -> float:
    """|g|^2 as the chain s = fma(c, c, s), each step rounded once.

    This is OpenBLAS's dot on x86-64 with FMA for up to 15 entries, which
    numpy's draws were normalised by.  Veltkamp's split gives each square
    as p + e exactly while no square underflows, as for normal draws, and
    fsum rounds s + p + e once.
    """
    s = 0.0
    for c in g:
        t = 134217729.0 * c  # 2^27 + 1
        hi = t - (t - c)
        lo = c - hi
        p = c * c
        s = math.fsum((s, p, ((hi * hi - p) + 2.0 * hi * lo) + lo * lo))
    return s
