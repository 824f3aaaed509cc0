"""Three model Hadamard spaces behind one functional interface.

Every operation takes a :class:`Space` descriptor first.  The per-kind
choice of pair measure (the quadrance <x-y, x-y> in H^n), distance and
geodesic interpolator lives only in ``kernels``, and of horofunction
level and ray toward an ideal point only in ``horofunction``.
``distance``, ``geodesic_point``, ``diameter``, ``busemann`` and
``ray_point`` check their arguments and then call these callables, which
a caller that makes many calls takes once.  In H^n they come from one
family of kernels per dimension, written once over the coordinates and
compiled for that n on first use (``_hyperbolic``), so each kernel runs
with no loop over its coordinates.  The spaces:

* ``euclidean`` -- R^n, points are coordinate tuples.
* ``hyperbolic`` -- the hyperboloid sheet {<x,x> = -1, x0 > 0} in
  (n+1)-dimensional Minkowski space with signature (-,+,...,+).  Geodesics
  and rays have sinh/cosh closed forms.  Geodesic points, draws and shifts
  are computed on their spatial coordinates y and lifted to
  (sqrt(1 + |y|^2), y), which lies on the sheet to rounding out to where
  x0^2 overflows; their error is the error of y.
* ``tree`` -- a finite metric tree with marked ends (see ``trees``).

Points and ideal vectors have ``coordinate_count`` entries, n in R^n and
n + 1 in H^n.  ``canonical_point`` is the one point rule, and each point
of a record passes it once: ``Configuration.of`` and ``ConvexBody.of``
store what it returns in a tuple marked as checked in their space
(``_checked_tuple``), which the doors of the center recursion
(``barycenter._start``) and of ``select`` read as it is, and any other
field through the loop ``.of`` runs, naming points[i] or generators[i].
Every other reader of points -- ``distance``, ``geodesic_point``,
``diameter``, ``busemann``, ``ray_point``, ``ray_separation``, the other
horosphere readers and ``hausdorff`` -- passes them through
``checked_points``, which refuses with canonical_point's message and
then reads the points as given.  An ideal point is checked in one place:
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
  spatial parts (the family's ``alpha``), so a level log(alpha) does not
  cancel;
* ray(x, xi, s) = exp(-s) x + sinh(s) xi / alpha, computed on the spatial
  parts and lifted (the family's ``ray``);
* separation of two rays toward the same end,
  cosh d(s) - 1 = 2 sinh^2(g/2) + 2 (sinh^2(d0/2) - sinh^2(g/2)) e^{-2s}
  with g the horofunction gap b(x) - b(y) and sinh^2(d0/2) = <x-y, x-y>/4
  for d0 = distance(x, y).  The naive route (interpolate far ray points,
  then measure) cancels catastrophically past s ~ 8; this form is stable
  for every s.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from functools import cache, lru_cache, partial
from itertools import chain, combinations, starmap

from .errors import GeometryError
from .trees import Tree, TreePoint

EUCLIDEAN = "euclidean"
HYPERBOLIC = "hyperbolic"
TREE = "tree"

HYPERBOLOID_TOL = 1e-9  # relative to x0^2, the scale of the rounding in <x,x>
MAX_DIM = 1024  # keeps coordinate tuples and draws small; far above desk scale
IDEAL_TOL = 1e-9
_T_BITS = 26  # fractional bits of the stereographic parameter of a null vector
_RAY_X0_MAX, _RAY_LEVEL_TOL = 2.0**39, 3.5e-8  # see ray_point

_SEED_MASK = 0x7FFF_FFFF_FFFF_FFFF
_FLOAT = frozenset((float,))  # the entry types of a plain point


class Space(namedtuple("Space", "kind dim tree")):
    """Descriptor for one of the three model spaces."""

    __slots__ = ()

    def __new__(cls, kind: str, dim: int = 0, tree: Tree | None = None):
        if kind == TREE:
            if not isinstance(tree, Tree):
                raise GeometryError(f"tree must be a Tree in a tree space, got {tree!r}")
        elif kind not in (EUCLIDEAN, HYPERBOLIC):
            raise GeometryError(f"kind must be euclidean, hyperbolic or tree, got {kind!r}")
        elif isinstance(dim, bool) or not isinstance(dim, int):
            raise GeometryError(f"dim must be an integer, got {dim!r}")
        elif not 1 <= dim <= MAX_DIM:
            raise GeometryError(f"dim must lie in [1, {MAX_DIM}], got {dim}")
        return super().__new__(cls, kind, dim, tree)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace checks too

    @classmethod
    def euclidean(cls, dim: int) -> "Space":
        return cls(EUCLIDEAN, dim)

    @classmethod
    def hyperbolic(cls, dim: int) -> "Space":
        return cls(HYPERBOLIC, dim)

    @classmethod
    def tree_space(cls, edges, ideal_leaves=(), basepoint=None) -> "Space":
        return cls(TREE, 0, Tree(edges, ideal_leaves, basepoint))


class IdealPoint(namedtuple("IdealPoint", "vector leaf", defaults=(None, None))):
    """Boundary point: a direction, a null vector, or a marked leaf id."""

    __slots__ = ()

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


# -- the hyperbolic kernels --------------------------------------------------
# Each kernel is written once, below, over the coordinates of H^n, and
# _hyperbolic compiles the family for one n: a `pattern` in backquotes is
# repeated for the spatial coordinates 1..n with # as the index, so
# "x0`, x#`" reads "x0, x1, x2" in H^2.  Every sum runs left to right from
# the loop's first term, so a kernel gives the bits of one loop over the
# coordinates in every dimension, with no loop and no indexing.
#
# alpha is -<x, v> = x0 v0 - y.v_s for a sheet point x and a v read as null,
# as validate_ideal returns it, with v0 in [1, 2); an error unless it is
# positive.  When y.v_s > 0 that cancels; on the lift the Lagrange identity
# gives (v0^2 + |y ^ v_s|^2) / (x0 v0 + y.v_s) with |y ^ v_s|^2 =
# v0^2 |y - c v_s|^2, c = y.v_s / v0^2: a quotient of positive terms, here
# divided through by v0, so v0^2 is never formed.  Rounding c v_i moves
# y_i - c v_i by up to 2^-53 |y|, near the line toward v as much as the
# difference, so past x0 = 2^12 |y - c v_s|^2 is summed exactly
# (_exact_residual).  ray is the ray point at arclength s from x toward v
# (see ray_point), x itself at s = 0.  on_sheet is canonical_point's test
# of a plain point of the right length.

_KERNELS = """
def quadrance(x, y):
    x0`, x#` = x
    y0`, y#` = y
    e0`, e#` = x0 - y0`, x# - y#`
    return -e0 * e0` + e# * e#`


def geodesic(x, y, t, d=None):
    x0`, x#` = x
    y0`, y#` = y
    if d is None:
        e0`, e#` = x0 - y0`, x# - y#`
        q = -e0 * e0` + e# * e#`
        d = 0.0 if q <= 0.0 else 2.0 * math.asinh(0.5 * math.sqrt(q))
    if d < 1e-14:
        return x
    # (sinh((1-t)d) x + sinh(td) y) / sinh d, with weights in [0, 1]
    sh = math.sinh(d)
    a, b = math.sinh((1.0 - t) * d) / sh, math.sinh(t * d) / sh
    `s#, ` = `a * x# + b * y#, `
    z0 = math.hypot(1.0`, s#`)
    if not z0 * z0 < math.inf:
        raise GeometryError(f"distance = {d} overflows: the point's x0^2 = {z0 * z0}")
    return (z0`, s#`)


def alpha(x, v):
    x0`, x#` = x
    v0`, v#` = v
    dot = 0.0` + x# * v#`
    if dot <= 0.0:  # no cancellation: x0 v0 and -dot share a sign
        level = x0 * v0 - dot
    else:
        t = dot / v0
        if x0 > 2.0**12:
            q = _exact_residual(x, v)
        else:
            c = t / v0
            `d#, ` = `x# - c * v#, `
            q = 0.0` + d# * d#`
        level = v0 * (1.0 + q) / (x0 + t)
    if not level > 0.0:  # NaN too; v passed validate_ideal, so x is at fault
        raise GeometryError(f"point {tuple(x)} is off the hyperboloid sheet")
    return level


def ray(v, x, s):
    if not s:
        return x
    sh = _sinh(s, "s", s)
    level = alpha(x, v)
    decay, grow = math.exp(-s), sh / level
    _`, x#` = x
    _`, v#` = v
    `y#, ` = `decay * x# + grow * v#, `
    y0 = math.hypot(1.0`, y#`)
    if not y0 * y0 < math.inf:
        raise GeometryError(f"s = {s} overflows: the point's x0^2 = {y0 * y0}")
    r = (y0`, y#`)
    return _read_back(alpha, r, v, level * decay, s) if y0 > _RAY_X0_MAX else r


def on_sheet(p):
    x0`, x#` = p
    return (
        type(x0)` is type(x#)` is float
        and x0 > 0.0
        and abs(-x0 * x0` + x# * x#` + 1.0) <= HYPERBOLOID_TOL * x0 * x0 < math.inf
    )
"""


_Family = namedtuple("_Family", "quadrance geodesic alpha ray on_sheet")  # one H^n's _KERNELS


@cache
def _hyperbolic(dim: int) -> _Family:
    """The kernels of H^dim, compiled on first use and kept for the
    process: about 1 ms in H^2 or H^3 and 0.1 s in H^1024.  Each is named
    for its dimension, as _h2_quadrance, and raises from its unpacking on
    a point of the wrong length, so callers check lengths first."""
    parts = _KERNELS.split("`")
    parts[1::2] = ["".join(p.replace("#", str(i)) for i in range(1, dim + 1)) for p in parts[1::2]]
    namespace = dict(globals())  # alpha and ray find this family's alpha
    exec(compile("".join(parts), f"<H^{dim} kernels>", "exec"), namespace)
    for name in _Family._fields:
        namespace[name].__name__ = namespace[name].__qualname__ = f"_h{dim}_{name}"
    return _Family(*(namespace[name] for name in _Family._fields))


def _exact_residual(x, v) -> float:
    """|y - c v_s|^2 for alpha past x0 = 2^12, summed exactly."""
    from fractions import Fraction  # far levels only
    y, w = [Fraction(a) for a in x[1:]], [Fraction(b) for b in v[1:]]
    c = sum(a * b for a, b in zip(y, w)) / Fraction(v[0]) ** 2
    return float(sum((a - c * b) ** 2 for a, b in zip(y, w)))


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


def checked_points(space: Space, points):
    """points as given, once each passes canonical_point; a refusal
    carries its message.  No point is copied or snapped, so an accepted
    input reads with every bit it came with."""
    for p in points:
        canonical_point(space, p)
    return points


@lru_cache(maxsize=64)  # bounded: a tree space holds its Tree
def _checked_tuple(space: Space, field: str) -> type:
    """The tuple type in which `.of` stores a record's field, `items` or
    `generators`, whose points passed canonical_point in space: a plain
    tuple in repr, equality and hash, with no per-record cost.  Slicing,
    `+`, pickling and copy.deepcopy give a plain tuple, read again."""
    reduce = lambda fields: (tuple, (tuple(fields),))  # copies and pickles as a plain tuple
    return type(f"Checked{field.capitalize()}", (tuple,), {"__slots__": (), "__reduce__": reduce})


def canonical_point(space: Space, p):
    """p as the aggregates store it, or an error: the type, finiteness,
    length and sheet checks here, the edge and offset checks in
    Tree.canonical.

    A tuple of floats that passes comes back as itself when it and its
    entries are of exactly those types, so that every body or
    configuration that holds it shares it, and as a copy of that form
    otherwise.  Such plain points are accepted in one pass: in H^n the
    family's on_sheet reads the types and the sheet residual, summed in
    _mink's order, and a pass with a positive x0 and a finite tolerance
    leaves no coordinate infinite or NaN, so finiteness needs no pass of
    its own.
    Every other point, and every refusal, takes `_checked_copy`, whose
    checks and messages run in the order given above.
    """
    kind = space.kind
    if kind == TREE:
        if not isinstance(p, TreePoint):
            raise GeometryError(f"tree space expects TreePoint, got {type(p).__name__}")
        return space.tree.canonical(p)
    if type(p) is tuple:
        n = len(p)
        if kind == EUCLIDEAN:
            if n == space.dim and _FLOAT.issuperset(map(type, p)) and all(map(math.isfinite, p)):
                return p
        elif n == space.dim + 1 and _hyperbolic(space.dim).on_sheet(p):
            return p
    return _checked_copy(space, p)


def _checked_copy(space: Space, p) -> tuple[float, ...]:
    """canonical_point's checks in their order, on a point that is not
    plain or is refused; a copy of p as a plain tuple of plain floats."""
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
    return tuple(map(float, p))


def validate_ideal(space: Space, xi: IdealPoint):
    """What horofunction builds its pair from, or an error: the unit
    direction, the marked leaf, or the null vector scaled exactly, by a
    power of two, to v0 in [1, 2).  Every vector IdealPoint.null_vector
    snaps, and every draw_ideal, already has v0 = 1 + |t|^2 there and
    keeps its bits.  Levels and rays read only ratios of v, so v and
    v 2^k give the same bits; in that range the family's alpha neither
    under- nor overflows for x0 < 2^512, the range _lift keeps."""
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

    H^n gets the quadrance and geodesic of `_hyperbolic(n)`, compiled for
    n on the first call, which raise from their unpacking on a
    wrong-length point, so callers check lengths first.  The center
    recursion takes its kernels here once per call, so a wrapper of this
    function installed in this module sees every recursion.
    """
    if space.kind == EUCLIDEAN:
        return math.dist, float, _euclid_geodesic  # float(d) is d
    if space.kind == HYPERBOLIC:
        family = _hyperbolic(space.dim)
        return family.quadrance, _quadrance_distance, family.geodesic
    return space.tree.distance, float, partial(_tree_geodesic, space.tree)


def diameter(space: Space, points) -> float:
    """Largest pairwise distance of a finite point set (0 below two points),
    once each point passes canonical_point, the first refused blamed.

    Pairs are measured in the order (0, 1), (0, 2), ..., (1, 2), ....
    """
    measure, to_distance, _ = kernels(space)
    return farthest(to_distance, starmap(measure, combinations(checked_points(space, points), 2)))


def farthest(to_distance, measures) -> float:
    """The distance of the largest of a set of pair measures (0.0 if none)."""
    # max() takes a later value only if strictly greater, so NaN is skipped
    return to_distance(max(chain((0.0,), measures)))


def _quadrance_distance(q: float) -> float:
    """2 asinh(sqrt(q)/2), the distance at quadrance q, nondecreasing in q."""
    return 0.0 if q <= 0.0 else 2.0 * math.asinh(0.5 * math.sqrt(q))


def distance(space: Space, x, y) -> float:
    """Geodesic distance.  x and y pass canonical_point, the one point
    rule, or are refused with its message (`checked_points`), and are then
    read as given."""
    checked_points(space, (x, y))
    measure, to_distance, _ = kernels(space)
    return to_distance(measure(x, y))


def geodesic_point(space: Space, x, y, t: float):
    """Point at arclength fraction t in [0, 1] from x toward y."""
    if not 0.0 <= t <= 1.0:
        raise GeometryError(f"geodesic parameter must lie in [0, 1], got {t}")
    checked_points(space, (x, y))
    if t == 0.0:
        return x
    if t == 1.0:
        return y
    return kernels(space)[2](x, y, t)


def _euclid_geodesic(x, y, t: float, d=None):
    return tuple(a + t * (b - a) for a, b in zip(x, y))


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

    H^n levels and rays read the alpha and ray of `_hyperbolic(n)`, as
    `kernels` hands out its family's kernels, and raise from their
    unpacking on a wrong-length point, so callers check lengths first.
    `select` and the scans build their pair here, so a wrapper of this
    function installed in this module sees every one.
    """
    v = validate_ideal(space, xi)
    if space.kind == EUCLIDEAN:
        def level(x):
            return -_left_sum(a * c for a, c in zip(x, v))
        def ray(x, s):
            return tuple(a + s * c for a, c in zip(x, v)) if s else x
    elif space.kind == HYPERBOLIC:
        family = _hyperbolic(space.dim)
        alpha, log_v0 = family.alpha, math.log(v[0])
        def level(x):  # -<basepoint, v> = v0 exactly: alpha's dot is 0
            return math.log(alpha(x, v)) - log_v0
        ray = partial(family.ray, v)
    else:
        tree = space.tree
        def level(x):
            return tree.depth_toward_end(x, v) - tree.base_depth[v]
        def ray(x, s):
            return tree.ray(x, v, s) if s else x
    return level, ray


def _read_back(alpha, r, v, want: float, s: float):
    """r, once its level alpha(r, v) reads within _RAY_LEVEL_TOL of want."""
    read = alpha(r, v)
    if not abs(read - want) <= _RAY_LEVEL_TOL * want:
        off = f"its level reads {read:.3e}, not {want:.3e}"
        raise GeometryError(f"ray point at s = {s} is too far out: {off}")
    return r


def ray_point(space: Space, x, xi: IdealPoint, s: float):
    """Unit-speed point at arclength s >= 0 along the ray from x toward xi.

    In H^n it is the lift of exp(-s) y + sinh(s) xi_s / alpha, whose level
    alpha e^-s the rounding of y moves by up to 2.3 (2^-52 x0)^2 relative.
    Past x0 = 2^39, where that passes 3.5e-8, the level is read back, and
    ray_point raises naming s if it is off by more.  xi is checked as
    busemann checks it, at s = 0 too."""
    if not 0.0 <= s < math.inf:
        raise GeometryError(f"ray parameter s must be finite and nonnegative, got {s}")
    checked_points(space, (x,))
    return horofunction(space, xi)[1](x, s)


def busemann(space: Space, xi: IdealPoint, x) -> float:
    """Horofunction level of x: 0 at basepoint(space) -- the origin,
    (1, 0, ..., 0) or the tree's basepoint -- decreasing at unit rate
    toward xi.  xi passes validate_ideal or is refused with its message;
    hyperbolic xi is read as exactly null, as every constructor makes it,
    so a raw IdealPoint(vector=v) that is null only to IDEAL_TOL gets the
    level as if it were null."""
    checked_points(space, (x,))
    return horofunction(space, xi)[0](x)


def ray_separation(space: Space, x, y, xi: IdealPoint, s: float) -> float:
    """distance(ray(x, xi, s), ray(y, xi, s)), computed stably per space."""
    level, ray = horofunction(space, xi)  # checks xi in every space
    checked_points(space, (x, y))
    if space.kind == EUCLIDEAN:
        return math.dist(x, y)  # parallel rays keep their separation
    if space.kind == HYPERBOLIC:
        a2 = 0.25 * max(_hyperbolic(space.dim).quadrance(x, y), 0.0)  # sinh^2(d0/2)
        g2 = math.sinh(0.5 * (level(x) - level(y))) ** 2
        cm1 = 2.0 * (g2 + (a2 - g2) * math.exp(-2.0 * s))
        if cm1 <= 0.0:
            return 0.0
        return 2.0 * math.asinh(math.sqrt(0.5 * cm1))
    return space.tree.distance(ray(x, s), ray(y, s))


# -- seeded generation -------------------------------------------------------
# `Stream` below is stream.Stream; annotations are never evaluated, so
# only a draw loads it.


def checked_integer(value, name: str) -> int:
    """value as an int, or an error naming it as `name` unless it is no
    bool and operator.index reads it: numpy integers pass, and a float,
    str or None is refused, as Space refuses a dim."""
    if not isinstance(value, bool) and hasattr(type(value), "__index__"):
        return operator.index(value)
    raise GeometryError(f"{name} must be an integer, got {value!r}")


def checked_seed(seed, name: str = "seed") -> int:
    """seed as an int, or an error naming it as `name` unless it is an
    integer (`checked_integer`) in [0, 2**63), where no two seeds share a
    stream: masked to 63 bits, -1 would draw the samples of 2**63 - 1, and
    2**63 those of 0."""
    seed = checked_integer(seed, name)
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
