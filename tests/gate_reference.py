"""The input gate as it stood before its one-pass rewrite, kept as the
reference that tests/test_gate.py compares the library's gate against:
`canonical_point` with two passes over a point's entries, `Tree.canonical`
after the separate check that was `Tree.validate` (two edge lookups),
and the loops of `Configuration.of` and `ConvexBody.of`, which built two
WeightedPoints per item.  Only the library's records and tree lookups
are shared."""

import math

from horocenter import GeometryError
from horocenter.barycenter import Configuration, WeightedPoint
from horocenter.horosphere import ConvexBody
from horocenter.spaces import HYPERBOLIC, HYPERBOLOID_TOL, TREE, _check_length, _mink
from horocenter.trees import VERTEX_SNAP, TreeError, TreePoint


def tree_validate(tree, p):
    e = tree.edge(p.edge)
    off = p.offset
    if not math.isfinite(off):
        raise TreeError(f"non-finite offset on edge {e.eid}")
    if off < -VERTEX_SNAP and e.u not in tree.ideal_leaves:
        raise TreeError(f"offset {off} below edge {e.eid}")
    if off > e.length + VERTEX_SNAP and e.v not in tree.ideal_leaves:
        raise TreeError(f"offset {off} beyond edge {e.eid} of length {e.length}")


def tree_canonical(tree, p):
    tree_validate(tree, p)
    e = tree.edge(p.edge)
    if abs(p.offset) <= VERTEX_SNAP:
        return tree.vertex_point(e.u)
    if abs(p.offset - e.length) <= VERTEX_SNAP:
        return tree.vertex_point(e.v)
    if type(p) is TreePoint and type(p.edge) is str and type(p.offset) is float:
        return p
    return TreePoint(e.eid, float(p.offset))


def canonical_point(space, p):
    if space.kind == TREE:
        if not isinstance(p, TreePoint):
            raise GeometryError(f"tree space expects TreePoint, got {type(p).__name__}")
        return tree_canonical(space.tree, p)
    if not isinstance(p, tuple) or not all(isinstance(c, float) for c in p):
        raise GeometryError("point must be a tuple of floats")
    if not all(map(math.isfinite, p)):
        raise GeometryError(f"point coordinates must be finite, got {p}")
    _check_length(space, p)
    if space.kind == HYPERBOLIC:
        if p[0] <= 0.0:
            raise GeometryError("hyperboloid point must have positive first coordinate")
        tol = HYPERBOLOID_TOL * p[0] * p[0]
        if not abs(_mink(p, p) + 1.0) <= tol < math.inf:
            raise GeometryError(f"point is off the hyperboloid: <x,x> = {_mink(p, p)}")
    if type(p) is tuple and all(type(c) is float for c in p):
        return p
    return tuple(map(float, p))


def _checked_mass(i, mass):
    if not (math.isfinite(mass) and mass > 0.0):
        raise GeometryError(f"points[{i}].mass: must be positive and finite, got {mass}")
    return mass


def configuration_of(space, items):
    out = []
    for i, item in enumerate(items):
        if not isinstance(item, WeightedPoint):
            point, mass = item
            item = WeightedPoint(point, float(mass))
        _checked_mass(i, item.mass)
        try:
            point = canonical_point(space, item.point)
        except GeometryError as exc:
            raise type(exc)(f"points[{i}]: {exc}") from None
        out.append(WeightedPoint(point, float(item.mass)))
    if not out:
        raise GeometryError("points: a configuration needs at least one point")
    return Configuration(tuple(out))


def body_of(space, points):
    canon = []
    for i, p in enumerate(points):
        try:
            canon.append(canonical_point(space, p))
        except GeometryError as exc:
            raise type(exc)(f"generators[{i}]: {exc}") from None
    if not canon:
        raise GeometryError("generators: a body needs at least one generator")
    return ConvexBody(tuple(dict.fromkeys(canon)))
