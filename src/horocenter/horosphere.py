"""Horofunction sweeps, the limit pseudometric, and the selector.

A convex body is represented by its finite generator set.  Diameters
reduce to the generators (the hull diameter equals the max pairwise
generator distance, so hulls never need materializing).  Sweeps only do
so in flat space, where horofunctions are affine: in hyperbolic space
horoballs are strictly convex, and tree geodesics dip through branch
vertices, so the hull can touch a lower horosphere between generators
than the generator sweep below finds.

The selector maps a body to a point through a fixed pipeline: find the
first horosphere touching the generators, project everything onto it,
decide whether the projected set shrinks along rays to the ideal point,
then either return the contact point (shrinking) or the unit-mass center
of the projected generators (non-shrinking), and finally smooth the
output across tree branch vertices.  Singletons short-circuit once the
ideal point is checked, so select({x}) == x holds exactly.

Classification targets sets on a common horosphere (the projected stage
of the pipeline) and reads the closed-form ray limit as a spread: the
diameter in flat space, else the level spread max(b) - min(b) from one
level per generator, so sets off one horosphere never shrink to a point.
"""

from __future__ import annotations

import math

from . import spaces
from .barycenter import (
    DEFAULT_MAX_ITERS,
    DEFAULT_TOL,
    center_of_mass,
    unit_configuration,
)
from .spaces import EUCLIDEAN, GeometryError, IdealPoint, Space, TREE
from .values import Frozen

SHRINKING = "shrinking"
NON_SHRINKING = "non-shrinking"

DEFAULT_CLASSIFY_TOL = 1e-6
DEFAULT_SNAP_TOL = 1e-4
CONTACT_SLACK = 1e-9


class ConvexBody(Frozen):
    """Convex hull of finitely many generators, stored as the generators."""

    __slots__ = ("generators",)

    @classmethod
    def of(cls, space: Space, points) -> "ConvexBody":
        """The body spanned by points; an error names its generators[i]."""
        canon = []
        for i, p in enumerate(points):
            try:
                canon.append(spaces.canonical_point(space, p))
            except GeometryError as exc:
                raise type(exc)(f"generators[{i}]: {exc}") from None
        if not canon:
            raise GeometryError("generators: a body needs at least one generator")
        return cls(tuple(dict.fromkeys(canon)))  # first of equal points, in order

    def __len__(self) -> int:
        return len(self.generators)


class ShrinkClass(Frozen):
    __slots__ = ("verdict", "max_limit_separation")


class SelectOptions(Frozen):
    __slots__ = ("tol", "max_iters", "classify_tol", "snap_tol", "smoothing")
    _defaults = {
        "tol": DEFAULT_TOL, "max_iters": DEFAULT_MAX_ITERS, "classify_tol": DEFAULT_CLASSIFY_TOL,
        "snap_tol": DEFAULT_SNAP_TOL, "smoothing": True,
    }


def first_horosphere(space: Space, body: ConvexBody, xi: IdealPoint):
    """First expanding horoball level that meets the generator set.

    Returns the touching level and the generators achieving it (ties
    within a small absolute slack all count as contact).
    """
    gens, level = body.generators, spaces.horofunction(space, xi)[0]
    return _contact(gens, [level(spaces._check_length(space, g)) for g in gens])


def _contact(points, levels):
    t_star = min(levels)
    return t_star, [p for p, b in zip(points, levels) if b <= t_star + CONTACT_SLACK]


def project_to_level(space: Space, x, xi: IdealPoint, t: float):
    """Move x along its ray toward xi down to horofunction level t."""
    spaces._check_length(space, x)
    level, ray = spaces.horofunction(space, xi)
    return _project(ray, x, level(x), t)


def _project(ray, x, level: float, t: float):
    if t > level + CONTACT_SLACK:
        raise GeometryError(
            f"target level {t} is above the point's level {level}; "
            "projection only moves toward the ideal point"
        )
    s = max(level - t, 0.0)
    if not s < math.inf:
        raise GeometryError(f"ray parameter overflows: s = {s} from level {level} to {t}")
    return ray(x, s)


def _limit_spread(space: Space, points, xi: IdealPoint) -> float:
    """Largest limit separation of the rays from points toward xi.

    Parallel euclidean rays keep their distances; hyperbolic rays and
    tree rays toward one end converge to their level gap.  A spread
    within CONTACT_SLACK counts as one horosphere, the tie rule of
    first_horosphere and project_to_level, and gives exactly 0.0.
    """
    level = spaces.horofunction(space, xi)[0]
    return _spread(space, points, lambda p: level(spaces._check_length(space, p)))


def _spread(space: Space, points, level) -> float:
    if space.kind == EUCLIDEAN:
        return spaces.diameter(space, points)
    levels = list(map(level, points))
    gap = max(levels, default=0.0) - min(levels, default=0.0)
    return 0.0 if gap <= CONTACT_SLACK else gap


def limit_separation(space: Space, x, y, xi: IdealPoint) -> float:
    """Limit of the separation of the rays from x and y toward xi."""
    return _limit_spread(space, (x, y), xi)


def classify_body(
    space: Space,
    body: ConvexBody,
    xi: IdealPoint,
    tol: float = DEFAULT_CLASSIFY_TOL,
) -> ShrinkClass:
    """Shrinking iff the generators' limit spread is below tol."""
    return _classify(tol, lambda: _limit_spread(space, body.generators, xi))


def _classify(tol: float, spread) -> ShrinkClass:
    # tol is checked before spread() runs, which can raise too
    if not 0.0 < tol < math.inf:
        raise GeometryError(f"classify_tol must be positive and finite, got {tol}")
    worst = spread()
    if not math.isfinite(worst):
        raise GeometryError(f"body overflows: its limit spread is {worst}")
    return ShrinkClass(SHRINKING if worst < tol else NON_SHRINKING, worst)


def snap_singular(space: Space, x, snap_tol: float = DEFAULT_SNAP_TOL):
    """Clamp tree points near a branch vertex onto it; identity elsewhere.

    Branch vertices are the tree's singular points; clamping makes the
    selector locally constant around them, trading a jump discontinuity
    for a flat spot.  Smooth spaces have no singular points.
    """
    if not 0.0 < snap_tol < math.inf:
        raise GeometryError(f"snap_tol must be positive and finite, got {snap_tol}")
    if space.kind != TREE:
        return x
    vertex, d = space.tree.nearest_branch_vertex(x)
    if vertex is not None and d <= snap_tol:
        return space.tree.vertex_point(vertex)
    return x


def select(
    space: Space,
    body: ConvexBody,
    xi: IdealPoint,
    opts: SelectOptions | None = None,
):
    """Map a convex body to a point of the space.

    Pipeline: first touching horosphere, projection of all generators to
    it, shrink classification of the projected set, then the contact
    point (shrinking; ties are merged into their unit-mass center) or the
    unit-mass center of the projected generators (non-shrinking).  The
    result is smoothed across branch vertices unless smoothing is off.
    Levels are read from the basepoint.  The center is uncapped.  In E^n,
    and for tree points on one geodesic, it is the closed-form weighted
    mean, whose cost grows with the number of generator pairs; in H^n and
    for points spread over tree branches it is the recursion, whose cost
    grows faster than exponentially with the number of points.
    """
    return _select(space, spaces.horofunction(space, xi), body, opts or SelectOptions())


def _select(space: Space, horo, body: ConvexBody, opts: SelectOptions):
    """select through horo, the (level, ray) pair toward the ideal point,
    which a caller that selects many bodies builds once."""
    gens = body.generators
    if len(gens) == 1:
        return gens[0]
    level, ray = horo
    levels = [level(spaces._check_length(space, g)) for g in gens]
    t_star, contact = _contact(gens, levels)
    projected = [_project(ray, g, b, t_star) for g, b in zip(gens, levels)]
    # ray built these on the sheet or tree: classify them as they are
    verdict = _classify(opts.classify_tol, lambda: _spread(space, projected, level))
    points = contact if verdict.verdict == SHRINKING else projected
    if len(points) == 1:
        picked = points[0]
    else:
        picked = center_of_mass(
            space,
            unit_configuration(space, points),
            opts.tol,
            opts.max_iters,
            max_points=len(points),
        ).center
    if opts.smoothing:
        picked = snap_singular(space, picked, opts.snap_tol)
    return picked
