"""Iterative mass-weighted center of a finite weighted point set.

The two-point center divides the connecting geodesic so that the heavier
mass pulls the center closer: with masses (m1, m2) the center sits at
arclength fraction m2/(m1+m2) from the first point, which reproduces the
euclidean weighted mean.  For n >= 3 points, one step replaces every
point x_i by its two-point combination with the full center of the other
n-1 points (carrying the complement mass M - m_i), relabels the masses to
(M - m_i)/(n - 1), and the step is repeated until the configuration
diameter drops below tolerance.

Where the geometry is flat, one step collapses the configuration onto
its weighted mean, and the center is computed in that closed form
without the recursion: every configuration in R^n, and tree points that
all lie on one geodesic.  The result keeps the shape of one step (one iteration,
diameter trace [d0, 0.0]), and ``max_points`` does not apply to it.

Hyperbolic configurations and tree points spread over branches take the
recursion.  One top-level call computes each distinct sub-configuration's
center once (the center of S minus {i, j} is needed from both i and j),
but every step moves the points, so each sub-center's later steps start
afresh and the cost still grows faster than exponentially in n: about 7,
45 and 220 ms for n = 5, 6 and 7 in H^2 on one core.  ``max_points``
caps the size of a configuration that takes the recursion (default 7)
and can be raised explicitly.  Every step shrinks the diameter, but
convergence can be only linear: near a tree branch vertex the ratio per
step stays constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations
from operator import mul

from . import spaces
from .spaces import EUCLIDEAN, TREE, GeometryError, Space, _left_sum
from .trees import Tree, TreePoint

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITERS = 200
DEFAULT_MAX_POINTS = 7
# Every finite double is an integer multiple of 2**-1074, so x * 2**1074 is
# an integer, and sums and products of such integers never round.
_EXACT_BITS = 1074


class ConvergenceError(RuntimeError):
    """Raised when the diameter fails to reach tolerance; carries the
    partial result so callers can still inspect or emit the trace."""

    def __init__(self, message: str, result: "BarycenterResult"):
        super().__init__(message)
        self.result = result


@dataclass(frozen=True)
class WeightedPoint:
    point: object
    mass: float


@dataclass(frozen=True)
class Configuration:
    items: tuple[WeightedPoint, ...]

    @classmethod
    def of(cls, space: Space, items) -> "Configuration":
        out = []
        for item in items:
            if not isinstance(item, WeightedPoint):
                point, mass = item
                item = WeightedPoint(point, float(mass))
            if not (math.isfinite(item.mass) and item.mass > 0.0):
                raise GeometryError(f"mass must be positive and finite, got {item.mass}")
            out.append(
                WeightedPoint(spaces.canonical_point(space, item.point), float(item.mass))
            )
        if not out:
            raise GeometryError("configuration must be nonempty")
        return cls(tuple(out))

    @property
    def total_mass(self) -> float:
        return _left_sum(item.mass for item in self.items)

    @property
    def points(self) -> tuple:
        return tuple(item.point for item in self.items)

    def __len__(self) -> int:
        return len(self.items)


@dataclass
class BarycenterResult:
    center: object
    iterations: int
    diameter_trace: list[float]
    converged: bool


def unit_configuration(space: Space, points) -> Configuration:
    return Configuration.of(space, [(p, 1.0) for p in points])


def two_point_center(space: Space, a: WeightedPoint, b: WeightedPoint):
    """Center of two weighted points; symmetric in its arguments."""
    if a.mass <= 0.0 or b.mass <= 0.0:
        raise GeometryError("masses must be positive")
    t = b.mass / (a.mass + b.mass)
    return spaces.geodesic_point(space, a.point, b.point, t)


def config_diameter(space: Space, config: Configuration) -> float:
    return spaces.diameter(space, config.points)


def _finite_diameter(space: Space, config: Configuration) -> float:
    d = config_diameter(space, config)
    if not math.isfinite(d):
        raise GeometryError(f"configuration overflows: diameter {d}")
    return d


def _finite_center(space: Space, center):
    coords = (center.offset,) if space.kind == TREE else center
    if not all(map(math.isfinite, coords)):
        raise GeometryError(f"configuration overflows: center {center}")
    return center


def _exact(x: float) -> int:
    """x * 2**_EXACT_BITS, exactly."""
    num, den = x.as_integer_ratio()  # den is a power of two
    return num << (_EXACT_BITS + 1 - den.bit_length())


def _flat_center(space: Space, config: Configuration, d0: float):
    """The center in closed form where the configuration is flat, else None.

    In R^n, and on a tree where every point lies on one geodesic (an
    isometric copy of an interval), one construction step collapses the
    configuration onto its mass-weighted mean.  The mean is summed in
    exact integers and rounded once, so no double lies nearer to it.
    Hyperbolic configurations, and tree points spread over branches,
    give None.
    """
    if space.kind not in (EUCLIDEAN, TREE):
        return None
    weights = [_exact(item.mass) for item in config.items]
    if space.kind == TREE:
        return _segment_center(space.tree, config.points, weights, d0)
    scale = sum(weights) << _EXACT_BITS
    return tuple(
        sum(map(mul, weights, map(_exact, column))) / scale
        for column in zip(*config.points)
    )


def _segment_center(tree: Tree, points, weights: list[int], d0: float):
    """Weighted mean of tree points that all lie on one geodesic, else None.

    The geodesic joins the first pair at distance d0, the diameter.  A
    point lies on it when one of its placements falls inside one of the
    geodesic's runs, which is decided on the offsets exactly, also for a
    vertex that its canonical form puts on an edge off the path.  The
    position of each point along the geodesic, their mean and the offset
    of the mean are exact integers, rounded once.
    """
    a, b = next(pq for pq in combinations(points, 2) if tree.distance(*pq) == d0)
    runs, start = [], 0
    for ei, s0, s1 in tree.runs(a, b):
        length = abs(_exact(s1) - _exact(s0))
        runs.append((ei, s0, s1, start, length))
        start += length

    def position(p):
        for ei, off in tree.placements(p):
            for run_ei, s0, s1, start, _ in runs:
                if run_ei == ei and min(s0, s1) <= off <= max(s0, s1):
                    return start + abs(_exact(off) - _exact(s0))
        return None

    positions = [position(p) for p in points]
    if None in positions:
        return None
    total = sum(weights)
    num = sum(map(mul, weights, positions))  # the mean position is num / total
    for ei, s0, s1, start, length in runs:
        if num <= (start + length) * total:
            break  # the first run that reaches the mean holds it
    step = num - start * total
    off = _exact(s0) * total + (step if s1 >= s0 else -step)
    return TreePoint(tree.edges[ei].eid, off / (total << _EXACT_BITS))


def leave_one_out_step(
    space: Space,
    config: Configuration,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
    max_points: int = DEFAULT_MAX_POINTS,
    *,
    _memo: dict | None = None,
) -> Configuration:
    """One construction step: pair each point with its complement's center.

    Output point i is the two-point center of (x_i, m_i) and the fully
    recursive center of the other points carrying mass M - m_i; the new
    mass label is (M - m_i)/(n - 1), so total mass is preserved.  Where
    M - m_i rounds to 0 or below (m_i dwarfs the rest), the exact sum of
    the other masses stands in for it.

    `_memo` maps the items of a sub-configuration to its center.  The
    top-level `center_of_mass` call owns it and passes it down, so a
    center that several branches need (that of S minus {i, j} is reached
    from both i and j) is computed once.  The key omits tol, max_iters
    and max_points because they are fixed within that call.
    """
    n = len(config)
    if n < 3:
        raise GeometryError(f"leave-one-out step needs at least 3 points, got {n}")
    if _memo is None:
        _memo = {}
    total = config.total_mass
    items = config.items
    new_items = []
    for i, item in enumerate(items):
        rest = items[:i] + items[i + 1 :]
        complement = _memo.get(rest)
        if complement is None:
            complement = center_of_mass(
                space, Configuration(rest), tol, max_iters, max_points, _memo=_memo
            ).center
            _memo[rest] = complement
        rest_mass = total - item.mass
        if not rest_mass > 0.0:  # item.mass dwarfs the rest, and M - m_i cancels
            rest_mass = math.fsum(other.mass for other in rest)
        moved = two_point_center(space, item, WeightedPoint(complement, rest_mass))
        new_items.append(WeightedPoint(moved, rest_mass / (n - 1)))
    return Configuration(tuple(new_items))


def center_of_mass(
    space: Space,
    config: Configuration,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
    max_points: int = DEFAULT_MAX_POINTS,
    *,
    _memo: dict | None = None,
) -> BarycenterResult:
    """Iterate the construction until the configuration diameter < tol.

    A flat configuration (see `_flat_center`) whose diameter d0 is at
    least tol, with max_iters >= 1, returns its closed-form center as one
    step, at every level of the recursion.  `max_points` caps only the
    configurations that take a recursive step.  Each call without `_memo`
    starts a fresh memo of sub-configuration centers that lives only
    until it returns (see `leave_one_out_step`).
    """
    if not 0.0 < tol < math.inf:
        raise GeometryError(f"tol must be positive and finite, got {tol}")
    if max_iters < 0:
        raise GeometryError(f"max_iters must be >= 0, got {max_iters}")
    n = len(config)
    if n == 1:
        return BarycenterResult(config.items[0].point, 0, [0.0], True)
    if n == 2:
        center = _finite_center(
            space, two_point_center(space, config.items[0], config.items[1])
        )
        return BarycenterResult(center, 0, [0.0], True)
    d0 = _finite_diameter(space, config)
    if d0 >= tol and max_iters >= 1:
        center = _flat_center(space, config, d0)
        if center is not None:
            return BarycenterResult(center, 1, [d0, 0.0], True)
    if _memo is None:
        _memo = {}
    trace = [d0]
    iterations = 0
    while trace[-1] >= tol:
        if iterations >= max_iters:
            partial = BarycenterResult(
                config.items[0].point, iterations, trace, False
            )
            raise ConvergenceError(
                f"diameter {trace[-1]:.3e} still above tol {tol:.3e} "
                f"after {iterations} iterations",
                partial,
            )
        if n > max_points:
            raise GeometryError(
                f"{n} points exceeds the recursion cap {max_points}; "
                "raise max_points explicitly to accept the cost"
            )
        config = leave_one_out_step(
            space, config, tol, max_iters, max_points, _memo=_memo
        )
        trace.append(_finite_diameter(space, config))
        iterations += 1
    return BarycenterResult(config.items[0].point, iterations, trace, True)


def hull_sample(space: Space, config: Configuration, depth: int, seed: int) -> list:
    """Sample the convex hull by iterated random geodesic interpolation.

    Each round doubles the sample set, so the result holds
    len(config) * 2**depth points, all in the hull by construction.
    """
    if depth < 1:
        raise GeometryError(f"depth must be >= 1, got {depth}")
    if len(config) < 2:
        raise GeometryError("hull sampling needs at least 2 generators")
    rng = spaces.sub_rng(seed)
    samples = list(config.points)
    for _ in range(depth):
        fresh = []
        for i in range(len(samples)):
            j = int(rng.integers(len(samples)))
            t = float(rng.random())
            fresh.append(spaces.geodesic_point(space, samples[i], samples[j], t))
        samples.extend(fresh)
    return samples


def permuted(config: Configuration, order) -> Configuration:
    """Configuration with items reordered; used by uniqueness checks."""
    items = config.items
    return Configuration(tuple(items[i] for i in order))


def replace_point(config: Configuration, index: int, point) -> Configuration:
    items = list(config.items)
    items[index] = replace(items[index], point=point)
    return Configuration(tuple(items))


def replace_mass(config: Configuration, index: int, mass: float) -> Configuration:
    items = list(config.items)
    items[index] = replace(items[index], mass=float(mass))
    return Configuration(tuple(items))
