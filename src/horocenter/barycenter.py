"""Iterative mass-weighted center of a finite weighted point set.

The two-point center divides the connecting geodesic so that the heavier
mass pulls the center closer: with masses (m1, m2) the center sits at
arclength fraction m2/(m1+m2) from the first point, which reproduces the
euclidean weighted mean.  For n >= 3 points, one step replaces every
point x_i by its two-point combination with the full center of the other
n-1 points (carrying the complement mass M - m_i), relabels the masses to
(M - m_i)/(n - 1), and the step is repeated until the configuration
diameter drops below tolerance.

The complement centers use the full recursive construction.  One
top-level call computes each distinct sub-configuration's center once
(the center of S minus {i, j} is needed from both i and j), but every
step moves the points, so each sub-center's later steps start afresh and
the cost still grows faster than exponentially in n: about 7, 45 and
220 ms for n = 5, 6 and 7 in H^2 on one core.  ``max_points`` caps the
size (default 7) and can be raised explicitly.  In euclidean space one
step collapses any configuration onto the weighted mean exactly; in
curved spaces every step shrinks the diameter, but convergence can be
only linear: near a tree branch vertex the ratio per step stays
constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from . import spaces
from .spaces import TREE, GeometryError, Space, _left_sum

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITERS = 200
DEFAULT_MAX_POINTS = 7


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

    Each call without `_memo` starts a fresh memo of sub-configuration
    centers that lives only until it returns (see `leave_one_out_step`).
    """
    if not 0.0 < tol < math.inf:
        raise GeometryError(f"tol must be positive and finite, got {tol}")
    if max_iters < 0:
        raise GeometryError(f"max_iters must be >= 0, got {max_iters}")
    n = len(config)
    if n > max_points:
        raise GeometryError(
            f"{n} points exceeds the recursion cap {max_points}; "
            "raise max_points explicitly to accept the cost"
        )
    if n == 1:
        return BarycenterResult(config.items[0].point, 0, [0.0], True)
    if n == 2:
        center = _finite_center(
            space, two_point_center(space, config.items[0], config.items[1])
        )
        return BarycenterResult(center, 0, [0.0], True)
    if _memo is None:
        _memo = {}
    trace = [_finite_diameter(space, config)]
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
