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
all lie on one geodesic.  In H^n the diameter contracts about cubically,
and a near-flat configuration, of diameter below tol**(1/3), closes in
one projected step: the sheet projection of its mass-weighted ambient
mean, within about 0.015 d^3 of the construction's limit (see
`_Recursion.settle`).  Either close counts as one iteration with trace
entry 0.0, at every level of the recursion, and ``max_points`` does not
apply to it.

Hyperbolic configurations and tree points spread over branches take the
recursion, `_Recursion`, on plain (point, mass) tuples; `Configuration`,
`WeightedPoint` and `BarycenterResult` exist only at its boundary.  One
top-level call computes each distinct sub-configuration's center once
and measures each pair of a configuration once, but every step moves the
points, so each sub-center's later steps start afresh and the cost still
grows faster than exponentially in n.  ``max_points`` caps the size of a
configuration that takes a recursive step (default 7) and can be raised
explicitly.  Every step shrinks the diameter, but convergence can be
only linear: near a tree branch vertex the ratio per step stays
constant.  `center_of_mass`, `leave_one_out_step` and `two_point_center`
enter the recursion through `_start`, which checks each mass once, as
`Configuration.of` does, and scales masses whose sum reaches 2**1023 by
2**-64 (see `_finite_masses`).
"""

from __future__ import annotations

import math
from functools import cache
from itertools import combinations, starmap
from operator import itemgetter, mul

from . import spaces
from .spaces import EUCLIDEAN, HYPERBOLIC, TREE, GeometryError, Space, _left_sum
from .trees import Tree, TreePoint
from .values import Frozen, Value

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITERS = 200
DEFAULT_MAX_POINTS = 7
# Every finite double is an integer multiple of 2**-1074, so x * 2**1074 is
# an integer, and sums and products of such integers never round.
_EXACT_BITS = 1074
_MASS_SHIFT = 64  # scales a mass sum near overflow back into range (see _finite_masses)


class ConvergenceError(RuntimeError):
    """Raised when the diameter fails to reach tolerance; carries the
    partial result so callers can still inspect or emit the trace."""

    def __init__(self, message: str, result: "BarycenterResult"):
        super().__init__(message)
        self.result = result


class WeightedPoint(Frozen):
    __slots__ = ("point", "mass")


class Configuration(Frozen):
    __slots__ = ("items",)  # a tuple of WeightedPoints

    @classmethod
    def of(cls, space: Space, items) -> "Configuration":
        """The configuration of (point, mass) pairs or WeightedPoints; an
        error names its entry, as points[i] or points[i].mass."""
        out = []
        for i, item in enumerate(items):
            if not isinstance(item, WeightedPoint):
                point, mass = item
                item = WeightedPoint(point, float(mass))
            _checked_mass(i, item.mass)
            try:
                point = spaces.canonical_point(space, item.point)
            except GeometryError as exc:
                raise type(exc)(f"points[{i}]: {exc}") from None
            out.append(WeightedPoint(point, float(item.mass)))
        if not out:
            raise GeometryError("points: a configuration needs at least one point")
        return cls(tuple(out))

    @property
    def total_mass(self) -> float:
        return _left_sum(item.mass for item in self.items)

    @property
    def points(self) -> tuple:
        return tuple(item.point for item in self.items)

    def __len__(self) -> int:
        return len(self.items)


class BarycenterResult(Value):
    __slots__ = ("center", "iterations", "diameter_trace", "converged")


def _checked_mass(i: int, mass):
    """Mass i, or an error naming its entry if it is not positive and finite."""
    if not (math.isfinite(mass) and mass > 0.0):
        raise GeometryError(f"points[{i}].mass: must be positive and finite, got {mass}")
    return mass


def unit_configuration(space: Space, points) -> Configuration:
    return Configuration.of(space, [(p, 1.0) for p in points])


def two_point_center(space: Space, a: WeightedPoint, b: WeightedPoint):
    """Center of two weighted points; symmetric in its arguments up to
    rounding (swapped, the last bits can differ).  It is the recursion's
    two-point rule, so a non-finite center raises."""
    return center_of_mass(space, Configuration((a, b))).center


def config_diameter(space: Space, config: Configuration) -> float:
    return spaces.diameter(space, config.points)


def _finite(space: Space, c):
    """c, or an error if a coordinate (a tree point's offset) is not finite."""
    coords = (c.offset,) if space.kind == TREE else c
    if not all(map(math.isfinite, coords)):
        raise GeometryError(f"configuration overflows: center {c}")
    return c


def _finite_masses(masses):
    """(masses / 2**k, k), with k = 64 where the sum of the positive finite
    masses reaches 2**1023 and k = 0 otherwise: a step's rounding can carry
    a sum near the largest double past it, but never doubles it.

    A common power-of-two factor leaves every mass ratio unchanged, and
    the scaling is exact for masses of at least 2**-958.  A smaller mass,
    whose pull is below rounding, is floored at the smallest subnormal
    rather than flushed to zero.
    """
    if _left_sum(masses) < 2.0**1023:
        return masses, 0
    floor = math.ulp(0.0)
    return [max(math.ldexp(m, -_MASS_SHIFT), floor) for m in masses], _MASS_SHIFT


def _exact(x: float) -> int:
    """x * 2**_EXACT_BITS, exactly."""
    num, den = x.as_integer_ratio()  # den is a power of two
    return num << (_EXACT_BITS + 1 - den.bit_length())


def _flat_center(space: Space, items, table, d0: float):
    """The center in closed form where the configuration is flat, else None.

    `items` are (point, mass) pairs, and `table` their pair table, of
    distances here.  In R^n, and on a tree where every point lies on one
    geodesic (an isometric copy of an interval), one construction step
    collapses the configuration onto its mass-weighted mean.  The mean is
    summed in exact integers and rounded once, so no double lies nearer
    to it.  Hyperbolic configurations, and tree points spread over
    branches, give None.
    """
    if space.kind not in (EUCLIDEAN, TREE):
        return None
    points = [p for p, _ in items]
    weights = [_exact(m) for _, m in items]
    if space.kind == TREE:
        return _segment_center(space.tree, points, weights, table, d0)
    scale = sum(weights) << _EXACT_BITS
    return tuple(
        sum(map(mul, weights, map(_exact, column))) / scale for column in zip(*points)
    )


def _segment_center(tree: Tree, points, weights: list[int], table, d0: float):
    """Weighted mean of tree points that all lie on one geodesic, else None.

    The geodesic joins the first pair of the pair table `table` at
    distance d0, the diameter.  A point lies on it when one of its
    placements falls inside one of the geodesic's runs, which is decided
    on the offsets exactly, also for a vertex that its canonical form puts
    on an edge off the path.  The position of each point along the
    geodesic, their mean and the offset of the mean are exact integers,
    rounded once.
    """
    a, b = list(combinations(points, 2))[table.index(d0)]
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


def _sheet_mean(items, table, d: float):
    """The sheet projection of the mass-weighted ambient mean of hyperbolic
    (point, mass) items of diameter d, with quadrances `table`.

    With weights w_i = m_i / M, the mean v = sum w_i x_i has
    -<v,v> = 1 + sum_{i<j} w_i w_j q_ij, where q_ij = <x_i - x_j, x_i - x_j>
    is the pair table's entry (as <x_i, x_i> = -1), so the projection is
    the lift of the spatial mean over s = sqrt(-<v,v>).  Reading s from
    the pairs, rather than from v0^2 - |v_s|^2, keeps it from cancelling
    like x0^2 far out.  The weights keep every product finite for masses
    near the largest double, and every sum is an fsum, which is correctly
    rounded and so the same in every item order and on every Python.
    """
    points, masses = zip(*items)
    total = math.fsum(masses)
    weights = [m / total for m in masses]
    vv = 1.0 + math.fsum(map(mul, starmap(mul, combinations(weights, 2)), table))
    if vv <= 0.0:
        raise _cancelled(vv, d)
    s = math.sqrt(vv)
    columns = zip(*points)
    next(columns)  # x0, which the lift gives
    return spaces._lift([math.fsum(map(mul, weights, c)) / s for c in columns], "diameter", d)


@cache
def _complements(n: int) -> tuple:
    """For each item i of n, getters of the other items and of the entries
    of their pair table, those that leave i out."""
    def leaving(i, k):  # the k-subsets of range(n) that leave i out, by position
        return itemgetter(*(j for j, s in enumerate(combinations(range(n), k)) if i not in s))
    return tuple((leaving(i, 1), leaving(i, 2)) for i in range(n))


class _Recursion:
    """The construction of one top-level call, on (point, mass) tuples.

    Every configuration carries its pair table: the measure of
    `spaces.kernels` (the quadrance in H^n) of each pair of its points, in
    `combinations` order, taken once.  Its diameter, its complements'
    tables (`_complements`), the two-point rule's distance and the
    near-flat close read from it; a move toward a complement's center, a
    pair no table holds, leaves its quadrance to the interpolator.
    `settle` iterates to (center, iterations, diameter trace); it takes
    each leave-one-out step with no call of its own, moving as `between`
    does.  Three items, the recursion's leaves, settle in a loop of their
    own that keeps the items and the table in locals and closes a
    near-flat triple inline; more items take the generic loop.

    A generation begins at the top-level configuration and at every later
    step: the configurations that first steps reach from it are its
    subsets, named by their items' positions in it.  Its memo maps those
    small-int tuples to centers, so a center that two branches need (S
    minus {i, j}, from i and from j) is computed once.  Only a first step
    touches the memo: a later step's complements hold points that the step
    before moved, which no other branch reaches, and they begin a new
    generation with a new memo.  Items are never compared, so duplicate
    points and signed zeros are each computed from their own items; tol,
    max_iters and max_points are fixed for the recursion's life.  `_start`
    checks the masses, and a step forms only positive finite ones.
    """

    __slots__ = (
        "space", "tol", "near_flat", "flat", "max_iters", "max_points", "measure",
        "to_distance", "interpolate",
    )

    def __init__(self, space: Space, tol: float, max_iters: int, max_points: int):
        if not 0.0 < tol < math.inf:
            raise GeometryError(f"tol must be positive and finite, got {tol}")
        if max_iters < 0:
            raise GeometryError(f"max_iters must be >= 0, got {max_iters}")
        self.space, self.tol = space, tol
        # below this diameter a hyperbolic configuration closes in one
        # projected step (see settle); nothing else is near-flat
        self.near_flat = tol ** (1.0 / 3.0) if space.kind == HYPERBOLIC else 0.0
        self.flat = space.kind in (EUCLIDEAN, TREE)  # the kinds _flat_center can close
        self.max_iters, self.max_points = max_iters, max_points
        self.measure, self.to_distance, self.interpolate = spaces.kernels(space)

    def table(self, items) -> list:
        """The pair table of items."""
        return list(starmap(self.measure, combinations([p for p, _ in items], 2)))

    def between(self, x, mx, y, my, d=None):
        """The two-point center of (x, mx) and (y, my), d apart if given."""
        t = my / (mx + my)
        if t == 0.0:
            return x
        if t == 1.0:
            return y
        return self.interpolate(x, y, t, d)

    def settle(self, items, table, places, memo, once=False):
        """(center, iterations, diameter trace) from items and pair table,
        with every step taken in this frame.  `places` are the items'
        positions in the configuration that began their generation, whose
        memo is `memo`.  With `once` it takes one step without the checks
        below and returns the moved items (`leave_one_out_step`).

        A flat configuration closes in closed form (`_flat_center`), and a
        hyperbolic one in one projected step, `_sheet_mean`, once its
        diameter d before a step lies in [tol, delta), delta = tol**(1/3).
        A chord point projected onto the sheet lies within O(d^3) of the
        geodesic point at the same mass fraction: against the recursion run
        to tol 1e-13 (H^2 and H^3, n = 3 to 5, d from 1e-3 to 1), the
        projected mean missed the limit by at most 0.015 d^3, so below delta
        by at most 0.015 tol, more than 60 times inside the tol that the
        recursion stops at.  It counts as one iteration with trace entry
        0.0; max_iters and the cap apply as to any step before it, and the
        cap not to the projected step itself.

        Three items, the recursion's leaves and most of its settles, run a
        loop of their own on locals: each complement is a pair, whose center
        the two-point rule gives from the pair's table entry, and the
        near-flat close is `_sheet_mean` written out for three items, with
        the same fsums over the same terms.  More items run the generic
        loop, which takes each complement's center from `settle`.
        """
        tol, max_iters, to_distance = self.tol, self.max_iters, self.to_distance
        measure, interpolate, between = self.measure, self.interpolate, self.between
        n = len(items)
        trace, iterations = [], 0
        if n == 3:
            (a, ma), (b, mb), (c, mc) = items
            qab, qac, qbc = table
            i, j, k = places
            while True:
                if not once:
                    d = to_distance(max(0.0, qab, qac, qbc))
                    if not math.isfinite(d):
                        raise _overflows(d)
                    trace.append(d)
                    if d < tol:
                        return a, iterations, trace
                    if iterations >= max_iters:
                        raise _unconverged(d, tol, a, iterations, trace)
                    if not iterations and self.flat:  # items and table are still the arguments
                        center = _flat_center(self.space, items, table, d)
                        if center is not None:
                            return center, 1, [d, 0.0]
                    if d < self.near_flat:  # _sheet_mean, for three items
                        trace.append(0.0)
                        total = math.fsum((ma, mb, mc))
                        wa, wb, wc = ma / total, mb / total, mc / total
                        vv = 1.0 + math.fsum((wa * wb * qab, wa * wc * qac, wb * wc * qbc))
                        if vv <= 0.0:
                            raise _cancelled(vv, d)
                        s = math.sqrt(vv)
                        columns = zip(a, b, c)
                        next(columns)  # x0, which the lift gives
                        spatial = [math.fsum((wa * x, wb * y, wc * z)) / s for x, y, z in columns]
                        return spaces._lift(spatial, "diameter", d), iterations + 1, trace
                    if n > self.max_points:
                        raise _over_cap(n, self.max_points)
                total, first = ma + mb + mc, not iterations
                # a's complement (b, c)
                ra = total - ma or math.fsum([mb, mc])  # M - m_i cancels to 0
                ca = memo.get((j, k)) if first else None
                if ca is None:  # overflow fails a diameter or point check
                    d = to_distance(qbc)
                    if 0.0 < (t := mc / (mb + mc)) < 1.0:
                        ca = interpolate(b, c, t, d)
                    else:  # t is 0 or 1
                        ca = between(b, mb, c, mc, d)
                    if first:
                        memo[j, k] = ca
                if 0.0 < (t := ra / (ma + ra)) < 1.0:
                    pa = interpolate(a, ca, t, None)
                else:
                    pa = between(a, ma, ca, ra)
                # b's complement (a, c)
                rb = total - mb or math.fsum([ma, mc])
                cb = memo.get((i, k)) if first else None
                if cb is None:
                    d = to_distance(qac)
                    if 0.0 < (t := mc / (ma + mc)) < 1.0:
                        cb = interpolate(a, c, t, d)
                    else:
                        cb = between(a, ma, c, mc, d)
                    if first:
                        memo[i, k] = cb
                if 0.0 < (t := rb / (mb + rb)) < 1.0:
                    pb = interpolate(b, cb, t, None)
                else:
                    pb = between(b, mb, cb, rb)
                # c's complement (a, b)
                rc = total - mc or math.fsum([ma, mb])
                cc = memo.get((i, j)) if first else None
                if cc is None:
                    d = to_distance(qab)
                    if 0.0 < (t := mb / (ma + mb)) < 1.0:
                        cc = interpolate(a, b, t, d)
                    else:
                        cc = between(a, ma, b, mb, d)
                    if first:
                        memo[i, j] = cc
                if 0.0 < (t := rc / (mc + rc)) < 1.0:
                    pc = interpolate(c, cc, t, None)
                else:
                    pc = between(c, mc, cc, rc)
                a, ma, b, mb, c, mc = pa, ra / 2, pb, rb / 2, pc, rc / 2
                if once:
                    return [(a, ma), (b, mb), (c, mc)]
                iterations += 1
                qab, qac, qbc = measure(a, b), measure(a, c), measure(b, c)
        while True:
            if not once:
                d = to_distance(max((0.0, *table)))  # farthest, without its frame
                if not math.isfinite(d):
                    raise _overflows(d)
                trace.append(d)
                if d < tol:
                    return items[0][0], iterations, trace
                if iterations >= max_iters:
                    raise _unconverged(d, tol, items[0][0], iterations, trace)
                if not iterations and self.flat:
                    c = _flat_center(self.space, items, table, d)
                    if c is not None:
                        return c, 1, [d, 0.0]
                if d < self.near_flat:
                    trace.append(0.0)
                    return _sheet_mean(items, table, d), iterations + 1, trace
                if n > self.max_points:
                    raise _over_cap(n, self.max_points)
            total = 0.0  # _left_sum, without its frame
            for _, m in items:
                total += m
            first, moved = not iterations, []
            try:
                for (x, m), (others, pick) in zip(items, _complements(n)):
                    rest = others(items)
                    rest_mass = total - m or math.fsum([other for _, other in rest])
                    key = others(places)
                    center = memo.get(key) if first else None
                    if center is None:
                        center = self.settle(rest, pick(table), key, memo)[0]
                        if first:
                            memo[key] = center
                    if 0.0 < (t := rest_mass / (m + rest_mass)) < 1.0:
                        moved.append((interpolate(x, center, t, None), rest_mass / (n - 1)))
                    else:
                        moved.append((between(x, m, center, rest_mass), rest_mass / (n - 1)))
            except ConvergenceError as exc:  # a sub-configuration's; report ours
                if not once:
                    exc.result = BarycenterResult(items[0][0], iterations, trace, False)
                raise
            if once:
                return moved
            items, table, iterations = moved, self.table(moved), iterations + 1
            places, memo = range(n), {}  # the next step's complements begin a generation


def _overflows(d: float) -> GeometryError:
    return GeometryError(f"configuration overflows: diameter {d}")


def _cancelled(vv: float, d: float) -> GeometryError:
    """The error of a near-flat close whose -<v,v> = 1 + sum w_i w_j q_ij
    reads vv <= 0: far out, pair-table quadrances cancel below 0."""
    return GeometryError(
        f"configuration too far out for its near-flat close at diameter {d}: "
        f"its pair quadrances cancel, 1 + sum w_i w_j q_ij = {vv}"
    )


def _unconverged(d: float, tol: float, point, iterations: int, trace) -> ConvergenceError:
    """The error of a configuration still d wide after its last iteration,
    carrying its partial result: its first point, iterations and trace."""
    return ConvergenceError(
        f"diameter {d:.3e} still above tol {tol:.3e} after {iterations} iterations",
        BarycenterResult(point, iterations, trace, False),
    )


def _over_cap(n: int, cap: int) -> GeometryError:
    return GeometryError(
        f"{n} points exceeds the recursion cap {cap}; "
        "raise max_points explicitly to accept the cost"
    )


def _start(space: Space, config: Configuration, tol, max_iters, max_points):
    """The recursion of one top-level call, the configuration's items and
    pair table, and the mass scale k of `_finite_masses`."""
    recursion = _Recursion(space, tol, max_iters, max_points)
    spaces.check_arity(space, config.points)
    masses, k = _finite_masses([_checked_mass(i, it.mass) for i, it in enumerate(config.items)])
    items = tuple(zip(config.points, masses))
    return recursion, items, recursion.table(items), k


def leave_one_out_step(
    space: Space,
    config: Configuration,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
    max_points: int = DEFAULT_MAX_POINTS,
) -> Configuration:
    """One construction step: pair each point with its complement's center.

    Output point i is the two-point center of (x_i, m_i) and the fully
    recursive center of the other points carrying mass M - m_i; the new
    mass label is (M - m_i)/(n - 1), so total mass is preserved.  Where
    M - m_i rounds to 0 (m_i dwarfs the rest), the exact sum of the other
    masses stands in for it.  Masses whose sum reaches 2**1023 are stepped
    at 2**-64 scale and scaled back.
    """
    n = len(config)
    if n < 3:
        raise GeometryError(f"leave-one-out step needs at least 3 points, got {n}")
    recursion, items, table, k = _start(space, config, tol, max_iters, max_points)
    moved = recursion.settle(items, table, range(n), {}, once=True)
    moved = [(_finite(space, p), math.ldexp(m, k)) for p, m in moved]
    return Configuration(tuple(starmap(WeightedPoint, moved)))


def center_of_mass(
    space: Space,
    config: Configuration,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
    max_points: int = DEFAULT_MAX_POINTS,
) -> BarycenterResult:
    """Iterate the construction until the configuration diameter < tol.

    A flat configuration of diameter at least tol, with max_iters >= 1, and
    a near-flat hyperbolic one close in one step, at every level of the
    recursion (see `_Recursion.settle`); `max_points` caps only the
    configurations that take a recursive step.  A non-convergence at any
    level carries the partial result of this configuration: its first
    point, its completed iterations and its diameter trace.
    """
    recursion, items, table, _ = _start(space, config, tol, max_iters, max_points)
    if len(items) == 2:  # the two-point rule
        (x, mx), (y, my) = items
        c = recursion.between(x, mx, y, my, recursion.to_distance(table[0]))
        return BarycenterResult(_finite(space, c), 0, [0.0], True)
    center, iterations, trace = recursion.settle(items, table, range(len(items)), {})
    return BarycenterResult(center, iterations, trace, True)


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
    items[index] = WeightedPoint(point, items[index].mass)
    return Configuration(tuple(items))


def replace_mass(config: Configuration, index: int, mass: float) -> Configuration:
    items = list(config.items)
    items[index] = WeightedPoint(items[index].point, float(mass))
    return Configuration(tuple(items))
