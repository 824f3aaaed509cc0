"""Seeded perturbation scans estimating Lipschitz moduli.

The three scans share one sample loop.  Sample i draws from its own
stream seeded by the pair (seed, i), so reports are bit-identical
across runs, independent of execution order, and distinct seeds in
[0, 2**63), the only ones accepted, never share a sample.  Each sample
gives an input displacement and two inputs; the loop maps both inputs to
points and records the distance between them over the input
displacement:

* point shift -- move one point of a weighted configuration by a geodesic
  step of size epsilon, ratio = center displacement / point displacement;
* mass change -- perturb one mass by a signed fraction of itself, ratio
  normalized by |delta| * diameter / total mass, where delta is the
  change the perturbed mass carries after rounding, so a change that
  rounds away is a zero displacement;
* selector -- perturb every generator of a body, ratio = selector
  displacement / generator-set Hausdorff distance.

A sample whose input displacement is zero is counted as skipped and
never turned into a ratio; one whose center fails to converge
(ConvergenceError) is counted as a failure and left out of the
statistics.  Any other error ends the scan.  The point and mass scans
lift the center recursion's cap to the configuration size, as `select`
lifts it to the body size, so a large n_points is slow, not refused.
The branch-straddle probe reproduces the selector's jump discontinuity
at a tree branch vertex and its repair by smoothing; its family is fixed
by the tree and the snap band, so the scan's epsilon does not move it.

The generator-set Hausdorff distance stands in for the hull Hausdorff
distance: generator sets within h of each other have hulls within h, so
the proxy upper-bounds the hull distance.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import spaces
from .barycenter import (
    DEFAULT_MAX_ITERS,
    DEFAULT_TOL,
    Configuration,
    ConvergenceError,
    center_of_mass,
    config_diameter,
    replace_mass,
    replace_point,
)
from .horosphere import ConvexBody, SelectOptions, _select
from .spaces import TREE, GeometryError, IdealPoint, Space, _left_sum
from .values import Frozen, Value

DEFAULT_SCALE = 2.0
MASS_LOW, MASS_HIGH = 0.5, 2.0
STRADDLE_HALVINGS = 4  # the straddle family's delta halves this many times


class ScanParams(Frozen):
    __slots__ = (
        "space", "n_points", "samples", "epsilon", "seed",
        "tol", "max_iters", "smoothing", "ideal", "scale",
    )
    _defaults = {
        "n_points": 4, "samples": 100, "epsilon": 0.05, "seed": 0, "tol": DEFAULT_TOL,
        "max_iters": DEFAULT_MAX_ITERS, "smoothing": True, "ideal": None, "scale": DEFAULT_SCALE,
    }

    def validated(self) -> "ScanParams":
        if self.samples < 1:
            raise GeometryError(f"samples must be >= 1, got {self.samples}")
        for name in ("epsilon", "scale"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise GeometryError(f"{name} must be positive and finite, got {value}")
        if self.n_points < 1:
            raise GeometryError(f"n_points must be >= 1, got {self.n_points}")
        if self.max_iters < 0:
            raise GeometryError(f"max_iters must be >= 0, got {self.max_iters}")
        spaces.checked_seed(self.seed)
        return self


ScanRecord = namedtuple("ScanRecord", ["sample", "in_disp", "out_disp", "ratio"])


class LipschitzReport(Value):
    __slots__ = ("records", "max_ratio", "mean_ratio", "failures", "skipped", "straddle")
    _defaults = {"straddle": None}


def hausdorff(space: Space, a: ConvexBody, b: ConvexBody) -> float:
    """Symmetric Hausdorff distance between finite generator sets: the
    largest of each generator's nearest measure in the other set, mapped
    to a distance once."""
    a, b = a.generators, b.generators
    spaces.check_arity(space, a + b)
    measure, to_distance, _ = spaces.kernels(space)
    nearest = (min(measure(p, q) for q in dst) for src, dst in ((a, b), (b, a)) for p in src)
    return spaces.farthest(to_distance, nearest)


# -- per-sample draws (exposed so tests can re-derive every case) ------------


def draw_configuration(space: Space, rng, n_points: int, scale: float) -> Configuration:
    points = [spaces.draw_point(space, rng, scale) for _ in range(n_points)]
    masses = [float(rng.uniform(MASS_LOW, MASS_HIGH)) for _ in range(n_points)]
    return Configuration.of(space, zip(points, masses))


def shift_case(params: ScanParams, index: int):
    """Configuration, shifted index, and the shifted point for one sample."""
    rng = spaces.sub_rng(params.seed, index)
    config = draw_configuration(params.space, rng, params.n_points, params.scale)
    k = int(rng.integers(params.n_points))
    moved = _shift(params, config.items[k].point, params.epsilon, rng)
    return config, k, moved


def mass_case(params: ScanParams, index: int):
    """Configuration, perturbed index, and the applied change (mass + delta) - mass."""
    rng = spaces.sub_rng(params.seed, index)
    config = draw_configuration(params.space, rng, params.n_points, params.scale)
    k = int(rng.integers(params.n_points))
    mass = config.items[k].mass
    delta = params.epsilon * mass * float(rng.uniform(-1.0, 1.0))
    delta = max(delta, -0.9 * mass)  # keep the perturbed mass positive
    if not math.isfinite(mass + delta):
        raise GeometryError(f"epsilon = {params.epsilon} overflows: mass {mass} + {delta}")
    return config, k, (mass + delta) - mass


def body_case(params: ScanParams, index: int):
    """Body and its per-generator perturbation for one selector sample."""
    rng = spaces.sub_rng(params.seed, index)
    gens = [
        spaces.draw_point(params.space, rng, params.scale)
        for _ in range(params.n_points)
    ]
    body = ConvexBody.of(params.space, gens)
    perturbed = [
        _shift(params, g, params.epsilon * float(rng.random()), rng)
        for g in body.generators
    ]
    return body, ConvexBody.of(params.space, perturbed)


def _shift(params: ScanParams, x, step: float, rng):
    """A random geodesic step set by epsilon, naming epsilon if it overflows."""
    return spaces._random_shift(params.space, x, step, rng, "epsilon", params.epsilon)


# -- scans -------------------------------------------------------------------


def _scan(params: ScanParams, sample, image) -> LipschitzReport:
    """The sample loop of every scan.

    sample(i) gives sample i's input displacement and its two inputs, and
    image maps an input to the point whose displacement is measured.
    """
    space = params.space
    records, failures, skipped = [], 0, 0
    for i in range(params.samples):
        in_disp, before, after = sample(i)
        if in_disp == 0.0:
            skipped += 1
            continue
        try:
            out_disp = spaces.distance(space, image(before), image(after))
        except ConvergenceError:
            failures += 1
            continue
        records.append(ScanRecord(i, in_disp, out_disp, out_disp / in_disp))
    ratios = [r.ratio for r in records]
    return LipschitzReport(
        records=records,
        max_ratio=max(ratios) if ratios else 0.0,
        mean_ratio=_left_sum(ratios) / len(ratios) if ratios else 0.0,
        failures=failures,
        skipped=skipped,
    )


def point_shift_scan(params: ScanParams) -> LipschitzReport:
    params = params.validated()
    if params.n_points < 2:
        raise GeometryError("point shift scan needs n_points >= 2")
    space, tol, max_iters = params.space, params.tol, params.max_iters

    def sample(i):
        config, k, moved = shift_case(params, i)
        in_disp = spaces.distance(space, config.items[k].point, moved)
        return in_disp, config, replace_point(config, k, moved)

    return _scan(params, sample, lambda c: center_of_mass(space, c, tol, max_iters, len(c)).center)


def mass_shift_scan(params: ScanParams) -> LipschitzReport:
    params = params.validated()
    if params.n_points < 2:
        raise GeometryError("mass shift scan needs n_points >= 2")
    space, tol, max_iters = params.space, params.tol, params.max_iters

    def sample(i):
        config, k, delta = mass_case(params, i)
        denom = abs(delta) * config_diameter(space, config) / config.total_mass
        return denom, config, replace_mass(config, k, config.items[k].mass + delta)

    return _scan(params, sample, lambda c: center_of_mass(space, c, tol, max_iters, len(c)).center)


def selector_scan(params: ScanParams) -> LipschitzReport:
    params = params.validated()
    space = params.space
    xi = params.ideal
    if xi is None:
        raise GeometryError("selector scan needs an ideal point")
    horo = spaces.horofunction(space, xi)
    opts = SelectOptions(
        tol=params.tol, max_iters=params.max_iters, smoothing=params.smoothing
    )

    def sample(i):
        body, perturbed = body_case(params, i)
        return hausdorff(space, body, perturbed), body, perturbed

    report = _scan(params, sample, lambda body: _select(space, horo, body, opts))
    if space.kind == TREE and not params.smoothing:
        report.straddle = branch_straddle_probe(space, xi, smoothing=False)
    return report


# -- the singular-point family -------------------------------------------------


def branch_straddle_probe(
    space: Space,
    xi: IdealPoint,
    smoothing: bool = False,
) -> list[float]:
    """Selector ratios for a two-generator family straddling a branch vertex.

    Generators sit on two distinct branches below the first branch vertex
    at depths contact_depth -/+ delta, with contact_depth half the snap
    band and delta starting at half contact_depth; the paired body swaps
    the signs.
    The contact generator flips between branches while the bodies differ
    by 2*delta, so without smoothing the ratio grows like 1/delta as
    delta halves.  With smoothing both outputs clamp to the vertex
    (depths sit inside the snap band) and the jump disappears.
    """
    if space.kind != TREE:
        raise GeometryError("the straddle probe is tree-specific")
    tree = space.tree
    if xi is None or xi.leaf is None:
        raise GeometryError("the straddle probe needs a marked-end ideal point")
    if not tree.branch_vertices:
        raise GeometryError("tree has no branch vertex to straddle")
    horo = spaces.horofunction(space, xi)
    vertex = tree.branch_vertices[0]
    toward_end = tree.vertex_path(vertex, xi.leaf)[0]  # a branch vertex is no leaf
    branches = [ei for _, ei in tree.adjacency[vertex] if ei != toward_end][:2]
    opts = SelectOptions(smoothing=smoothing)
    contact_depth = 0.5 * opts.snap_tol
    delta = 0.5 * contact_depth
    limit = min(tree.edges[ei].length for ei in branches)
    if contact_depth + delta >= limit:
        raise GeometryError("branch edges too short for the straddle family")

    def pair(*depths: float) -> ConvexBody:
        ends = zip(branches, depths)
        return ConvexBody.of(space, [tree.point_toward(vertex, ei, d) for ei, d in ends])

    ratios = []
    for _ in range(STRADDLE_HALVINGS + 1):
        lo = pair(contact_depth - delta, contact_depth + delta)
        hi = pair(contact_depth + delta, contact_depth - delta)
        gap = spaces.distance(space, *(_select(space, horo, b, opts) for b in (lo, hi)))
        ratios.append(gap / hausdorff(space, lo, hi))
        delta *= 0.5
    return ratios
