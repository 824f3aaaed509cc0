import math
import re

import numpy as np
import pytest

from horocenter import GeometryError, IdealPoint, spaces as sp
from horocenter.barycenter import Configuration, center_of_mass, replace_mass
from horocenter.horosphere import ConvexBody
from horocenter.lipschitz import (
    ScanParams,
    body_case,
    branch_straddle_probe,
    hausdorff,
    mass_case,
    mass_shift_scan,
    point_shift_scan,
    selector_scan,
    shift_case,
)

from conftest import ideal_for


# -- hausdorff -------------------------------------------------------------------


def test_hausdorff_examples(euclid2):
    a = ConvexBody.of(euclid2, [(0.0, 0.0), (1.0, 1.0)])
    assert hausdorff(euclid2, a, a) == 0.0
    b = ConvexBody.of(euclid2, [(0.0, 0.0)])
    c = ConvexBody.of(euclid2, [(3.0, 4.0)])
    assert hausdorff(euclid2, b, c) == 5.0
    # one-sided enlargement: the far point sets the distance
    base = ConvexBody.of(euclid2, [(0.0, 0.0), (1.0, 0.0)])
    grown = ConvexBody.of(euclid2, [(0.0, 0.0), (1.0, 0.0), (1.0, 2.0)])
    assert hausdorff(euclid2, base, grown) == 2.0


def test_hausdorff_symmetry(any_space):
    rng = np.random.default_rng(12)
    a = ConvexBody.of(any_space, [sp.draw_point(any_space, rng, 2.0) for _ in range(3)])
    b = ConvexBody.of(any_space, [sp.draw_point(any_space, rng, 2.0) for _ in range(4)])
    assert hausdorff(any_space, a, b) == hausdorff(any_space, b, a)


# -- determinism --------------------------------------------------------------------


def test_scans_bit_identical(any_space):
    params = ScanParams(space=any_space, n_points=3, samples=25, epsilon=0.05, seed=9)
    assert point_shift_scan(params) == point_shift_scan(params)
    assert mass_shift_scan(params) == mass_shift_scan(params)
    params = ScanParams(
        space=any_space,
        n_points=3,
        samples=25,
        epsilon=0.05,
        seed=9,
        ideal=ideal_for(any_space),
    )
    assert selector_scan(params) == selector_scan(params)


def test_seeds_draw_different_samples(hyp2):
    # seeds 0 and 5 pair up under seed ^ index, the aliasing this guards against
    def ratios(seed):
        params = ScanParams(space=hyp2, n_points=4, samples=16, seed=seed)
        return sorted(r.ratio for r in point_shift_scan(params).records)

    assert ratios(0) != ratios(5)


@pytest.mark.parametrize("seed", [-1, -(2**63), 2**63, 2**64 + 5])
def test_scan_params_refuse_a_seed_that_would_alias(euclid2, seed):
    """Seeds outside [0, 2**63) would draw the samples of one inside:
    masked to 63 bits, -1 reads as 2**63 - 1 and 2**63 as 0."""
    params = ScanParams(space=euclid2, n_points=2, samples=1, seed=seed)
    message = re.escape(f"seed must lie in [0, 2**63), got {seed}")
    with pytest.raises(GeometryError, match=f"^{message}$"):
        params.validated()
    for scan in (point_shift_scan, mass_shift_scan):
        with pytest.raises(GeometryError, match=f"^{message}$"):
            scan(params)
    with pytest.raises(GeometryError, match=f"^{message}$"):
        sp.sub_rng(seed)


@pytest.mark.parametrize("index", [-1, -(2**63), 2**63, 2**64 + 5])
def test_sub_rng_refuses_an_index_that_would_alias(index):
    """Sample indices outside [0, 2**63) would draw the stream of one
    inside: masked to 63 bits, -1 reads as 2**63 - 1 and 2**63 as 0."""
    message = re.escape(f"index must lie in [0, 2**63), got {index}")
    with pytest.raises(GeometryError, match=f"^{message}$"):
        sp.sub_rng(5, index)


@pytest.mark.parametrize("value", [2.7, 2.0, "5", True, None])
@pytest.mark.parametrize("name", ["seed", "samples", "n_points", "max_iters"])
def test_scan_params_refuse_a_count_that_is_no_integer(euclid2, name, value):
    """seed=2.7 drew seed 2's samples and seed="5" seed 5's, and a float
    sample count or size failed in range() with no name."""
    params = ScanParams(euclid2, **{"n_points": 2, "samples": 1, name: value})
    message = f"^{name} must be an integer, got {re.escape(repr(value))}$"
    with pytest.raises(GeometryError, match=message):
        params.validated()
    with pytest.raises(GeometryError, match=message):
        point_shift_scan(params)


def test_seeds_and_indices_take_numpy_integers(euclid2):
    assert sp.checked_seed(np.int64(5)) == 5 and type(sp.checked_seed(np.uint8(5))) is int
    assert sp.sub_rng(np.int64(5), np.int32(3)).random() == sp.sub_rng(5, 3).random()
    with pytest.raises(GeometryError, match=r"^index must be an integer, got 3\.0$"):
        sp.sub_rng(5, 3.0)


def test_the_seed_range_ends_draw_their_own_samples(euclid2):
    """0 and 2**63 - 1 are both accepted and share no sample."""
    def ratios(seed):
        params = ScanParams(space=euclid2, n_points=3, samples=8, seed=seed).validated()
        return [r.ratio for r in point_shift_scan(params).records]

    assert ratios(0) != ratios(2**63 - 1)


@pytest.mark.parametrize("field", ["epsilon", "scale"])
@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
def test_scan_params_reject_bad_epsilon_and_scale(euclid2, field, value):
    params = ScanParams(space=euclid2, n_points=2, samples=1, **{field: value})
    with pytest.raises(GeometryError, match=f"{field} must be positive and finite"):
        point_shift_scan(params)


def test_scan_params_reject_negative_max_iters(hyp2):
    params = ScanParams(space=hyp2, n_points=2, samples=5, max_iters=-1)
    with pytest.raises(GeometryError, match="max_iters must be >= 0, got -1"):
        point_shift_scan(params)


def test_records_ordered_and_sane(any_space):
    params = ScanParams(space=any_space, n_points=4, samples=40, epsilon=0.05, seed=3)
    report = point_shift_scan(params)
    assert [r.sample for r in report.records] == sorted(r.sample for r in report.records)
    for r in report.records:
        assert math.isfinite(r.ratio) and r.ratio >= 0.0
    assert report.max_ratio == max(r.ratio for r in report.records)
    assert report.failures == 0


# -- point shift ----------------------------------------------------------------------


def test_point_shift_two_point_closed_form(euclid2):
    """Each sampled ratio equals m_k / (m_1 + m_2) in flat space."""
    params = ScanParams(space=euclid2, n_points=2, samples=60, epsilon=0.05, seed=17)
    report = point_shift_scan(params)
    assert len(report.records) == 60
    for record in report.records:
        config, k, _ = shift_case(params, record.sample)
        expected = config.items[k].mass / config.total_mass
        assert record.ratio == pytest.approx(expected, abs=1e-9)


def test_point_shift_nonexpansive(any_space):
    params = ScanParams(space=any_space, n_points=4, samples=120, epsilon=0.05, seed=23)
    report = point_shift_scan(params)
    assert report.max_ratio <= 1.0 + 1e-6


def test_point_shift_needs_two_points(euclid2):
    with pytest.raises(GeometryError):
        point_shift_scan(ScanParams(space=euclid2, n_points=1, samples=5))


# -- mass change ----------------------------------------------------------------------


def test_mass_case_keeps_mass_positive(any_space):
    params = ScanParams(space=any_space, n_points=3, samples=100, epsilon=0.9, seed=31)
    for i in range(100):
        config, k, delta = mass_case(params, i)
        assert config.items[k].mass + delta > 0.0


def test_mass_shift_two_point_closed_form(euclid2):
    """Perturbing one of two unit masses moves the center by d|delta|/(2(2+delta))."""
    d = 3.0
    config = Configuration.of(euclid2, [((0.0, 0.0), 1.0), ((d, 0.0), 1.0)])
    before = center_of_mass(euclid2, config).center
    for delta in (0.4, -0.3, 0.05, -0.009):
        after = center_of_mass(euclid2, replace_mass(config, 0, 1.0 + delta)).center
        got = sp.distance(euclid2, before, after)
        assert got == pytest.approx(d * abs(delta) / (2 * (2 + delta)), abs=1e-8)


def test_mass_shift_ratios_bounded(any_space):
    params = ScanParams(space=any_space, n_points=4, samples=120, epsilon=0.3, seed=37)
    report = mass_shift_scan(params)
    assert report.failures == 0
    for r in report.records:
        assert math.isfinite(r.ratio)
    assert report.max_ratio <= 2.0


def test_zero_mass_delta_skipped(euclid2):
    # epsilon tiny enough that a zero-denominator draw would be the only skip
    params = ScanParams(space=euclid2, n_points=2, samples=30, epsilon=1e-12, seed=5)
    report = mass_shift_scan(params)
    assert report.skipped + len(report.records) == 30


def test_mass_change_is_the_applied_change(euclid2):
    """The ratio divides by the change the rounded mass carries."""
    params = ScanParams(space=euclid2, n_points=3, samples=200, epsilon=1e-15, seed=1)
    for i in range(params.samples):
        config, k, delta = mass_case(params, i)
        mass = config.items[k].mass
        assert (mass + delta) - mass == delta
    # a change below half an ulp of every mass rounds away: nothing to measure
    report = mass_shift_scan(
        ScanParams(space=euclid2, n_points=3, samples=200, epsilon=1e-17, seed=1)
    )
    assert report.skipped == 200
    assert report.records == []


# -- selector ------------------------------------------------------------------------


def test_selector_scan_euclidean_bound(euclid2):
    """Flat-space pipeline: ratio <= sqrt(2) (level shift and transverse
    mean shift each bounded by the Hausdorff distance)."""
    xi = IdealPoint.direction((1.0, 0.0))
    for seed in (0, 1, 2):
        params = ScanParams(
            space=euclid2, n_points=4, samples=150, epsilon=0.05, seed=seed, ideal=xi
        )
        report = selector_scan(params)
        assert report.failures == 0
        assert report.max_ratio <= math.sqrt(2.0) + 1e-9


def test_selector_identical_bodies_skipped(euclid2):
    xi = IdealPoint.direction((1.0, 0.0))
    params = ScanParams(
        space=euclid2, n_points=3, samples=10, epsilon=1e-18, seed=2, ideal=xi
    )
    report = selector_scan(params)
    # a sample is skipped iff its perturbation rounds back onto the body
    collapsed = [
        i for i in range(10) if hausdorff(euclid2, *body_case(params, i)) == 0.0
    ]
    assert collapsed
    assert report.skipped == len(collapsed)
    assert sorted(r.sample for r in report.records) == sorted(
        set(range(10)) - set(collapsed)
    )
    assert all(r.in_disp > 0.0 for r in report.records)


def test_selector_scan_requires_ideal(euclid2):
    with pytest.raises(GeometryError):
        selector_scan(ScanParams(space=euclid2, n_points=3, samples=5))


def test_failures_counted_not_fatal(hyp2):
    params = ScanParams(
        space=hyp2, n_points=3, samples=12, epsilon=0.05, seed=4, max_iters=0
    )
    report = point_shift_scan(params)
    assert report.failures == 12
    assert report.records == []


@pytest.mark.parametrize("scan", [point_shift_scan, mass_shift_scan])
def test_scans_lift_the_recursion_cap_to_n_points(hyp2, scan):
    """Eight hyperbolic points take the recursion past the default cap of
    7: the point and mass scans cap at n_points, as select caps at the
    body size, so the sample runs rather than ending the scan."""
    report = scan(ScanParams(space=hyp2, n_points=8, samples=1))
    assert (len(report.records), report.failures, report.skipped) == (1, 0, 0)
    assert 0.0 < report.max_ratio < math.inf

# -- the straddle family ----------------------------------------------------------------


def test_epsilon_halving_stability(euclid2, hyp2, tree_space):
    """Halving epsilon at fixed seed moves max_ratio by at most 2x.

    Point shifts depend smoothly on the input everywhere.  For the
    selector the guarantee needs a continuous branch: the flat pipeline
    (always non-shrinking) and the smoothed tree scan at the committed
    seed.  Shrinking-branch selectors return a contact generator, and a
    near-tie between contact levels is a true discontinuity, so no such
    bound can hold for them at arbitrary seeds.
    """
    for space in (euclid2, hyp2, tree_space):
        maxes = []
        for eps in (0.05, 0.025):
            params = ScanParams(
                space=space, n_points=4, samples=80, epsilon=eps, seed=13
            )
            maxes.append(point_shift_scan(params).max_ratio)
        assert maxes[1] <= 2.0 * maxes[0]
        assert maxes[0] <= 2.0 * maxes[1]
    for space in (euclid2, tree_space):
        maxes = []
        for eps in (0.05, 0.025):
            params = ScanParams(
                space=space, n_points=4, samples=80, epsilon=eps, seed=13,
                ideal=ideal_for(space), smoothing=True,
            )
            maxes.append(selector_scan(params).max_ratio)
        assert maxes[1] <= 2.0 * maxes[0]
        assert maxes[0] <= 2.0 * maxes[1]


def test_straddle_diverges_without_smoothing(tree_space):
    xi = IdealPoint.end("C")
    ratios = branch_straddle_probe(tree_space, xi, smoothing=False)
    assert len(ratios) == 5
    for a, b in zip(ratios, ratios[1:]):
        assert b >= 2.0 * a


def test_straddle_bounded_with_smoothing(tree_space):
    xi = IdealPoint.end("C")
    ratios = branch_straddle_probe(tree_space, xi, smoothing=True)
    positive = [r for r in ratios if r > 0.0]
    assert not positive or max(positive) <= 4.0 * min(positive)


def test_straddle_does_not_follow_epsilon(tree_space):
    xi = IdealPoint.end("C")
    probe = branch_straddle_probe(tree_space, xi, smoothing=False)
    for epsilon in (0.05, 1e-5, 1e-9):
        params = ScanParams(
            space=tree_space, n_points=2, samples=1, epsilon=epsilon,
            smoothing=False, ideal=xi,
        )
        assert selector_scan(params).straddle == probe


def test_straddle_needs_tree(euclid2):
    with pytest.raises(GeometryError):
        branch_straddle_probe(euclid2, IdealPoint.direction((1.0, 0.0)))


def test_selector_scan_attaches_straddle(tree_space):
    xi = IdealPoint.end("C")
    params = ScanParams(
        space=tree_space,
        n_points=3,
        samples=10,
        epsilon=0.05,
        seed=8,
        ideal=xi,
        smoothing=False,
    )
    report = selector_scan(params)
    assert report.straddle is not None and len(report.straddle) == 5
    smoothed = selector_scan(
        ScanParams(
            space=tree_space,
            n_points=3,
            samples=10,
            epsilon=0.05,
            seed=8,
            ideal=xi,
            smoothing=True,
        )
    )
    assert smoothed.straddle is None


@pytest.mark.parametrize(
    "scan, fields, message",
    [
        (point_shift_scan, {"samples": 0}, "samples must be >= 1, got 0"),
        (point_shift_scan, {"n_points": 0}, "n_points must be >= 1, got 0"),
        (mass_shift_scan, {"n_points": 1}, "mass shift scan needs n_points >= 2"),
    ],
    ids=["samples", "n-points", "mass-one-point"],
)
def test_scans_refuse_empty_work(euclid2, scan, fields, message):
    with pytest.raises(GeometryError) as exc:
        scan(ScanParams(space=euclid2, **fields))
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "edges, xi, message",
    [
        ([("A", "B", 2.0), ("B", "C", 3.0), ("B", "D", 1.5)], IdealPoint.direction((1.0,)),
         "the straddle probe needs a marked-end ideal point"),
        ([("A", "B", 2.0), ("B", "C", 3.0)], IdealPoint.end("C"),
         "tree has no branch vertex to straddle"),
        ([("A", "B", 2.0), ("B", "C", 3.0), ("B", "D", 5e-5)], IdealPoint.end("C"),
         "branch edges too short for the straddle family"),
    ],
    ids=["direction", "path", "short-branch"],
)
def test_straddle_refuses_trees_without_a_family(edges, xi, message):
    space = sp.Space.tree_space(edges, ["C"])
    with pytest.raises(GeometryError) as exc:
        branch_straddle_probe(space, xi)
    assert str(exc.value) == message
