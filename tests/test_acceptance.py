"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line on success (visible with -s); the
test name carries the criterion number for plain -v runs.
"""

import json
import math

import numpy as np
import pytest

from horocenter import IdealPoint, Space, spaces as sp
from horocenter.barycenter import (
    Configuration,
    WeightedPoint,
    center_of_mass,
    config_diameter,
    leave_one_out_step,
    two_point_center,
    unit_configuration,
)
from horocenter.cli import main
from horocenter.horosphere import (
    NON_SHRINKING,
    SHRINKING,
    ConvexBody,
    classify_body,
    limit_separation,
    project_to_level,
    select,
)
from horocenter.lipschitz import (
    ScanParams,
    branch_straddle_probe,
    draw_configuration,
    mass_shift_scan,
    point_shift_scan,
    shift_case,
)

from conftest import TREE_EDGES, TREE_LEAVES, hull_sample, ideal_for, permuted, random_point

EUCLID = Space.euclidean(2)
HYP = Space.hyperbolic(2)
TREE = Space.tree_space(TREE_EDGES, TREE_LEAVES)
ALL_SPACES = [("euclidean", EUCLID), ("hyperbolic", HYP), ("tree", TREE)]


def _ok(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE C{criterion} PASS: {detail}")


@pytest.fixture(scope="module")
def hyperbolic_instances():
    """50 seeded weighted configurations, n in 3..6, diameter <= 5."""
    instances = []
    for seed in range(50):
        n = 3 + seed % 4
        config = draw_configuration(HYP, sp.sub_rng(seed), n, 2.5)
        instances.append((seed, config, center_of_mass(HYP, config, 1e-8, 200)))
    return instances


def test_c01_fixed_point_contract():
    worst = 0.0
    for name, space in ALL_SPACES:
        xi = ideal_for(space)
        for seed in range(200):
            x = random_point(space, seed, 2.0)
            got = select(space, ConvexBody.of(space, [x]), xi)
            worst = max(worst, sp.distance(space, got, x))
    assert worst <= 1e-12
    _ok(1, f"select({{x}}) = x for 600 singletons, worst distance {worst:.1e}")


def test_c02_two_point_division_ratio():
    worst = 0.0
    for name, space in ALL_SPACES:
        rng = sp.sub_rng(2)
        for _ in range(1000):
            a = WeightedPoint(sp.draw_point(space, rng, 2.0), float(rng.uniform(0.1, 5.0)))
            b = WeightedPoint(sp.draw_point(space, rng, 2.0), float(rng.uniform(0.1, 5.0)))
            c = two_point_center(space, a, b)
            d = sp.distance(space, a.point, b.point)
            err = abs(sp.distance(space, a.point, c) - b.mass / (a.mass + b.mass) * d)
            assert err <= 1e-9 * max(d, 1e-12)
            worst = max(worst, err / max(d, 1e-12))
    _ok(2, f"division ratio on 3000 weighted pairs, worst relative error {worst:.1e}")


def test_c03_euclidean_one_step_collapse():
    rng = sp.sub_rng(3)
    for n in range(3, 7):
        for _ in range(5):
            config = Configuration.of(
                EUCLID,
                [
                    (sp.draw_point(EUCLID, rng, 2.0), float(rng.uniform(0.2, 3.0)))
                    for _ in range(n)
                ],
            )
            pts = np.array(config.points)
            masses = np.array([i.mass for i in config.items])
            mean = tuple((masses @ pts) / masses.sum())
            stepped = leave_one_out_step(EUCLID, config)
            for item in stepped.items:
                assert sp.distance(EUCLID, item.point, mean) <= 1e-8
            center = center_of_mass(EUCLID, config, 1e-8, 200).center
            assert sp.distance(EUCLID, center, mean) <= 1e-8
    _ok(3, "one-step collapse onto the weighted mean for n in 3..6")


def test_c04_hyperbolic_contraction_and_convergence(hyperbolic_instances):
    for seed, config, result in hyperbolic_instances:
        assert config_diameter(HYP, config) <= 5.0 + 1e-12
        assert result.converged
        assert result.iterations <= 200
        assert result.diameter_trace[-1] < 1e-8
        for a, b in zip(result.diameter_trace, result.diameter_trace[1:]):
            assert b <= a + 1e-12
    iters = max(r.iterations for _, _, r in hyperbolic_instances)
    _ok(4, f"50 hyperbolic instances converged at 1e-8 (max {iters} iterations)")


def test_c05_uniqueness_under_permutation(hyperbolic_instances):
    worst = 0.0
    for seed, config, result in hyperbolic_instances:
        order = list(np.random.default_rng([seed, 999]).permutation(len(config)))
        other = center_of_mass(HYP, permuted(config, order), 1e-8, 200)
        worst = max(worst, sp.distance(HYP, result.center, other.center))
    assert worst <= 1e-8
    _ok(5, f"permuted reruns agree, worst center shift {worst:.1e}")


def _pairwise_max(space, points) -> float:
    if space.kind == "euclidean":
        arr = np.asarray(points)
        gram = (arr * arr).sum(axis=1)
        sq = gram[:, None] + gram[None, :] - 2.0 * arr @ arr.T
        return float(np.sqrt(np.maximum(sq, 0.0)).max())
    if space.kind == "hyperbolic":
        arr = np.asarray(points)
        signs = np.ones(arr.shape[1])
        signs[0] = -1.0
        gram = (arr * signs) @ arr.T
        return float(np.arccosh(np.maximum(-gram, 1.0)).max())
    best = 0.0
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            d = space.tree.distance(points[i], points[j])
            if d > best:
                best = d
    return best


def test_c06_hull_sampling_lemma_and_corollary():
    for name, space in ALL_SPACES:
        rng = sp.sub_rng(6)
        config = unit_configuration(
            space, [sp.draw_point(space, rng, 2.0) for _ in range(5)]
        )
        diam = config_diameter(space, config)
        samples = hull_sample(space, config, 8, seed=60)
        assert len(samples) >= 1000
        assert _pairwise_max(space, samples) <= diam + 1e-9
        # corollary: contracting every generator toward a common point by
        # factor a scales all pairwise distances by at most a
        anchor = config.points[0]
        for a in (0.3, 0.7):
            shrunk = unit_configuration(
                space,
                [sp.geodesic_point(space, anchor, p, a) for p in config.points],
            )
            assert config_diameter(space, shrunk) <= a * diam + 1e-9
    _ok(6, "1280 hull samples per space stay within the generator diameter")


def test_c07_busemann_ray_identities_and_idempotence():
    for name, space in ALL_SPACES:
        scale = 1.25 if space.kind == "hyperbolic" else 2.0
        rng = sp.sub_rng(7)
        for _ in range(500):
            x = sp.draw_point(space, rng, scale)
            xi = sp.draw_ideal(space, rng)
            s = float(rng.uniform(0.0, 10.0))
            r = sp.ray_point(space, x, xi, s)
            drop = sp.busemann(space, xi, r) - sp.busemann(space, xi, x)
            assert abs(drop + s) <= 1e-7
            t = sp.busemann(space, xi, x) - float(rng.uniform(0.0, 3.0))
            once = project_to_level(space, x, xi, t)
            assert abs(sp.busemann(space, xi, once) - t) <= 1e-7
            twice = project_to_level(space, once, xi, t)
            assert sp.distance(space, once, twice) <= 1e-9
    _ok(7, "1500 ray drops within 1e-7; projections idempotent within 1e-9")


def test_c08_shrinking_dichotomy():
    # euclidean: bodies on a hyperplane horosphere never shrink and keep
    # their exact initial separations (flat Lemma-1 witness)
    u = IdealPoint.direction((1.0, 0.0))
    o2 = (0.0, 0.0)
    rng = sp.sub_rng(8)
    for _ in range(20):
        level = float(rng.uniform(-2.0, 2.0))
        gens = [(-level, float(rng.uniform(-3.0, 3.0))) for _ in range(4)]
        body = ConvexBody.of(EUCLID, gens)
        if len(body) < 2:
            continue
        verdict = classify_body(EUCLID, body, u)
        assert verdict.verdict == NON_SHRINKING
        for i, x in enumerate(body.generators):
            for y in body.generators[i + 1 :]:
                value = limit_separation(EUCLID, x, y, u)
                assert abs(value - sp.distance(EUCLID, x, y)) <= 1e-9

    xi = ideal_for(HYP)
    for k in range(20):
        rngH = sp.sub_rng(80, k)
        raw = [sp.draw_point(HYP, rngH, 1.0) for _ in range(4)]
        floor = min(sp.busemann(HYP, xi, g) for g in raw)
        body = ConvexBody.of(
            HYP, [project_to_level(HYP, g, xi, floor) for g in raw]
        )
        verdict = classify_body(HYP, body, xi, tol=1e-6)
        assert verdict.verdict == SHRINKING
        assert verdict.max_limit_separation < 1e-6

    end = IdealPoint.end("C")
    for k in range(20):
        rngT = sp.sub_rng(800, k)
        raw = [sp.draw_point(TREE, rngT, 3.0) for _ in range(4)]
        floor = min(sp.busemann(TREE, end, g) for g in raw)
        body = ConvexBody.of(
            TREE, [project_to_level(TREE, g, end, floor) for g in raw]
        )
        verdict = classify_body(TREE, body, end)
        assert verdict.verdict == SHRINKING
        assert verdict.max_limit_separation == 0.0
    _ok(8, "euclidean non-shrinking at exact separation; hyperbolic/tree shrink")


def test_c09_point_shift_lipschitz():
    for name, space in ALL_SPACES:
        params = ScanParams(space=space, n_points=4, samples=500, epsilon=0.05, seed=9)
        report = point_shift_scan(params)
        assert report.failures == 0
        assert report.max_ratio <= 1.0 + 1e-6
    # flat two-point closed form: ratio is exactly m_k / (m_1 + m_2)
    params = ScanParams(space=EUCLID, n_points=2, samples=200, epsilon=0.05, seed=90)
    report = point_shift_scan(params)
    for record in report.records:
        config, k, _ = shift_case(params, record.sample)
        expected = config.items[k].mass / config.total_mass
        assert abs(record.ratio - expected) <= 1e-9
    _ok(9, "point-shift max ratio <= 1 + 1e-6 in all spaces; flat ratio exact")


def test_c10_mass_change_lipschitz():
    for name, space in ALL_SPACES:
        params = ScanParams(space=space, n_points=4, samples=500, epsilon=0.3, seed=10)
        report = mass_shift_scan(params)
        assert report.failures == 0
        for r in report.records:
            assert math.isfinite(r.ratio) and r.ratio >= 0.0
        assert report.max_ratio <= 2.0
    # flat two-point closed form for the center displacement
    d = 3.0
    config = Configuration.of(EUCLID, [((0.0, 0.0), 1.0), ((d, 0.0), 1.0)])
    before = center_of_mass(EUCLID, config).center
    for delta in (0.5, -0.4, 0.02, -0.003):
        bumped = Configuration.of(EUCLID, [((0.0, 0.0), 1.0 + delta), ((d, 0.0), 1.0)])
        after = center_of_mass(EUCLID, bumped).center
        predicted = d * abs(delta) / (2.0 * (2.0 + delta))
        assert abs(sp.distance(EUCLID, before, after) - predicted) <= 1e-8
    _ok(10, "mass-change ratios finite and <= 2; flat displacement matches")


def test_c11_singular_point_reproduction():
    xi = IdealPoint.end("C")
    raw = branch_straddle_probe(TREE, xi, smoothing=False)
    assert len(raw) == 5
    for a, b in zip(raw, raw[1:]):
        assert b >= 2.0 * a
    smoothed = branch_straddle_probe(TREE, xi, smoothing=True)
    positive = [r for r in smoothed if r > 0.0]
    assert not positive or max(positive) <= 4.0 * min(positive)
    _ok(
        11,
        f"straddle ratios grow {raw[0]:.1f} -> {raw[-1]:.1f} unsmoothed; "
        f"smoothed ratios {smoothed}",
    )


def test_c12_cli_determinism_and_exit_codes(tmp_path):
    tri = tmp_path / "tri.json"
    tri.write_text(
        json.dumps(
            {
                "points": [
                    {"coords": [0.0, 0.0], "mass": 1.0},
                    {"coords": [1.0, 0.0], "mass": 1.0},
                    {"coords": [0.0, 1.0], "mass": 1.0},
                ]
            }
        )
    )
    scan_args = [
        "scan-shift", "--space", "hyperbolic", "--dim", "2",
        "--samples", "60", "--seed", "7",
    ]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(scan_args + ["--output", str(a)]) == 0
    assert main(scan_args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    bad = tmp_path / "bad.json"
    bad.write_text('{"points": [{"coords": [0.0, 0.0]}]}')
    assert (
        main(["barycenter", "--space", "euclidean", "--dim", "2", "--input", str(bad)])
        == 1
    )

    partial = tmp_path / "partial.json"
    code = main(
        ["barycenter", "--space", "euclidean", "--dim", "2", "--input", str(tri),
         "--max-iters", "0", "--output", str(partial)]
    )
    assert code == 2
    assert json.loads(partial.read_text())["converged"] is False
    _ok(12, "byte-identical reruns; exit codes 1 and 2 honored")
