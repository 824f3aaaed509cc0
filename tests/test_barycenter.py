import contextlib
import io
import json
import math
import re
import sys
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import partial
from itertools import combinations, permutations, starmap

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hyperboloid_oracle as oracle
import kernel_reference as loops
from conftest import TREE_EDGES, TREE_LEAVES, hull_sample, permuted
from horocenter import GeometryError, Space, spaces as sp
from horocenter.barycenter import (
    DEFAULT_TOL,
    BarycenterResult,
    Configuration,
    ConvergenceError,
    WeightedPoint,
    center_of_mass,
    config_diameter,
    leave_one_out_step,
    two_point_center,
    unit_configuration,
    _finite_masses,
    _flat_center,
    _loop,
    _Recursion,
    _sheet_mean,
)
from horocenter.cli import main
from horocenter.trees import TreeError, TreePoint

SEEDS = st.integers(min_value=0, max_value=2**31 - 1)


def euclid_weighted_mean(config):
    pts = np.array(config.points)
    masses = np.array([i.mass for i in config.items])
    return tuple((masses @ pts) / masses.sum())


def random_config(space, rng, n, scale=2.0, mass_range=(0.5, 2.0)):
    return Configuration.of(
        space,
        [
            (sp.draw_point(space, rng, scale), float(rng.uniform(*mass_range)))
            for _ in range(n)
        ],
    )


# -- two-point center ----------------------------------------------------------


def test_two_point_examples(euclid2, hyp2):
    a = WeightedPoint((0.0, 0.0), 1.0)
    assert two_point_center(euclid2, a, WeightedPoint((3.0, 0.0), 1.0)) == (1.5, 0.0)
    # the heavier second mass pulls the center toward itself, matching the
    # flat-space weighted mean (0*1 + 3*2)/3 = 2
    assert two_point_center(euclid2, a, WeightedPoint((3.0, 0.0), 2.0)) == (2.0, 0.0)
    x = WeightedPoint((1.0, 0.0, 0.0), 1.0)
    y = WeightedPoint((math.cosh(2.0), math.sinh(2.0), 0.0), 1.0)
    mid = two_point_center(hyp2, x, y)
    assert mid == pytest.approx((math.cosh(1.0), math.sinh(1.0), 0.0), abs=1e-12)


def test_two_point_mass_validation(euclid2):
    with pytest.raises(GeometryError):
        two_point_center(
            euclid2, WeightedPoint((0.0, 0.0), 0.0), WeightedPoint((1.0, 0.0), 1.0)
        )


def _refused(i, mass):
    """The message that refuses mass i, anchored: Configuration.of's."""
    return rf"^points\[{i}\]\.mass: must be positive and finite, got {re.escape(str(mass))}$"


@pytest.mark.parametrize(
    "masses, entry",
    [
        ((1.0, -1.0), 1),
        ((math.inf, -1.0), 0),  # the first entry at fault is named
        ((math.nan, 1.0), 0),
        ((1e308, math.nan), 1),
    ],
)
def test_the_two_point_rule_refuses_bad_masses(euclid2, hyp2, masses, entry):
    """two_point_center is the recursion's two-point rule, and a mass of 0
    or below, NaN or inf is refused where the recursion starts, with the
    message of Configuration.of; center_of_mass refuses the same
    configuration, built past its checks, with the same message, in E^2
    and in H^2."""
    message = _refused(entry, masses[entry])
    for space in (euclid2, hyp2):
        items = tuple(WeightedPoint(_on_x_axis(space, i), m) for i, m in enumerate(masses))
        with pytest.raises(GeometryError, match=message):
            two_point_center(space, *items)
        with pytest.raises(GeometryError, match=message):
            center_of_mass(space, Configuration(items))


def _on_x_axis(space, r):
    """The point at distance r from the basepoint along the first axis."""
    if space.kind == "euclidean":
        return (float(r), 0.0)
    return (math.cosh(r), math.sinh(r), 0.0)


@pytest.mark.parametrize(
    "masses, entry",
    [
        ((0.0, 1.0, 1.0), 0),
        ((-0.0, 2.0, 1.0), 0),
        ((-1.0, 0.5, 0.5), 0),  # M - m_0 = -m_0 would give t = 1/0
        ((1.0, -1.0, 1.0), 1),  # in a two-point rule, t = 1/0
        ((1.0, 1.0, -2.0), 2),
        ((1e308, 1e308, -1.0), 2),  # refused before the overflowing sum is scaled
        ((math.nan, 1.0, 1.0), 0),
        ((1.0, 1.0, math.nan), 2),
        ((1e308, math.nan, 1e308), 1),
    ],
)
def test_the_step_refuses_bad_masses(hyp2, masses, entry):
    """Every move of a step calls the interpolator itself, with no mass
    check of its own: a three-point H^2 configuration built past its
    checks, with a mass of 0 or below or NaN, is refused where the
    recursion starts, naming the first entry at fault, by center_of_mass
    and by leave_one_out_step."""
    points = [_on_x_axis(hyp2, 0.3), _on_x_axis(hyp2, -0.5), (math.cosh(0.4), 0.0, math.sinh(0.4))]
    cfg = Configuration(tuple(starmap(WeightedPoint, zip(points, masses))))
    message = _refused(entry, masses[entry])
    with pytest.raises(GeometryError, match=message):
        center_of_mass(hyp2, cfg)
    with pytest.raises(GeometryError, match=message):
        leave_one_out_step(hyp2, cfg)


def test_an_overflowing_two_point_center_raises(euclid2):
    """The midpoint of (1e308, 0) and (-1e308, 0) overflows: the two-point
    center raises as center_of_mass does, rather than return (-inf, 0.0)."""
    a, b = WeightedPoint((1e308, 0.0), 1.0), WeightedPoint((-1e308, 0.0), 1.0)
    message = r"^configuration overflows: center \(-inf, 0\.0\)$"
    with pytest.raises(GeometryError, match=message):
        two_point_center(euclid2, a, b)
    with pytest.raises(GeometryError, match=message):
        center_of_mass(euclid2, Configuration((a, b)))


def test_an_overflowing_leave_one_out_step_raises(euclid2):
    """The step's two-point rule does not check its centers; the step
    checks the points it returns, so the complement midpoint of (1e308, 0)
    and (-1e308, 0) raises as two_point_center does, not return (-inf, 0.0)."""
    cfg = unit_configuration(euclid2, [(1e308, 0.0), (-1e308, 0.0), (0.0, 0.0)])
    with pytest.raises(GeometryError, match=r"^configuration overflows: center \(-inf, 0\.0\)$"):
        leave_one_out_step(euclid2, cfg)


@settings(max_examples=50, deadline=None)
@given(seed=SEEDS)
def test_division_ratio(any_space, seed):
    rng = np.random.default_rng(seed)
    a = WeightedPoint(sp.draw_point(any_space, rng, 2.0), float(rng.uniform(0.1, 5.0)))
    b = WeightedPoint(sp.draw_point(any_space, rng, 2.0), float(rng.uniform(0.1, 5.0)))
    c = two_point_center(any_space, a, b)
    d = sp.distance(any_space, a.point, b.point)
    expected = b.mass / (a.mass + b.mass) * d
    assert abs(sp.distance(any_space, a.point, c) - expected) <= 1e-9 * max(d, 1.0)


@settings(max_examples=30, deadline=None)
@given(seed=SEEDS)
def test_two_point_symmetry(any_space, seed):
    rng = np.random.default_rng(seed)
    a = WeightedPoint(sp.draw_point(any_space, rng, 2.0), float(rng.uniform(0.1, 5.0)))
    b = WeightedPoint(sp.draw_point(any_space, rng, 2.0), float(rng.uniform(0.1, 5.0)))
    assert sp.distance(
        any_space,
        two_point_center(any_space, a, b),
        two_point_center(any_space, b, a),
    ) <= 1e-9


# -- configuration plumbing ------------------------------------------------------


def test_config_diameter(euclid2):
    cfg = unit_configuration(euclid2, [(0.0, 0.0), (3.0, 0.0), (0.0, 4.0)])
    assert config_diameter(euclid2, cfg) == 5.0
    assert config_diameter(euclid2, unit_configuration(euclid2, [(7.0, 7.0)])) == 0.0


def test_configuration_validation(euclid2):
    with pytest.raises(GeometryError):
        Configuration.of(euclid2, [])
    with pytest.raises(GeometryError):
        Configuration.of(euclid2, [((0.0, 0.0), -1.0)])
    with pytest.raises(GeometryError):
        Configuration.of(euclid2, [((0.0, 0.0, 0.0), 1.0)])


@pytest.mark.parametrize(
    "name, bad, message",
    [
        ("euclid2", (1.0, 2.0, 3.0), "expected 2 coordinates, got 3"),
        ("hyp2", (2.0, 0.0, 0.0), r"point is off the hyperboloid: <x,x> = -4\.0"),
        ("tree_space", TreePoint("X-Y", 0.0), "unknown edge 'X-Y'"),
    ],
    ids=["euclid2", "hyp2", "tree"],
)
def test_configuration_names_the_entry_at_fault(name, bad, message, request):
    space = request.getfixturevalue(name)
    good = sp.basepoint(space)
    with pytest.raises(GeometryError, match=rf"^points\[1\]: {message}$") as caught:
        Configuration.of(space, [(good, 1.0), (bad, 1.0)])
    assert isinstance(caught.value, TreeError) == (space.kind == "tree")  # type kept
    for mass in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(
            GeometryError, match=rf"^points\[1\]\.mass: must be positive and finite, got {mass}$"
        ):
            Configuration.of(space, [(good, 1.0), (good, mass)])
    with pytest.raises(GeometryError, match=r"^points: "):
        Configuration.of(space, [])


# -- the construction --------------------------------------------------------------


def test_singleton_and_pair_short_circuit(euclid2):
    res = center_of_mass(euclid2, unit_configuration(euclid2, [(7.0, -2.0)]))
    assert res.center == (7.0, -2.0)
    assert res.iterations == 0
    assert res.diameter_trace == [0.0]
    assert res.converged

    pair = Configuration.of(euclid2, [((0.0, 0.0), 1.0), ((3.0, 0.0), 2.0)])
    res = center_of_mass(euclid2, pair)
    assert res.center == (2.0, 0.0)
    assert res.iterations == 0


def test_euclidean_one_step_collapse():
    space = Space.euclidean(2)
    rng = np.random.default_rng(21)
    for n in range(3, 7):
        cfg = random_config(space, rng, n, mass_range=(0.2, 3.0))
        mean = euclid_weighted_mean(cfg)
        stepped = leave_one_out_step(space, cfg)
        for item in stepped.items:
            assert sp.distance(space, item.point, mean) <= 1e-8
        assert config_diameter(space, stepped) <= 1e-8 * max(
            config_diameter(space, cfg), 1.0
        )


def test_step_masses_relabeled(euclid2):
    cfg = Configuration.of(
        euclid2, [((0.0, 0.0), 1.0), ((1.0, 0.0), 1.0), ((0.0, 1.0), 1.0)]
    )
    stepped = leave_one_out_step(euclid2, cfg)
    assert [i.mass for i in stepped.items] == [1.0, 1.0, 1.0]
    assert stepped.total_mass == pytest.approx(cfg.total_mass, abs=1e-12)

    uneven = Configuration.of(
        euclid2, [((0.0, 0.0), 2.0), ((1.0, 0.0), 1.0), ((0.0, 1.0), 3.0)]
    )
    stepped = leave_one_out_step(euclid2, uneven)
    assert [i.mass for i in stepped.items] == [2.0, 2.5, 1.5]
    assert stepped.total_mass == pytest.approx(uneven.total_mass, abs=1e-12)


def test_total_mass_sums_left_to_right(euclid2):
    # a compensated sum (Python 3.12's sum()) gives 1e16 + 2
    cfg = Configuration.of(
        euclid2, [((0.0, 0.0), 1e16), ((1.0, 0.0), 1.0), ((0.0, 1.0), 1.0)]
    )
    assert cfg.total_mass == 1e16


def test_a_dominant_mass_keeps_its_complement_positive(euclid2):
    # M - m_4 rounds to 0, so the complement mass is summed from the rest
    cfg = Configuration.of(
        euclid2,
        [((0.0, 0.0), 1.0), ((1.0, 0.0), 1.0), ((0.0, 1.0), 1.0), ((1.0, 1.0), 1e17)],
    )
    assert cfg.total_mass - 1e17 == 0.0
    stepped = leave_one_out_step(euclid2, cfg)
    assert stepped.items[3].mass == 1.0
    res = center_of_mass(euclid2, cfg)
    assert res.converged and res.center == (1.0, 1.0)


def test_overflowing_masses_keep_the_midpoint(euclid2, hyp2):
    """Masses whose sum overflows still weigh as their ratios say."""
    a, b = WeightedPoint((0.0, 0.0), 1e308), WeightedPoint((1.0, 0.0), 1e308)
    assert two_point_center(euclid2, a, b) == (0.5, 0.0)
    cfg = Configuration.of(euclid2, [(a.point, a.mass), (b.point, b.mass)])
    assert center_of_mass(euclid2, cfg).center == (0.5, 0.0)
    rng = np.random.default_rng(8)
    points = [sp.draw_point(hyp2, rng, 2.0) for _ in range(3)]
    heavy = Configuration.of(hyp2, [(p, 1e308) for p in points])
    assert center_of_mass(hyp2, heavy).converged


SPREAD = [  # tree points on all three branches at B and past A
    TreePoint("B-C", 1.0),
    TreePoint("B-D", 0.5),
    TreePoint("A-B", 0.5),
    TreePoint("A-E", 0.5),
]


@pytest.mark.parametrize("space", ["euclid2", "hyp2", "tree"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_an_overflowing_mass_sum_is_scaled_exactly(space, n):
    """Where the masses sum past the largest double, the center, its trace
    and a step's masses are those of the masses scaled by 2**-64, bit for
    bit: a common power-of-two factor changes no mass ratio."""
    space = MEMO_SPACES[space]
    if space.kind == "tree":
        points = SPREAD[:n]
    else:
        rng = np.random.default_rng(n)
        points = [sp.draw_point(space, rng, 2.0) for _ in range(n)]
    masses = [1e308, 1.5e308, 0.7e308, 1e308][:n]
    big = Configuration.of(space, list(zip(points, masses)))
    small = Configuration.of(space, [(p, math.ldexp(m, -64)) for p, m in zip(points, masses)])
    assert math.isinf(big.total_mass)
    assert repr(center_of_mass(space, big)) == repr(center_of_mass(space, small))
    if n == 2:
        assert repr(two_point_center(space, *big.items)) == repr(
            two_point_center(space, *small.items)
        )
        return
    stepped, scaled = leave_one_out_step(space, big), leave_one_out_step(space, small)
    assert repr(stepped.points) == repr(scaled.points)
    assert [i.mass for i in stepped.items] == [math.ldexp(i.mass, 64) for i in scaled.items]


@pytest.mark.parametrize("space", ["hyp2", "tree"])
def test_a_mass_sum_near_the_largest_double_is_scaled(space):
    """Masses that sum to just below the largest double are scaled by
    2**-64 too, because a step's rounding can carry their sum past it:
    unscaled, a move's M - m_i + m_i overflowed and left its point where
    it was, and the next step's sum overflowed to a NaN mass fraction."""
    space = MEMO_SPACES[space]
    if space.kind == "tree":
        points = SPREAD[:3]
    else:
        rng = np.random.default_rng(1)
        points = [sp.draw_point(space, rng, 2.0) for _ in range(3)]
    masses = [2.592660065916198e307, 8.548410341197351e307, 6.835860941509608e307]
    big = Configuration.of(space, list(zip(points, masses)))
    small = Configuration.of(space, [(p, math.ldexp(m, -64)) for p, m in zip(points, masses)])
    assert big.total_mass == sys.float_info.max
    assert repr(center_of_mass(space, big)) == repr(center_of_mass(space, small))
    stepped, scaled = leave_one_out_step(space, big), leave_one_out_step(space, small)
    assert repr(stepped.points) == repr(scaled.points)
    assert [i.mass for i in stepped.items] == [math.ldexp(i.mass, 64) for i in scaled.items]


@pytest.mark.parametrize("n", [3, 4])
def test_a_mass_scaled_below_the_subnormals_stays_positive(hyp2, n):
    """5e-324 next to an overflowing sum would scale to 0.0; it floors at
    the smallest subnormal instead, whose pull is below rounding, so the
    center is that of the same points with a tiny unscaled mass."""
    points = [
        (math.cosh(1.0), math.sinh(1.0), 0.0),
        (math.cosh(1.0), 0.0, math.sinh(1.0)),
        (math.sqrt(1.5), -0.5, -0.5),
        (math.sqrt(1.5), -0.5, 0.5),
    ][:n]
    flushed = Configuration.of(hyp2, list(zip(points, [1e308, 1e308] + [5e-324] * (n - 2))))
    tiny = Configuration.of(hyp2, list(zip(points, [1.0, 1.0] + [1e-300] * (n - 2))))
    center = center_of_mass(hyp2, flushed).center
    assert center == center_of_mass(hyp2, tiny).center
    assert center == (1.1867923804877014, 0.451927070656132, 0.451927070656132)


def test_unit_triangle_centroid(euclid2):
    cfg = unit_configuration(euclid2, [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    res = center_of_mass(euclid2, cfg)
    assert res.center == pytest.approx((1 / 3, 1 / 3), abs=1e-12)
    assert res.iterations <= 1


def test_contraction_per_step(any_space):
    rng = np.random.default_rng(33)
    for n in (3, 4, 5):
        cfg = random_config(any_space, rng, n)
        before = config_diameter(any_space, cfg)
        after = config_diameter(any_space, leave_one_out_step(any_space, cfg))
        assert after <= before + 1e-12


def test_hyperbolic_strict_contraction(hyp2):
    rng = np.random.default_rng(4)
    cfg = random_config(hyp2, rng, 4, scale=2.5)
    before = config_diameter(hyp2, cfg)
    after = config_diameter(hyp2, leave_one_out_step(hyp2, cfg))
    assert after < before


def test_trace_monotone_and_converged(hyp2):
    rng = np.random.default_rng(8)
    cfg = random_config(hyp2, rng, 5, scale=2.5)
    res = center_of_mass(hyp2, cfg, 1e-8, 200)
    assert res.converged
    assert res.diameter_trace[-1] < 1e-8
    for a, b in zip(res.diameter_trace, res.diameter_trace[1:]):
        assert b <= a + 1e-12


def test_degenerate_coincident_input(any_space):
    rng = np.random.default_rng(2)
    p = sp.draw_point(any_space, rng, 1.0)
    cfg = Configuration.of(any_space, [(p, 1.0), (p, 2.0), (p, 0.5)])
    res = center_of_mass(any_space, cfg)
    assert res.iterations == 0
    assert sp.distance(any_space, res.center, p) == 0.0


def test_permutation_equivariance(any_space):
    rng = np.random.default_rng(17)
    for n in (3, 4, 5):
        cfg = random_config(any_space, rng, n)
        base = center_of_mass(any_space, cfg).center
        order = list(rng.permutation(n))
        other = center_of_mass(any_space, permuted(cfg, order)).center
        assert sp.distance(any_space, base, other) <= 1e-8


def test_mass_scaling_invariance(any_space):
    rng = np.random.default_rng(29)
    cfg = random_config(any_space, rng, 4)
    scaled = Configuration.of(
        any_space, [(i.point, i.mass * 137.5) for i in cfg.items]
    )
    a = center_of_mass(any_space, cfg).center
    b = center_of_mass(any_space, scaled).center
    assert sp.distance(any_space, a, b) <= 1e-9


def test_point_cap_and_override(hyp2):
    rng = np.random.default_rng(44)
    cfg = random_config(hyp2, rng, 4)
    with pytest.raises(GeometryError, match="exceeds the recursion cap 3"):
        center_of_mass(hyp2, cfg, max_points=3)
    res = center_of_mass(hyp2, cfg, max_points=4)
    assert res.converged


def test_flat_configurations_are_not_capped(euclid2, tree_space):
    """The cap bounds the recursion's cost, which closed-form centers skip."""
    cfg = random_config(euclid2, np.random.default_rng(44), 12)
    res = center_of_mass(euclid2, cfg, max_points=3)
    assert (res.iterations, res.diameter_trace[1:], res.converged) == (1, [0.0], True)
    on_segment = Configuration.of(
        tree_space,
        [(TreePoint("B-C", 0.25 * k), 1.0 + k) for k in range(1, 10)],
    )
    assert center_of_mass(tree_space, on_segment, max_points=3).iterations == 1


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_tol_must_be_positive_and_finite(euclid2, tol):
    cfg = unit_configuration(euclid2, [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    with pytest.raises(GeometryError, match="tol must be positive and finite"):
        center_of_mass(euclid2, cfg, tol, max_iters=0)


def test_max_iters_must_be_nonnegative(euclid2):
    cfg = unit_configuration(euclid2, [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    with pytest.raises(GeometryError, match="max_iters must be >= 0, got -1"):
        center_of_mass(euclid2, cfg, max_iters=-1)
    assert center_of_mass(euclid2, cfg, max_iters=1).converged


@pytest.mark.parametrize("name", ["max_iters", "max_points"])
@pytest.mark.parametrize("value", [math.nan, math.inf, 2.0, None, "200", True])
def test_counts_must_be_integers(hyp2, name, value):
    """A float count never ends a non-converging loop (nan and inf compare
    false), and None or a str fails in a comparison with no name, so each
    is refused by name.  The default tol is reachable here, so a library
    that lets such a count through returns a center instead of hanging."""
    cfg = unit_configuration(hyp2, [sp._lift([0.3 * c, 0.3 * s], "y", 0.0) for c, s in
                                    ((1, 0), (0, 1), (-1, 0), (0, -1))])
    with pytest.raises(GeometryError, match=f"^{name} must be an integer, got {re.escape(repr(value))}$"):
        center_of_mass(hyp2, cfg, **{name: value})
    assert center_of_mass(hyp2, cfg, **{name: np.int64(200 if name == "max_iters" else 4)}).converged


def test_non_convergence_reported(hyp2):
    rng = np.random.default_rng(3)
    cfg = random_config(hyp2, rng, 3, scale=2.0)
    with pytest.raises(ConvergenceError) as info:
        center_of_mass(hyp2, cfg, 1e-8, max_iters=0)
    partial = info.value.result
    assert isinstance(partial, BarycenterResult)
    assert not partial.converged
    assert partial.diameter_trace


# -- the memo of sub-configuration centers ------------------------------------------


def reference_center(space, config, tol, max_iters, flat=True):
    """The recursion without the memo: every complement center is computed
    afresh, so the center of S minus {i, j} is built from both sides.  It
    takes the library's closed form for flat configurations, and its
    projected step for hyperbolic ones below diameter tol**(1/3), at every
    level, as `center_of_mass` does, unless `flat` is False."""
    n = len(config)
    if n == 1:
        return BarycenterResult(config.items[0].point, 0, [0.0], True)
    if n == 2:
        return BarycenterResult(two_point_center(space, *config.items), 0, [0.0], True)
    trace = [_per_pair_diameter(space, config)]
    if flat and trace[0] >= tol and max_iters >= 1:
        center = _flat_center(space, _pairs(config), _table(space, config), trace[0])
        if center is not None:
            return BarycenterResult(center, 1, [trace[0], 0.0], True)
    iterations = 0
    while trace[-1] >= tol:
        if iterations >= max_iters:
            partial = BarycenterResult(config.items[0].point, iterations, trace, False)
            raise ConvergenceError("reference", partial)
        if flat and space.kind == "hyperbolic" and trace[-1] < tol ** (1 / 3):
            center = _sheet_mean(_pairs(config), _table(space, config), trace[-1])
            return BarycenterResult(center, iterations + 1, trace + [0.0], True)
        total, items = config.total_mass, config.items
        moved = []
        for i, item in enumerate(items):
            rest = Configuration(items[:i] + items[i + 1 :])
            try:
                c = reference_center(space, rest, tol, max_iters, flat).center
            except ConvergenceError as err:  # the partial result is this level's
                err.result = BarycenterResult(items[0].point, iterations, trace, False)
                raise
            rest_mass = total - item.mass
            if not rest_mass > 0.0:
                rest_mass = math.fsum(other.mass for other in rest.items)
            point = two_point_center(space, item, WeightedPoint(c, rest_mass))
            moved.append(WeightedPoint(point, rest_mass / (n - 1)))
        config = Configuration(tuple(moved))
        trace.append(_per_pair_diameter(space, config))
        iterations += 1
    return BarycenterResult(config.items[0].point, iterations, trace, True)


def _pairs(config):
    return [(item.point, item.mass) for item in config.items]


def _per_pair_diameter(space, config):
    """The largest `spaces.distance` of the pairs, each measured alone."""
    pairs = combinations(config.points, 2)
    return max([0.0] + [sp.distance(space, p, q) for p, q in pairs])


def _table(space, config):
    """The pair table of a configuration: its pairs' measures."""
    measure = sp.kernels(space)[0]
    return [measure(p, q) for p, q in combinations(config.points, 2)]


def _outcome(center, space, config, tol, max_iters):
    try:
        res = center(space, config, tol, max_iters)
    except ConvergenceError as err:
        res = err.result
    except GeometryError as err:  # both sides must reject alike
        return repr(err)
    return repr((res.center, res.iterations, res.diameter_trace, res.converged))


MEMO_SPACES = {
    "euclid2": Space.euclidean(2),
    "hyp2": Space.hyperbolic(2),
    "hyp3": Space.hyperbolic(3),
    "tree": Space.tree_space(TREE_EDGES, TREE_LEAVES),
}
ZEROS = st.sampled_from([None, 0.0, -0.0])
MASSES = st.one_of(st.sampled_from([1.0, 1e-17, 1e3]), st.floats(0.01, 100.0))


def _signed_zeros(space, point, zeros):
    """The point with the coordinates that `zeros` names set to signed zeros
    (the offset on a tree, the spatial coordinates on the hyperboloid)."""
    if space.kind == "tree":
        return point if zeros[0] is None else TreePoint(point.edge, zeros[0])
    spatial = list(point if space.kind == "euclidean" else point[1:])
    for j, z in enumerate(zeros[: len(spatial)]):
        if z is not None:
            spatial[j] = z
    if space.kind == "euclidean":
        return tuple(spatial)
    return (math.sqrt(1.0 + sum(v * v for v in spatial)),) + tuple(spatial)


@st.composite
def memo_cases(draw):
    space = MEMO_SPACES[draw(st.sampled_from(sorted(MEMO_SPACES)))]
    n = draw(st.integers(3, 5))
    rng = np.random.default_rng(draw(SEEDS))
    points = []
    for i in range(n):
        copy = draw(st.integers(0, i))  # i draws a fresh point, below i repeats one
        if copy < i:
            points.append(points[copy])
            continue
        zeros = draw(st.lists(ZEROS, min_size=2, max_size=2))
        points.append(_signed_zeros(space, sp.draw_point(space, rng, 2.0), zeros))
    masses = draw(st.lists(MASSES, min_size=n, max_size=n))
    config = Configuration.of(space, list(zip(points, masses)))
    tol = draw(st.sampled_from([1e-8, 1e-4]))
    max_iters = draw(st.sampled_from([0, 1, 3, 200]))
    return space, config, tol, max_iters


@settings(max_examples=150, deadline=None)
@given(case=memo_cases())
def test_memo_is_bit_identical_to_the_reference(case):
    """Sharing complement centers changes no bit of any center, iteration
    count or diameter trace, nor the partial result of a non-convergence,
    also where the items hold duplicate points and signed zeros (which
    memo keys, being positions, never share) or where the recursion
    fails."""
    assert _outcome(center_of_mass, *case) == _outcome(reference_center, *case)


def test_memo_cuts_geodesic_work(monkeypatch):
    """Each complement center is built once per top-level call: 1,176
    geodesic evaluations for a unit H^2 configuration of 6 points, where
    recomputing every complement from both sides makes 4,146.  They are
    counted through the interpolator that `spaces.kernels` hands out,
    which is the one the recursion uses."""
    space = Space.hyperbolic(2)
    rng = sp.sub_rng(11, 7)
    cfg = unit_configuration(space, [sp.draw_point(space, rng, 2.0) for _ in range(6)])
    calls = []
    kernels = sp.kernels

    def counted_kernels(space):
        measure, to_distance, interpolate = kernels(space)

        def counted(*args):
            calls.append(args)
            return interpolate(*args)

        return measure, to_distance, counted

    monkeypatch.setattr(sp, "kernels", counted_kernels)
    res = center_of_mass(space, cfg)
    assert res.converged and res.iterations == 3
    assert len(calls) == 1176


def test_only_a_first_step_touches_the_memo(monkeypatch):
    """A configuration's first step reads and fills the memo; a later step
    does not, as its complements hold points that the step before moved,
    which no other branch reaches (and whose positions would name a stale
    entry).  For the unit H^2 configuration of 6 points that is 786
    lookups, 470 of them hits, and 316 stores.  The center is the
    memo-free recursion's, bit for bit.

    Each memo reaches a configuration as its `settle` argument, so a
    wrapper of `settle` counts what it reads and stores; every entry of
    every memo is a counted store, so no frame wrote one past the wrapper.
    A configuration has stepped once it measures a moved pair table, the
    only measuring a settle does in its own frame."""
    space = Space.hyperbolic(2)
    rng = sp.sub_rng(11, 7)
    cfg = unit_configuration(space, [sp.draw_point(space, rng, 2.0) for _ in range(6)])
    reference = reference_center(space, cfg, 1e-8, 200)
    stepped, touches = [], []  # touches: (what, whether a first step did it)
    memos = {}  # every memo the recursion made, by id

    class CountedMemo:
        def __init__(self, memo):
            self.memo = memo

        def get(self, key):
            touches.append(("hit" if key in self.memo else "miss", not stepped[-1]))
            return self.memo.get(key)

        def __setitem__(self, key, value):
            touches.append(("store", not stepped[-1]))
            self.memo[key] = value

    settle, kernels = _Recursion.settle, sp.kernels

    def counted_settle(self, items, table, places, memo, once=False):
        if not isinstance(memo, CountedMemo):
            memos[id(memo)] = memo
            memo = CountedMemo(memo)
        stepped.append(False)
        try:
            return settle(self, items, table, places, memo, once)
        finally:
            stepped.pop()

    def counted_kernels(space):
        measure, to_distance, interpolate = kernels(space)

        def counted(*args):
            if stepped:
                stepped[-1] = True
            return measure(*args)

        return counted, to_distance, interpolate

    monkeypatch.setattr(_Recursion, "settle", counted_settle)
    monkeypatch.setattr(sp, "kernels", counted_kernels)
    res = center_of_mass(space, cfg)
    assert all(first for _, first in touches)
    counts = Counter(what for what, _ in touches)
    assert (counts["hit"], counts["miss"], counts["store"]) == (470, 316, 316)
    assert sum(map(len, memos.values())) == 316
    assert res.iterations == 3 and repr(res) == repr(reference)


def test_each_pair_is_measured_once_per_configuration(monkeypatch):
    """Each configuration's pairs are measured once, into a table that its
    complements, its two-point rule and its near-flat close read: 1,212
    quadrances through the measure that `spaces.kernels` hands out for
    the unit H^2 configuration of 6 points.  939 of the 1,176
    interpolations join a point to a complement center, a pair no table
    holds, and take its quadrance inside the interpolator, not through
    the measure: 2,151 quadrances in all, where measuring every pair at
    each use took 4,290."""
    space = Space.hyperbolic(2)
    rng = sp.sub_rng(11, 7)
    cfg = unit_configuration(space, [sp.draw_point(space, rng, 2.0) for _ in range(6)])
    measured, interpolated = [], []
    kernels = sp.kernels

    def counted_kernels(space):
        measure, to_distance, interpolate = kernels(space)
        return (
            lambda *args: measured.append(args) or measure(*args),
            to_distance,
            lambda *args: interpolated.append(args) or interpolate(*args),
        )

    monkeypatch.setattr(sp, "kernels", counted_kernels)
    res = center_of_mass(space, cfg)
    assert res.converged and res.iterations == 3
    assert (len(measured), len(interpolated)) == (1212, 1176)
    assert sum(1 for args in interpolated if args[3] is None) == 939


def test_only_a_step_compiles_a_settle_loop():
    """The loop for n items is compiled on the first step of an n-item
    configuration and kept: a configuration done before its first step
    does not even look it up.  That is a 200-point E^2 center (closed
    form), a 30-point H^2 configuration within 1e-3 of the basepoint (the
    near-flat close, which the cap does not limit), an 11-point H^2
    configuration over the default cap (refused) and a single point.  A
    second step of 13 E^2 points compiles nothing more than the first."""
    e2, h2 = Space.euclidean(2), Space.hyperbolic(2)
    rng = sp.sub_rng(41)
    before = _loop.cache_info()
    flat = unit_configuration(e2, [sp.draw_point(e2, rng, 2.0) for _ in range(200)])
    near = unit_configuration(h2, [sp.draw_point(h2, rng, 1e-3) for _ in range(30)])
    for space, cfg in ((e2, flat), (h2, near)):
        assert center_of_mass(space, cfg).diameter_trace[1:] == [0.0]
    wide = unit_configuration(h2, [sp.draw_point(h2, rng, 2.0) for _ in range(11)])
    with pytest.raises(GeometryError, match="^11 points exceeds the recursion cap 7; "):
        center_of_mass(h2, wide)
    assert center_of_mass(h2, unit_configuration(h2, [sp.draw_point(h2, rng, 2.0)])).converged
    assert _loop.cache_info() == before
    cfg = unit_configuration(e2, [sp.draw_point(e2, rng, 2.0) for _ in range(13)])
    leave_one_out_step(e2, cfg)
    first = _loop.cache_info()
    assert first.currsize >= 1 and first.misses + first.hits == before.misses + before.hits + 1
    leave_one_out_step(e2, cfg)
    second = _loop.cache_info()
    assert (second.misses, second.currsize) == (first.misses, first.currsize)


@pytest.mark.parametrize("dim", [2, 3])
def test_the_unrolled_kernels_give_every_caller_the_generic_bits(dim, monkeypatch):
    """`kernels` hands out kernels compiled for the dimension, their loops
    unrolled.  Each of their callers gives what it gives with the loop
    reference of tests/kernel_reference.py, bit for bit:
    the full `center_of_mass` result, `leave_one_out_step`, `diameter`,
    `geodesic_point` and `hausdorff`, for n = 3 to 6 with unit and random
    masses."""
    from horocenter.horosphere import ConvexBody
    from horocenter.lipschitz import hausdorff

    space = Space.hyperbolic(dim)
    rng = sp.sub_rng(43, dim)
    configs = []
    for n in (3, 4, 5, 6):
        for _ in range(2 if n == 6 else 4):
            points = [sp.draw_point(space, rng, 2.0) for _ in range(n)]
            masses = [float(rng.uniform(0.5, 2.0)) for _ in range(n)]
            configs.append(unit_configuration(space, points))
            configs.append(Configuration.of(space, zip(points, masses)))

    def outcomes():
        out = []
        for cfg in configs:
            points = cfg.points
            halves = ConvexBody.of(space, points[:2]), ConvexBody.of(space, points[2:])
            moves = [
                sp.geodesic_point(space, p, q, t)
                for p, q in combinations(points, 2)
                for t in (0.25, 2.0**-30, 1.0 - 2.0**-30)
            ]
            out += [
                repr(center_of_mass(space, cfg)),
                repr(leave_one_out_step(space, cfg)),
                repr(sp.diameter(space, points)),
                repr(moves),
                repr(hausdorff(space, *halves)),
            ]
        return out

    assert sp.kernels(space)[0] is not loops.quadrance
    assert sp.kernels(space)[2] is not loops.geodesic
    unrolled = outcomes()
    generic = (loops.quadrance, sp._quadrance_distance, loops.geodesic)
    monkeypatch.setattr(sp, "kernels", lambda space: generic)
    assert outcomes() == unrolled


def test_memo_keeps_the_partial_result(hyp2):
    """A non-convergence inside the recursion still surfaces the partial
    result the memo-free recursion gives, whether the top level or a
    sub-configuration runs out of iterations: that of the top level."""
    cfg = random_config(hyp2, np.random.default_rng(3), 5)
    for max_iters in (0, 1, 2):
        with pytest.raises(ConvergenceError) as info:
            center_of_mass(hyp2, cfg, 1e-8, max_iters)
        with pytest.raises(ConvergenceError) as ref:
            reference_center(hyp2, cfg, 1e-8, max_iters)
        assert repr(info.value.result) == repr(ref.value.result)


# the branches at the conftest tree's vertex B, and a span of offsets on each
# that stays off B
BRANCHES = (("A-B", 0.0, 1.9), ("B-C", 0.1, 3.0), ("B-D", 0.1, 1.5))


def _three_points(space, rng, zeros=True):
    """Three seeded points: in H^n within distance 2 of the basepoint; on
    the tree one per branch at B, so that the flat close gives None.  With
    `zeros`, signed zeros are set at random (on the tree an offset of
    -0.0, which puts a point at a vertex)."""
    if space.kind == "tree":
        return [
            TreePoint(edge, float(rng.uniform(lo, hi)))
            if not zeros or rng.random() < 0.9
            else TreePoint(edge, float(rng.choice([0.0, -0.0])))
            for edge, lo, hi in BRANCHES
        ]
    zero = [None, None, 0.0, -0.0] if zeros else [None]
    return [
        _signed_zeros(space, sp.draw_point(space, rng, 2.0), list(rng.choice(zero, 2)))
        for _ in range(3)
    ]


def _composition(space, cfg):
    """`leave_one_out_step` as its definition composes it, without the
    memo: each item moved toward its complement's reference center."""
    items, total, n = cfg.items, cfg.total_mass, len(cfg)
    moved = []
    for i, item in enumerate(items):
        rest = Configuration(items[:i] + items[i + 1 :])
        c = reference_center(space, rest, 1e-8, 200).center
        rest_mass = total - item.mass or math.fsum(other.mass for other in rest.items)
        point = two_point_center(space, item, WeightedPoint(c, rest_mass))
        moved.append(WeightedPoint(point, rest_mass / (n - 1)))
    return Configuration(tuple(moved))


# the generic kernels serve H^5
THREE_POINT_SPACES = {**MEMO_SPACES, "hyp5": Space.hyperbolic(5)}
# a dominant mass: a pair's t rounds to 0 or 1, and with two tiny masses
# so does the dominant item's move
DOMINANT = ((1e300, 1e-300, 1.0), (1e300, 1e-300, 1e-300))


@pytest.mark.parametrize("name", sorted(THREE_POINT_SPACES))
def test_three_point_settles_match_the_reference(name):
    """Three items settle in the loop compiled for three, the two-point
    rule for each complement and the moves in one frame, with position
    keys in the memo.  Its center, iterations and trace, and the partial
    result of a non-convergence at max_iters 0 and 1, are those of the
    memo-free reference, bit for bit, and `leave_one_out_step` moves each item as
    the composition does: for random masses, for a point repeated, for
    signed zeros, which no two memo keys share, and for a dominant mass,
    where a complement's or a move's t rounds to 0 or 1 and the two-point
    rule returns an endpoint.  E^2 closes its centers in closed form, so there
    the step alone runs the loop."""
    space = THREE_POINT_SPACES[name]
    rng = np.random.default_rng(32)
    for k in range(30):
        points = _three_points(space, rng)
        if rng.random() < 0.3:
            points[2] = points[int(rng.integers(2))]
        masses = [float(m) for m in 10.0 ** rng.uniform(-2.0, 2.0, 3)]
        if k % 3 == 0:
            masses = [float(m) for m in rng.permutation(DOMINANT[k % 2])]
        cfg = Configuration.of(space, list(zip(points, masses)))
        for max_iters in (0, 1, 200):
            case = (space, cfg, 1e-8, max_iters)
            assert _outcome(center_of_mass, *case) == _outcome(reference_center, *case)
        assert repr(leave_one_out_step(space, cfg)) == repr(_composition(space, cfg))


def test_signed_zeros_never_share_a_memo_entry(hyp2):
    """Memo keys are item positions, so two items that compare equal but
    differ in the sign of a zero each get their own complement centers:
    here items 1 and 2 are both the basepoint, with 0.0 and -0.0, and each
    moved point is the memo-free composition's, sign of zero included.
    Keying by items shared one entry between them and moved item 2 to a
    first spatial coordinate of -0.0 where the composition gives 0.0."""
    spatial = [(-0.0, -0.0), (0.0, 0.0), (-0.0, -0.0), (-0.0, -1.8310592540218686)]
    points = [(math.sqrt(1.0 + y0 * y0 + y1 * y1), y0, y1) for y0, y1 in spatial]
    cfg = Configuration.of(hyp2, list(zip(points, [1.0, 1000.0, 1000.0, 1.0])))
    assert repr(leave_one_out_step(hyp2, cfg)) == repr(_composition(hyp2, cfg))


def _far_triangle(r):
    """Three raw H^2 points at distance r from the basepoint, 120 degrees
    apart: past r = 355 a move toward them overflows."""
    angles = [2.0 * math.pi * i / 3.0 for i in range(3)]
    spatial = [(math.sinh(r) * math.cos(a), math.sinh(r) * math.sin(a)) for a in angles]
    return [(math.hypot(1.0, *y), *y) for y in spatial]


BAD_MASSES = [0.0, -0.0, -1.0, math.nan, math.inf]


@pytest.mark.parametrize("name", ["hyp2", "hyp3", "tree"])
@pytest.mark.parametrize("bad", BAD_MASSES)
def test_three_point_settles_refuse_bad_masses(name, bad):
    """A three-point configuration built past its checks, with a mass of 0,
    -0.0, below 0, NaN or inf at any place, is refused with the message of
    Configuration.of, naming the entry, by center_of_mass and by
    leave_one_out_step."""
    space = MEMO_SPACES[name]
    points = _three_points(space, np.random.default_rng(5), zeros=False)
    for place in range(3):
        masses = [1.0, 2.0, 0.5]
        masses[place] = bad
        cfg = Configuration(tuple(starmap(WeightedPoint, zip(points, masses))))
        for call in (center_of_mass, leave_one_out_step):
            with pytest.raises(GeometryError, match=_refused(place, bad)):
                call(space, cfg)


# points whose configuration closes at once: in E^2, in H^2 below the
# near-flat diameter tol**(1/3), and on the tree along one geodesic
CLOSES = {
    "euclid2": [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)],
    "hyp2": [(math.hypot(1.0, *y), *y) for y in ((0.0, 0.0), (1e-3, 0.0), (0.0, 1e-3))],
    "tree": [TreePoint("A-B", 0.5), TreePoint("B-C", 1.0), TreePoint("B-C", 2.0)],
}


@pytest.mark.parametrize("name", sorted(CLOSES))
def test_the_closes_refuse_bad_masses(name):
    """Neither close weighs a mass that nothing has checked: a configuration
    that closes at once, built past its checks, with masses (-1, 2, 0.5),
    (1, -1, 0), or 0, -0.0, -1, NaN or inf at any place, is refused with
    the message of Configuration.of, naming the first entry at fault, by
    center_of_mass and by leave_one_out_step.  Without the check the flat
    close returned a center for (-1, 2, 0.5), raised a bare
    ZeroDivisionError for (1, -1, 0) and a bare ValueError or
    OverflowError for NaN or inf; the near-flat close returned a center
    or blamed the diameter."""
    space, points = MEMO_SPACES[name], CLOSES[name]
    closed = center_of_mass(space, Configuration.of(space, list(zip(points, [1.0, 2.0, 0.5]))))
    assert (closed.iterations, closed.diameter_trace[-1]) == (1, 0.0)
    cases = [((-1.0, 2.0, 0.5), 0), ((1.0, -1.0, 0.0), 1)]
    for bad in BAD_MASSES:
        for place in range(3):
            masses = [1.0, 2.0, 0.5]
            masses[place] = bad
            cases.append((masses, place))
    for masses, entry in cases:
        cfg = Configuration(tuple(starmap(WeightedPoint, zip(points, masses))))
        for call in (center_of_mass, leave_one_out_step):
            with pytest.raises(GeometryError, match=_refused(entry, masses[entry])):
                call(space, cfg)


@pytest.mark.parametrize("name", sorted(MEMO_SPACES))
def test_one_and_two_points_refuse_bad_masses(name):
    """One point needs no step and two take the two-point rule, but their
    masses are checked where the recursion starts all the same: a bad mass
    of one point, once returned as its center, is refused too."""
    space = MEMO_SPACES[name]
    points = [sp.basepoint(space), sp.draw_point(space, np.random.default_rng(6), 1.0)]
    for bad in BAD_MASSES:
        alone = Configuration((WeightedPoint(points[0], bad),))
        with pytest.raises(GeometryError, match=_refused(0, bad)):
            center_of_mass(space, alone)
        for place in range(2):
            masses = [1.0, 2.0]
            masses[place] = bad
            items = tuple(starmap(WeightedPoint, zip(points, masses)))
            with pytest.raises(GeometryError, match=_refused(place, bad)):
                center_of_mass(space, Configuration(items))
            with pytest.raises(GeometryError, match=_refused(place, bad)):
                two_point_center(space, *items)


# items that Configuration.of refuses or reads, at entry 1: masses it
# refuses or converts, and points the point rule refuses
PAST_THE_GATE = {
    "euclid2": [(math.nan, 0.0), [1.0, 0.0]],
    "hyp2": [(1.0, 5.0, 0.0), (math.inf, 0.0, 0.0), [1.0, 0.0, 0.0]],
    "tree": [TreePoint("A-B", -math.inf), ("A-B", 0.5)],
}
DOORS = {
    "center_of_mass": center_of_mass,
    "leave_one_out_step": leave_one_out_step,
    "two_point_center": lambda space, cfg: two_point_center(space, *cfg.items[:2]),
}


@pytest.mark.parametrize("door", sorted(DOORS))
@pytest.mark.parametrize("name", sorted(PAST_THE_GATE))
def test_the_recursion_reads_items_as_configuration_of_does(name, door):
    """A configuration built past Configuration.of gets its outcome where
    the recursion starts: a str mass, a Decimal mass that reads as 0.0 and
    a point the point rule refuses get its message, prefixed points[1];
    a Decimal mass that reads as a positive float gets its center.  Before,
    a str or Decimal mass raised a bare TypeError, an off-sheet point gave
    a center and a NaN coordinate a bare ValueError."""
    space, call = MEMO_SPACES[name], DOORS[door]
    x, y = sp.basepoint(space), sp.draw_point(space, np.random.default_rng(7), 1.0)
    cases = [[(x, 1.0), (y, m), (x, 0.5)] for m in ("2.5", Decimal("1e-400"), Decimal(2))]
    cases += [[(x, 1.0), (p, 2.0), (x, 0.5)] for p in PAST_THE_GATE[name]]
    for items in cases:
        cfg = Configuration(tuple(starmap(WeightedPoint, items)))
        try:
            want = call(space, Configuration.of(space, cfg.items))
        except GeometryError as exc:
            with pytest.raises(GeometryError) as got:
                call(space, cfg)
            assert str(got.value) == str(exc) and str(exc).startswith("points[1]"), items
        else:
            assert items[1][1] == Decimal(2)
            assert repr(call(space, cfg)) == repr(want)


def test_an_empty_configuration_is_refused_where_the_recursion_starts(hyp2):
    with pytest.raises(GeometryError) as want:
        Configuration.of(hyp2, [])
    with pytest.raises(GeometryError) as got:
        center_of_mass(hyp2, Configuration(()))
    assert str(got.value) == str(want.value) == "points: a configuration needs at least one point"


def _log_uniform_masses(rng, n):
    """n masses log-uniform over [5e-324, 1e308], with ties, and in a third
    of the draws one mass of 1e308 that dwarfs the rest."""
    masses = [2.0 ** float(rng.uniform(-1074.0, math.log2(1e308))) for _ in range(n)]
    for i in range(1, n):
        if rng.random() < 0.25:
            masses[i] = masses[int(rng.integers(i))]
    if rng.random() < 1.0 / 3.0:
        masses = [m * 2.0**-60 for m in masses]
        masses[int(rng.integers(n))] = 1e308
    return [max(m, 5e-324) for m in masses]


@pytest.mark.parametrize("name", ["euclid2", "hyp2", "tree"])
def test_every_mass_a_step_forms_is_positive_and_finite(name):
    """The recursion checks masses only where it starts, because a step
    forms each mass (M - m_i)/(n - 1) out of positive finite masses, and
    the exact sum of the others stands in where M - m_i cancels: over
    seeded masses from the smallest subnormal to 1e308, with ties and with
    one mass that dwarfs the rest, for n = 3 to 6, every mass that three
    chained steps form is positive and finite, and center_of_mass passes
    every check on the same masses."""
    space = MEMO_SPACES[name]
    rng = np.random.default_rng(33)
    for _ in range(12):
        n = int(rng.integers(3, 7))
        points = [sp.draw_point(space, rng, 1.0) for _ in range(n)]
        cfg = Configuration.of(space, list(zip(points, _log_uniform_masses(rng, n))))
        try:
            center_of_mass(space, cfg, 1e-4, 2)
        except ConvergenceError:
            pass
        for _ in range(3):
            cfg = leave_one_out_step(space, cfg, 1e-4)
            assert all(0.0 < item.mass < math.inf for item in cfg.items), cfg.items


def test_an_overflowing_three_point_settle_names_its_cause(hyp2):
    """Raw far H^2 points whose moves overflow are refused where the
    recursion starts, by the point rule, in center_of_mass and in
    leave_one_out_step alike: their x0^2 overflows."""
    cfg = Configuration(tuple(WeightedPoint(p, 1.0) for p in _far_triangle(360.0)))
    refused = r"^points\[0\]: point is off the hyperboloid: <x,x> = nan$"
    with pytest.raises(GeometryError, match=refused):
        center_of_mass(hyp2, cfg)
    with pytest.raises(GeometryError, match=refused):
        leave_one_out_step(hyp2, cfg)


@pytest.mark.parametrize("max_iters", [0, 1, 2])
def test_the_partial_result_describes_the_input(hyp2, max_iters):
    """Where a sub-configuration runs out of iterations, the partial result
    is still the input's: its first point, and a trace that starts with
    its diameter and holds one entry per completed iteration plus one."""

    def at(r, ux, uy):
        return (math.cosh(r), math.sinh(r) * ux, math.sinh(r) * uy)

    points = [at(1.0, 1, 0), at(1.0, -1, 0), at(1.0, 0, 1), at(1.0, 0, -1), at(2.0, 1, 0)]
    cfg = unit_configuration(hyp2, points)
    with pytest.raises(ConvergenceError) as info:
        center_of_mass(hyp2, cfg, 1e-8, max_iters)
    partial = info.value.result
    assert partial.diameter_trace[0] == config_diameter(hyp2, cfg) == 3.0
    assert len(partial.diameter_trace) == partial.iterations + 1
    assert (partial.center, partial.converged) == (points[0], False)


# -- closed-form centers against exact arithmetic ------------------------------------
#
# A flat configuration's center is its mass-weighted mean.  The oracles below
# compute that mean exactly, in Fractions of the float inputs, and measure how
# far the library's closed form and the plain recursion (the memo-free
# reference without the closed form) each land from it.

TREE = MEMO_SPACES["tree"]
# segment ends: a plain leaf, and two marked leaves that may be overshot
ENDS = {"C": ("B-C", 3.0), "D": ("B-D", 1.5), "E": ("A-E", 1.0)}


def exact_mean(config):
    """Per coordinate, the exact weighted mean of a euclidean configuration."""
    total = sum(Fraction(item.mass) for item in config.items)
    return [
        sum(Fraction(item.mass) * Fraction(item.point[j]) for item in config.items)
        / total
        for j in range(len(config.items[0].point))
    ]


def exact_tree_distance(tree, p, q):
    """The tree metric in Fractions: the shortest of the four endpoint routes."""
    ep, eq = tree.edge(p.edge), tree.edge(q.edge)
    P, Q = Fraction(p.offset), Fraction(q.offset)
    if ep.index == eq.index:
        return abs(P - Q)
    return min(
        abs(P - Fraction(a_off))
        + sum(Fraction(tree.edges[ei].length) for ei in tree.vertex_path(a, b))
        + abs(Q - Fraction(b_off))
        for a, a_off in ((ep.u, 0.0), (ep.v, ep.length))
        for b, b_off in ((eq.u, 0.0), (eq.v, eq.length))
    )


def exact_segment_error(tree, config, c):
    """Exact distance from c to the weighted mean of points on one geodesic.

    With (a, b) the exact diameter pair, the mean sits at position s along
    [a, b]; c projects onto [a, b] at position t, at height h above it, so
    its distance to the mean is h + |t - s|.
    """
    d = lambda p, q: exact_tree_distance(tree, p, q)  # noqa: E731
    points = config.points
    a, b = max(((p, q) for p in points for q in points), key=lambda pq: d(*pq))
    ab = d(a, b)
    total = sum(Fraction(item.mass) for item in config.items)
    s = sum(Fraction(item.mass) * d(a, item.point) for item in config.items) / total
    ac, bc = d(a, c), d(b, c)
    t, h = (ac + ab - bc) / 2, (ac + bc - ab) / 2
    return h + abs(t - s)


@st.composite
def euclid_cases(draw):
    space = Space.euclidean(draw(st.sampled_from([2, 3])))
    n = draw(st.integers(3, 5))
    rng = np.random.default_rng(draw(SEEDS))
    points = []
    for i in range(n):
        copy = draw(st.integers(0, i))  # i draws a fresh point, below i repeats one
        points.append(points[copy] if copy < i else sp.draw_point(space, rng, 2.0))
    masses = draw(st.lists(MASSES, min_size=n, max_size=n))
    return space, Configuration.of(space, list(zip(points, masses)))


@st.composite
def segment_cases(draw):
    """Weighted points on the geodesic between two leaves of the conftest
    tree, which runs through branch vertex B and may overshoot a marked
    leaf; some points are the path's vertices in canonical form, which puts
    B on edge A-B, off the path between C and D."""
    tree = TREE.tree
    first, last = draw(st.permutations(sorted(ENDS)))[:2]
    ends = []
    for leaf in (first, last):
        edge, offset = ENDS[leaf]
        past = draw(st.sampled_from([0.0, 0.5, 1.0])) if leaf in TREE_LEAVES else 0.0
        ends.append(TreePoint(edge, offset + past))
    p, q = ends
    d = tree.distance(p, q)
    vertices = ["B"] if {first, last} == {"C", "D"} else ["A", "B"]
    n = draw(st.integers(3, 5))
    points = []
    for _ in range(n):
        kind = draw(st.sampled_from(["walk", "walk", "end", "vertex"]))
        if kind == "walk":
            points.append(tree.walk(p, q, draw(st.floats(0.0, 1.0)) * d))
        elif kind == "end":
            points.append(draw(st.sampled_from(ends)))
        else:
            points.append(tree.vertex_point(draw(st.sampled_from(vertices))))
    masses = draw(st.lists(MASSES, min_size=n, max_size=n))
    return Configuration.of(TREE, list(zip(points, masses)))


def _closed_and_recursive(space, config):
    closed = center_of_mass(space, config, 1e-8, 200)
    d0 = closed.diameter_trace[0]
    assert (closed.iterations, closed.diameter_trace) == (1, [d0, 0.0])
    recursive = reference_center(space, config, 1e-8, 200, flat=False)
    return closed.center, recursive.center


@settings(max_examples=150, deadline=None)
@given(case=euclid_cases())
def test_euclidean_closed_form_is_the_rounded_exact_mean(case):
    """Each coordinate is the exact mean rounded once, so it is no farther
    from the mean than the recursion's, also with masses of 1e-17 and 1e3
    and with duplicate points."""
    space, config = case
    assume(config_diameter(space, config) >= 1e-8)
    closed, recursive = _closed_and_recursive(space, config)
    for c, r, m in zip(closed, recursive, exact_mean(config)):
        assert abs(Fraction(c) - m) <= Fraction(math.ulp(c)) / 2
        assert abs(Fraction(c) - m) <= abs(Fraction(r) - m)


@settings(max_examples=150, deadline=None)
@given(config=segment_cases())
def test_tree_segment_closed_form_is_the_rounded_exact_mean(config):
    """On a tree segment the center's offset is the exact mean's, rounded
    once, so the center is no farther from the mean than the recursion's."""
    assume(config_diameter(TREE, config) >= 1e-8)
    closed, recursive = _closed_and_recursive(TREE, config)
    err = exact_segment_error(TREE.tree, config, closed)
    assert err <= Fraction(math.ulp(closed.offset)) / 2
    assert err <= exact_segment_error(TREE.tree, config, recursive)


def test_a_vertex_canonicalized_off_the_path_is_on_it(tree_space):
    """B's canonical form sits on edge A-B, which the path from D to C
    does not enter; B still lies on that path."""
    b = tree_space.tree.vertex_point("B")
    assert b == TreePoint("A-B", 2.0)
    cfg = Configuration.of(
        tree_space,
        [(TreePoint("B-D", 0.5), 1.0), (b, 2.0), (TreePoint("B-C", 2.0), 1.0)],
    )
    res = center_of_mass(tree_space, cfg)
    assert (res.iterations, res.diameter_trace) == (1, [2.5, 0.0])
    assert res.center == TreePoint("B-C", 0.375)


def test_a_point_just_off_the_path_takes_the_recursion(tree_space):
    """1e-11 off the path from D to C, short of B on edge A-B, is off it:
    no tolerance decides membership."""
    cfg = Configuration.of(
        tree_space,
        [
            (TreePoint("B-D", 0.5), 1.0),
            (TreePoint("A-B", 2.0 - 1e-11), 2.0),
            (TreePoint("B-C", 2.0), 1.0),
        ],
    )
    d0 = config_diameter(tree_space, cfg)
    assert _flat_center(tree_space, _pairs(cfg), _table(tree_space, cfg), d0) is None
    res = center_of_mass(tree_space, cfg)
    assert res.converged and res.diameter_trace[-1] != 0.0
    assert repr(res) == repr(reference_center(tree_space, cfg, 1e-8, 200))


def test_a_point_past_a_marked_leaf(tree_space):
    cfg = Configuration.of(
        tree_space,
        [
            (TreePoint("B-D", 1.5), 1.0),
            (TreePoint("B-C", 4.0), 1.0),
            (TreePoint("B-C", 5.5), 2.0),
        ],
    )
    res = center_of_mass(tree_space, cfg)
    assert (res.iterations, res.diameter_trace) == (1, [7.0, 0.0])
    assert res.center == TreePoint("B-C", 3.375)


@pytest.mark.parametrize("space", ["euclid2", "tree"])
def test_flat_configurations_keep_max_iters_0(space):
    """max_iters=0 allows no step, closed-form or not: the same
    non-convergence as before, with trace [d0]."""
    space = MEMO_SPACES[space]
    rng = np.random.default_rng(5)
    if space.kind == "tree":
        cfg = unit_configuration(space, [TreePoint("B-C", 0.5 * k) for k in (1, 2, 3)])
    else:
        cfg = random_config(space, rng, 3)
    with pytest.raises(ConvergenceError) as info:
        center_of_mass(space, cfg, 1e-8, max_iters=0)
    partial = info.value.result
    d0 = config_diameter(space, cfg)
    assert (partial.center, partial.iterations, partial.diameter_trace) == (
        cfg.items[0].point, 0, [d0]
    )
    assert not partial.converged


def test_a_diameter_below_tol_returns_the_first_point(euclid2, tree_space):
    """Below tol no step is taken, closed-form or not."""
    for space, points in (
        (euclid2, [(0.0, 0.0), (1e-9, 0.0), (0.0, 1e-9)]),
        (tree_space, [TreePoint("B-C", 1.0 + k * 1e-9) for k in (0, 1, 2)]),
    ):
        cfg = unit_configuration(space, points)
        res = center_of_mass(space, cfg, 1e-8)
        assert (res.center, res.iterations) == (cfg.items[0].point, 0)
        assert res.diameter_trace == [config_diameter(space, cfg)]


# -- the near-flat hyperbolic tail ---------------------------------------------------
#
# Below diameter tol**(1/3) a hyperbolic configuration closes in one step: the
# sheet projection of its mass-weighted ambient mean.  The oracle runs the
# construction itself in 40 digits down to diameter 1e-30.


def _at(*y):
    """The sheet point over spatial coordinates y."""
    return (math.hypot(1.0, *y),) + y


# diameter 6.4e-4, between tol 1e-8 and tol**(1/3) = 2.2e-3
NEAR_FLAT = [(_at(0.75, -0.5), 1.0), (_at(0.7506, -0.4998), 2.0), (_at(0.7499, -0.4993), 3.0)]


def near_config(space, rng, n, radius, spread):
    """n points within spread/2 of a point at distance `radius` from the
    basepoint, so of diameter at most `spread`, with masses in [0.5, 2]."""
    base = sp._random_shift(space, sp.basepoint(space), radius, rng, "step", radius)
    return Configuration.of(
        space,
        [
            (
                sp._random_shift(space, base, spread / 2, rng, "step", spread / 2),
                float(rng.uniform(0.5, 2.0)),
            )
            for _ in range(n)
        ],
    )


def _masses(config):
    return [item.mass for item in config.items]


def test_the_oracle_is_the_limit_of_the_recursion(hyp2):
    cfg = random_config(hyp2, np.random.default_rng(1), 4)
    limit = oracle.center(cfg.points, _masses(cfg))
    plain = reference_center(hyp2, cfg, 1e-13, 200, flat=False).center
    assert oracle.distance(plain, limit) <= 1e-12


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("spread", [1e-3, 1e-2, 0.1, 0.5])
def test_the_tail_is_within_d0_cubed_of_the_limit(dim, n, spread):
    """The projected step misses the construction's limit by about
    0.015 d0^3 at most, which is what lets it stand in below tol**(1/3)."""
    space = Space.hyperbolic(dim)
    rng = np.random.default_rng(10 * dim + n)
    for _ in range(3):
        cfg = near_config(space, rng, n, 2.0, spread)
        d0 = config_diameter(space, cfg)
        limit = oracle.center(cfg.points, _masses(cfg))
        got = _sheet_mean(_pairs(cfg), _table(space, cfg), d0)
        assert oracle.distance(got, limit) <= d0**3


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("eps", [0.3, 0.1, 0.03, 0.01])
def test_small_configurations_reduce_to_zero_curvature(dim, n, eps):
    """At scale eps the H^n center's spatial part is the euclidean weighted
    mean of the spatial parts to O(eps^3), the curvature correction (worst
    ratio about 0.2 in H^2 and 0.28 in H^3, flat in eps); a weight or sign
    slip would leave an O(eps) error."""
    space = Space.hyperbolic(dim)
    rng = np.random.default_rng(100 * dim + n)
    for _ in range(20):
        ys = [tuple(float(v) for v in rng.uniform(-eps, eps, dim)) for _ in range(n)]
        masses = [float(rng.uniform(0.5, 2.0)) for _ in range(n)]
        cfg = Configuration.of(space, [(_at(*y), m) for y, m in zip(ys, masses)])
        mean = euclid_weighted_mean(Configuration.of(Space.euclidean(dim), list(zip(ys, masses))))
        assert math.dist(center_of_mass(space, cfg).center[1:], mean) <= eps**3


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n", [3, 4])
def test_center_of_mass_is_within_tol_of_the_limit(dim, n):
    space = Space.hyperbolic(dim)
    rng = np.random.default_rng(10 * dim + n)
    for _ in range(5):
        cfg = random_config(space, rng, n)
        limit = oracle.center(cfg.points, _masses(cfg))
        assert oracle.distance(center_of_mass(space, cfg, 1e-8).center, limit) <= 1e-8


@pytest.mark.parametrize("dim", [2, 3])
def test_the_projection_keeps_its_digits_far_out(dim):
    """At distance 8 from the basepoint x0^2 is near 1e6, so a normalizer
    read from v0^2 - |v_s|^2 loses about 6 of its digits (errors near
    4e-10); read from the pairs it stays near 1e-13."""
    space = Space.hyperbolic(dim)
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(30):
        cfg = near_config(space, rng, 4, 8.0, 1e-3)
        got = _sheet_mean(_pairs(cfg), _table(space, cfg), config_diameter(space, cfg))
        exact = oracle.projected_mean(cfg.points, _masses(cfg))
        worst = max(worst, oracle.distance(got, exact))
    assert worst <= 1e-12


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_the_three_point_close_is_the_sheet_mean(dim):
    """A near-flat triple closes through `_sheet_mean`, the one near-flat
    close of every item count: its center is `_sheet_mean`'s on the same
    items, table and diameter, by repr.  Masses are log-uniform in
    [1e-300, 1e300], and in every fourth case two of them sum past the largest
    double, so `center_of_mass` closes the masses `_finite_masses` scales."""
    space = Space.hyperbolic(dim)
    rng = np.random.default_rng(35 + dim)
    for k in range(40):
        spread = float(10.0 ** rng.uniform(-6.0, math.log10(2e-3)))
        points = near_config(space, rng, 3, float(rng.uniform(0.0, 3.0)), spread).points
        masses = [float(m) for m in 10.0 ** rng.uniform(-300.0, 300.0, 3)]
        if k % 4 == 0:
            masses[k % 3] = masses[(k + 1) % 3] = 1.5e308
        cfg = Configuration.of(space, list(zip(points, masses)))
        res = center_of_mass(space, cfg)
        d = res.diameter_trace[0]
        assert DEFAULT_TOL <= d < DEFAULT_TOL ** (1 / 3)
        assert (res.iterations, res.diameter_trace[1:]) == (1, [0.0])
        scaled, shift = _finite_masses(masses)
        assert shift == (64 if k % 4 == 0 else 0)
        expected = _sheet_mean(list(zip(points, scaled)), _table(space, cfg), d)
        assert repr(res.center) == repr(expected)


def test_the_tail_center_is_pinned_to_the_bit(hyp2):
    """Every sum in the tail is an fsum, correctly rounded, so its bits do
    not depend on the Python version (3.12's sum() compensates) or the
    platform."""
    res = center_of_mass(hyp2, Configuration.of(hyp2, NEAR_FLAT))
    assert (res.iterations, res.diameter_trace[1:]) == (1, [0.0])
    assert [c.hex() for c in res.center] == [
        "0x1.58a1e09e50741p+0",
        "0x1.8013a7a7c04b3p-1",
        "-0x1.ff92c3f674984p-2",
    ]


def test_the_tail_keeps_max_iters_and_tol(hyp2):
    """The tail is one step: max_iters=1 allows it, max_iters=0 still
    allows no step (trace [d0]), and below tol no step is taken."""
    cfg = Configuration.of(hyp2, NEAR_FLAT)
    d0 = config_diameter(hyp2, cfg)
    assert 1e-8 <= d0 < 1e-8 ** (1 / 3)
    res = center_of_mass(hyp2, cfg, 1e-8, max_iters=1)
    assert (res.iterations, res.diameter_trace, res.converged) == (1, [d0, 0.0], True)
    with pytest.raises(ConvergenceError) as info:
        center_of_mass(hyp2, cfg, 1e-8, max_iters=0)
    partial = info.value.result
    assert (partial.center, partial.iterations, partial.diameter_trace, partial.converged) == (
        cfg.items[0].point, 0, [d0], False
    )
    tiny = near_config(hyp2, np.random.default_rng(2), 3, 2.0, 1e-9)
    res = center_of_mass(hyp2, tiny, 1e-8)
    assert (res.center, res.iterations) == (tiny.items[0].point, 0)
    assert res.diameter_trace == [config_diameter(hyp2, tiny)]


def test_the_tail_does_not_depend_on_item_order(hyp3):
    cfg = near_config(hyp3, np.random.default_rng(6), 5, 2.0, 1e-3)
    base = center_of_mass(hyp3, cfg)
    assert base.iterations == 1
    for order in permutations(range(5)):
        assert repr(center_of_mass(hyp3, permuted(cfg, order))) == repr(base)


def test_the_tail_weighs_masses_near_the_largest_double(hyp2):
    """Weights m_i / M keep every product finite: the light point leaves
    the center at the heavy pair's midpoint."""
    cfg = Configuration.of(hyp2, [(p, m) for (p, _), m in zip(NEAR_FLAT, [1e308, 1e308, 1.0])])
    res = center_of_mass(hyp2, cfg)
    assert res.iterations == 1
    assert sp.canonical_point(hyp2, res.center) == res.center
    assert sp.distance(hyp2, res.center, two_point_center(hyp2, *cfg.items[:2])) <= 1e-15


def test_near_flat_configurations_are_not_capped(hyp2):
    """The cap bounds the recursion's cost, which a near-flat configuration
    skips, as a flat one does."""
    rng = np.random.default_rng(9)
    cfg = near_config(hyp2, rng, 8, 2.0, 1e-3)
    res = center_of_mass(hyp2, cfg)
    assert (res.iterations, res.diameter_trace[1:], res.converged) == (1, [0.0], True)
    with pytest.raises(GeometryError, match="8 points exceeds the recursion cap 7"):
        center_of_mass(hyp2, random_config(hyp2, rng, 8))


# -- hull sampling -------------------------------------------------------------------


def test_hull_sample_deterministic(any_space):
    rng = np.random.default_rng(55)
    cfg = random_config(any_space, rng, 4)
    assert hull_sample(any_space, cfg, 3, seed=9) == hull_sample(
        any_space, cfg, 3, seed=9
    )


def test_hull_sample_counts_and_segment(euclid2):
    cfg = unit_configuration(euclid2, [(0.0, 0.0), (1.0, 0.0)])
    samples = hull_sample(euclid2, cfg, 1, seed=0)
    assert len(samples) == 4
    for x, y in samples:
        assert 0.0 <= x <= 1.0 and y == 0.0


def test_hull_sample_within_diameter(any_space):
    """Sampled hull points never exceed the generator diameter."""
    rng = np.random.default_rng(66)
    cfg = random_config(any_space, rng, 4)
    diam = config_diameter(any_space, cfg)
    samples = hull_sample(any_space, cfg, 4, seed=5)
    for i in range(len(samples)):
        for j in range(i + 1, len(samples)):
            assert sp.distance(any_space, samples[i], samples[j]) <= diam + 1e-9


# -- the center is Lipschitz in its points -----------------------------------

LIPSCHITZ_SLACK = 4 * DEFAULT_TOL  # absolute: the stopping rule leaves a few tol


@pytest.mark.parametrize("name", sorted(MEMO_SPACES))
@settings(max_examples=40, deadline=None)
@given(
    seed=SEEDS, n=st.integers(min_value=2, max_value=6), shift_all=st.booleans(),
    twin=st.booleans(),
)
def test_the_center_is_lipschitz_in_its_points(name, seed, n, shift_all, twin):
    # for fixed masses, d(c(x), c(y)) <= sum (m_i / M) d(x_i, y_i): equality
    # holds in flat space and along tree geodesics, strict curvature shrinks
    # it; a twin is a second point 1e-9 from the first
    space = MEMO_SPACES[name]
    rng = sp.sub_rng(seed)
    points = [sp.draw_point(space, rng, 2.0) for _ in range(n)]
    if twin:
        points[1] = sp._random_shift(space, points[0], 1e-9, rng, "step", 1e-9)
    masses = [rng.uniform(0.5, 2.0) for _ in range(n)]
    moved = list(points)
    for k in (range(n) if shift_all else [int(rng.integers(n))]):
        step = float(rng.uniform(0.0, 1.0))
        moved[k] = sp._random_shift(space, points[k], step, rng, "step", step)
    before, after = (
        center_of_mass(space, Configuration.of(space, zip(p, masses)), max_points=n).center
        for p in (points, moved)
    )
    total = math.fsum(masses)
    bound = sum(m / total * sp.distance(space, p, q) for m, p, q in zip(masses, points, moved))
    assert sp.distance(space, before, after) <= bound + LIPSCHITZ_SLACK


# -- the center is Lipschitz in its masses -----------------------------------


@pytest.mark.parametrize("name", sorted(MEMO_SPACES))
@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, n=st.integers(min_value=2, max_value=6), twin=st.booleans())
def test_the_center_is_lipschitz_in_its_masses(name, seed, n, twin):
    """Changing m_k by delta moves the center by at most
    D |delta| (M - m_k) / (M (M + delta)), for the diameter D, the total
    mass M and the change delta that m_k carries after rounding: the total
    variation of the normalized masses times D.  For n = 2 it holds with
    equality, as the two-point rule moves by exactly that.  For n >= 3 it
    is a conjecture, checked here numerically only; whether Navas (2013)
    proves it has not been checked.  Masses are log-uniform in [0.1, 10],
    delta within 0.9 m_k, n at most 5 in H^n; a twin is a second point
    1e-9 from the first."""
    space = MEMO_SPACES[name]
    if space.kind == "hyperbolic":
        n = min(n, 5)
    rng = sp.sub_rng(seed)
    points = [sp.draw_point(space, rng, 2.0) for _ in range(n)]
    if twin:
        points[1] = sp._random_shift(space, points[0], 1e-9, rng, "step", 1e-9)
    masses = [10.0 ** float(rng.uniform(-1.0, 1.0)) for _ in range(n)]
    k = int(rng.integers(n))
    changed = list(masses)
    changed[k] += 0.9 * masses[k] * float(rng.uniform(-1.0, 1.0))
    delta = changed[k] - masses[k]
    config = Configuration.of(space, zip(points, masses))
    before, after = (
        center_of_mass(space, Configuration.of(space, zip(points, m)), max_points=n).center
        for m in (masses, changed)
    )
    total = config.total_mass
    diameter = config_diameter(space, config)
    bound = diameter * abs(delta) * (total - masses[k]) / (total * (total + delta))
    assert sp.distance(space, before, after) <= bound + LIPSCHITZ_SLACK


def test_the_center_is_not_w1_lipschitz_in_its_masses(tree_space):
    """No proof of the mass bound can pass through W1.  Changing m_k by
    delta moves the normalized measure by W1 = |delta| / (M + delta) *
    sum_j (m_j / M) d(x_k, x_j), which is at most the D * TV bound of
    test_the_center_is_lipschitz_in_its_masses.  On the conftest tree a
    hill-climb (ROADMAP direction 12) found four points and masses whose
    center moves 1.19375 times W1, so the center map is not 1-Lipschitz
    in W1, while it stays at 0.036 of the D * TV bound.  The center is
    the same at tol 1e-8, 1e-12 and 1e-14; its three-point
    sub-configurations are spread over the branches at B."""
    points = [
        TreePoint("A-E", 1.8560417930421045),
        TreePoint("B-C", 0.2549561534806549),
        TreePoint("B-D", 1.5),
        TreePoint("B-C", 0.2526089801684051),
    ]
    masses = [0.14592179288861504, 0.07425423850841659, 0.4065785893043006, 7.582200492669917]
    k, changed = 1, list(masses)
    changed[k] += 0.08228683899994364
    delta = changed[k] - masses[k]
    before, after = (
        center_of_mass(tree_space, Configuration.of(tree_space, zip(points, m))).center
        for m in (masses, changed)
    )
    moved = sp.distance(tree_space, before, after)
    total = math.fsum(masses)
    w1 = abs(delta) / (total + delta) * math.fsum(
        m / total * sp.distance(tree_space, points[k], p) for m, p in zip(masses, points)
    )
    diameter = sp.diameter(tree_space, points)
    bound = diameter * abs(delta) * (total - masses[k]) / (total * (total + delta))
    assert moved / w1 > 1.19
    assert moved <= bound


# -- splitting an atom --------------------------------------------------------
# {x: 1, x: 1, y: 1, z: 1} and {x: 2, y: 1, z: 1} are one measure.  Where the
# center has a closed form, on a line, they share it; in H^2 off one
# geodesic the recursion reads the labelled list, not the measure.


def _split_and_merged(space, x, y, z):
    split = Configuration.of(space, [(x, 1.0), (x, 1.0), (y, 1.0), (z, 1.0)])
    merged = Configuration.of(space, [(x, 2.0), (y, 1.0), (z, 1.0)])
    return (center_of_mass(space, config).center for config in (split, merged))


def test_splitting_an_atom_keeps_the_euclidean_center_bit_for_bit(euclid2):
    x, y, z = (0.1, -2.3), (1.7, 0.4), (-0.6, 3.9)
    split, merged = _split_and_merged(euclid2, x, y, z)
    exact = tuple(float((2 * Fraction(a) + Fraction(b) + Fraction(c)) / 4) for a, b, c in zip(x, y, z))
    assert split == merged == exact


def test_splitting_an_atom_keeps_the_center_on_one_tree_geodesic(tree_space):
    x, y, z = TreePoint("A-E", 0.5), TreePoint("A-B", 1.25), TreePoint("B-C", 2.0)
    split, merged = _split_and_merged(tree_space, x, y, z)
    assert sp.distance(tree_space, split, merged) <= DEFAULT_TOL


def test_splitting_an_atom_keeps_the_center_on_one_h2_geodesic(hyp2):
    x, y, z = ((math.cosh(a), math.sinh(a), 0.0) for a in (-1.0, 0.5, 2.0))
    split, merged = _split_and_merged(hyp2, x, y, z)
    assert sp.distance(hyp2, split, merged) <= DEFAULT_TOL


def test_splitting_an_atom_moves_an_h2_center(hyp2):
    """The center is a function of the labelled list, not of the measure
    (ROADMAP direction 21): three points drawn at scale 2 (diameter 3.65),
    with x split in two, move the center by 5.6e-3."""
    x = (2.188642957468308, 0.4498446100635814, 1.8941483104742265)
    y = (3.6257387500460383, 3.4837378490191386, -0.09773475787515025)
    z = (3.4722332785743135, -1.9805873659772355, -2.6708945367742025)
    split, merged = _split_and_merged(hyp2, x, y, z)
    assert sp.distance(hyp2, split, merged) > 1e-4


# -- refusals that no other test reaches ---------------------------------------


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda space, cfg: leave_one_out_step(space, cfg),
         "leave-one-out step needs at least 3 points, got 2"),
        (lambda space, cfg: hull_sample(space, cfg, 0, 1), "depth must be >= 1, got 0"),
        (lambda space, cfg: hull_sample(space, Configuration(cfg.items[:1]), 2, 1),
         "hull sampling needs at least 2 generators"),
    ],
    ids=["leave-one-out", "hull-depth", "hull-generators"],
)
def test_too_small_inputs_are_refused(call, message, euclid2):
    cfg = unit_configuration(euclid2, [(0.0, 0.0), (1.0, 0.0)])
    with pytest.raises(GeometryError) as exc:
        call(euclid2, cfg)
    assert str(exc.value) == message


# -- far out -----------------------------------------------------------------------


def _on_the_x_axis(*s):
    """Unit-mass H^2 points at arclengths s along the x1 axis."""
    return [((math.cosh(a), math.sinh(a), 0.0), 1.0) for a in s]


# three points 15.9 to 20.5 out on one geodesic, whose pair quadrances cancel
# below 0 once the recursion brings them within tol**(1/3) of each other
CANCELLING = (17.813755066950186, 20.532592832171645, 15.896214210190928)


def test_a_near_flat_close_whose_quadrances_cancel_is_named(hyp2):
    """Far out, a pair-table quadrance <x-y, x-y> of near points cancels
    and can come out negative, and with it 1 + sum w_i w_j q_ij, which the
    near-flat close takes the square root of: an error that names the
    cancellation, not math.sqrt's, in a triple's close and in
    `_sheet_mean` called directly."""
    cfg = Configuration.of(hyp2, _on_the_x_axis(*CANCELLING))
    with pytest.raises(GeometryError, match=r"pair quadrances cancel, 1 \+ sum w_i w_j q_ij = -"):
        center_of_mass(hyp2, cfg)
    items = [(p, 1.0) for p in cfg.points] + [(cfg.points[0], 1.0)]
    with pytest.raises(GeometryError, match=r"at diameter 0\.001: its pair quadrances cancel"):
        _sheet_mean(items, [-10.0] * 6, 1e-3)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize(
    "c",
    [0.0, 2.0, 4.0, 8.0]
    + [
        pytest.param(
            c,
            marks=pytest.mark.xfail(
                strict=True,
                raises=AssertionError,
                reason="far-field defect: pair quadrances and geodesic points far out "
                "lose digits like x0^2, so the center misses the exact one by more than tol",
            ),
        )
        for c in (12.0, 16.0)
    ],
)
def test_points_on_one_geodesic_center_at_their_mean_arclength(dim, c):
    """Three points on one geodesic at arclengths c - 2, c and c + 2 from
    the basepoint: the construction stays on the geodesic, where it is the
    flat one, so the exact center is the point at arclength sum m_i s_i / M.
    The center is within tol of it out to c = 8 (5.1e-10 at most), and
    misses by 4.5e-8 to 1.7e-6 at c = 12 and by 1.1e-3 to 2.6e-3 at 16."""
    space = Space.hyperbolic(dim)
    u = (0.6, 0.8) if dim == 2 else (2.0 / 3.0, 1.0 / 3.0, 2.0 / 3.0)
    arclengths = (c - 2.0, c, c + 2.0)
    points = [sp._lift([math.sinh(s) * a for a in u], "s", s) for s in arclengths]
    for masses in ((1.0, 1.0, 1.0), (1.0, 2.0, 3.0)):
        got = center_of_mass(space, Configuration.of(space, list(zip(points, masses))), 1e-8)
        with localcontext() as ctx:
            ctx.prec = oracle.DIGITS
            weighted = sum(Decimal(m) * Decimal(s) for m, s in zip(masses, arclengths))
            mean = weighted / sum(map(Decimal, masses))
            norm = sum(Decimal(a) ** 2 for a in u).sqrt()
            exact = (0.0, *(oracle._sinh(mean) * Decimal(a) / norm for a in u))
        assert oracle.distance(got.center, exact) <= 1e-8


def _far_geodesic_configurations(count):
    """count seeded (space, items) on one geodesic of H^2 or H^3 through
    the basepoint: n = 3 to 5 points at arclengths in [0, 25], with unit
    masses in half the draws and masses in [0.5, 2] in the others."""
    rng = np.random.default_rng(16)
    for k in range(count):
        space = Space.hyperbolic(2 + k % 2)
        u = rng.normal(size=space.dim)
        u = [float(a) for a in u / np.linalg.norm(u)]
        n = int(rng.integers(3, 6))
        masses = [1.0] * n if k % 4 < 2 else [float(m) for m in rng.uniform(0.5, 2.0, n)]
        points = [sp._lift([math.sinh(s) * a for a in u], "s", s) for s in rng.uniform(0.0, 25.0, n)]
        yield space, list(zip(points, masses))


def test_far_configurations_on_one_geodesic_raise_no_bare_error():
    """Valid input at any scale gets a center, a GeometryError or a
    ConvergenceError: over 800 far configurations on one geodesic, where
    pair quadrances cancel (the far-field defect), no other exception
    escapes center_of_mass."""
    outcomes = Counter()
    for space, items in _far_geodesic_configurations(800):
        try:
            center_of_mass(space, Configuration.of(space, items))
            outcomes["center"] += 1
        except (GeometryError, ConvergenceError) as exc:
            outcomes[type(exc).__name__] += 1
    assert outcomes["center"] > 600 and outcomes["GeometryError"] and outcomes["ConvergenceError"]


def test_the_cli_keeps_its_exit_codes_on_far_configurations(tmp_path):
    """`horocenter barycenter` on every fourth of the same configurations
    exits 0, 1 or 2, with an error line and no traceback, and a 0 writes
    strict JSON."""

    def strict(token):
        raise ValueError(f"non-standard JSON token {token}")

    codes = Counter()
    for k, (space, items) in enumerate(_far_geodesic_configurations(800)):
        if k % 4:
            continue
        doc = {"points": [{"coords": list(p), "mass": m} for p, m in items]}
        (tmp_path / "space.json").write_text(json.dumps({"space": "hyperbolic", "dim": space.dim}))
        (tmp_path / "doc.json").write_text(json.dumps(doc))
        argv = ["barycenter", "--space-json", str(tmp_path / "space.json")]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--input", str(tmp_path / "doc.json")])
        assert code in (0, 1, 2) and "Traceback" not in err.getvalue(), err.getvalue()
        if code == 0:
            json.loads(out.getvalue(), parse_constant=strict)
        else:
            assert err.getvalue().startswith(("error: ", "barycenter: ")), err.getvalue()
        codes[code] += 1
    assert set(codes) == {0, 1, 2}, codes


def _mean_arclength(arclengths, masses) -> Fraction:
    return sum(map(Fraction.__mul__, map(Fraction, masses), arclengths)) / sum(map(Fraction, masses))


@pytest.mark.parametrize("c", [0.0, 2.0, 4.0, 8.0, 12.0, 16.0])
def test_points_on_a_line_center_at_their_mean_arclength(c):
    """The flat half of the one-geodesic check: the arclengths and masses
    of test_points_on_one_geodesic_center_at_their_mean_arclength on a
    line in E^1, where the mean is summed exactly and rounded once, so the
    center is the double nearest sum m_i s_i / M, and on the line through
    0 along (0.6, 0.8) in E^2, where rounding the points and the direction
    moves it by less than 2^-51 (c + 2)."""
    arclengths = (c - 2.0, c, c + 2.0)
    u = (0.6, 0.8)
    for masses in ((1.0, 1.0, 1.0), (1.0, 2.0, 3.0)):
        mean = _mean_arclength(arclengths, masses)
        line = Configuration.of(Space.euclidean(1), [((s,), m) for s, m in zip(arclengths, masses)])
        assert center_of_mass(Space.euclidean(1), line).center == (float(mean),)
        plane = Configuration.of(
            Space.euclidean(2), [((s * u[0], s * u[1]), m) for s, m in zip(arclengths, masses)]
        )
        got = center_of_mass(Space.euclidean(2), plane).center
        assert math.dist(got, [float(mean * Fraction(a)) for a in u]) <= 2.0**-51 * (c + 2.0)


def _on_the_e_to_c_path(tree, s: float) -> TreePoint:
    """The conftest tree's geodesic through E, A, B and C as arclength from
    the branch vertex B: A-E (marked end E) below s = -2, past E below
    s = -3, A-B on [-2, 0], B-C above, past C (a marked end) above s = 3."""
    if s < -2.0:
        return tree.canonical(TreePoint("A-E", -2.0 - s))
    if s < 0.0:
        return tree.canonical(TreePoint("A-B", 2.0 + s))
    return tree.canonical(TreePoint("B-C", s))


def _arclength_on_the_e_to_c_path(p: TreePoint) -> float:
    return {"A-E": -2.0 - p.offset, "A-B": p.offset - 2.0, "B-C": p.offset}[p.edge]


@pytest.mark.parametrize("c", [-4.0, 0.0, 2.0, 4.0, 8.0, 16.0])
def test_points_on_a_tree_path_center_at_their_mean_arclength(tree_space, monkeypatch, c):
    """The tree half: the same arclengths, shifted, on a path through the
    branch vertex B that runs past the marked ends E (c = -4) and C
    (c >= 2).  `_segment_center` takes every case, and its mean, exact
    until the offset is rounded once, is within 2^-50 (|c| + 4) of
    sum m_i s_i / M."""
    import horocenter.barycenter as bc

    segment = bc._segment_center
    centers = []

    def spied(*args):
        centers.append(segment(*args))
        return centers[-1]

    monkeypatch.setattr(bc, "_segment_center", spied)
    tree, arclengths = tree_space.tree, (c - 2.0, c, c + 2.0)
    for masses in ((1.0, 1.0, 1.0), (1.0, 2.0, 3.0)):
        points = [_on_the_e_to_c_path(tree, s) for s in arclengths]
        got = center_of_mass(tree_space, Configuration.of(tree_space, list(zip(points, masses))))
        assert centers.pop() == got.center and got.iterations == 1
        error = _arclength_on_the_e_to_c_path(got.center) - _mean_arclength(arclengths, masses)
        assert abs(error) <= 2.0**-50 * (abs(c) + 4.0)


def _with_axes(p, k, j, flip):
    """p with spatial axes k and j swapped, or, if flip, axis k negated."""
    q = list(p)
    if flip:
        q[k] = -q[k]
    else:
        q[k], q[j] = q[j], q[k]
    return tuple(q)


@pytest.mark.parametrize("dim", [2, 3])
def test_the_center_follows_flips_and_swaps_of_spatial_axes(dim):
    """Negating a spatial axis is exact in floats, and every kernel reads
    its signs only through squares, products with the same sign and
    hypot, so the center's coordinate flips bit for bit, with the same
    iterations and trace.  Swapping two axes reorders sums and hypot's
    arguments: the center moves by at most 8 ulps of its x0 (2 in 2,000
    configurations of 3 to 5 points within distance 2)."""
    space = Space.hyperbolic(dim)
    for case in range(30):
        rng = sp.sub_rng(5, 100 * dim + case)
        n = 3 + case % 3
        points = [sp.draw_point(space, rng, 2.0) for _ in range(n)]
        masses = [0.5 + 1.5 * float(rng.random()) for _ in range(n)]
        base = center_of_mass(space, Configuration.of(space, list(zip(points, masses))))
        for k in range(1, dim + 1):
            moved = [_with_axes(p, k, 0, True) for p in points]
            got = center_of_mass(space, Configuration.of(space, list(zip(moved, masses))))
            assert got.center == _with_axes(base.center, k, 0, True)
            assert (got.iterations, got.diameter_trace) == (base.iterations, base.diameter_trace)
        moved = [_with_axes(p, 1, dim, False) for p in points]
        got = center_of_mass(space, Configuration.of(space, list(zip(moved, masses))))
        want = _with_axes(base.center, 1, dim, False)
        assert max(abs(a - b) for a, b in zip(got.center, want)) <= 8 * math.ulp(want[0])


def _boost(p, k, rapidity):
    """p boosted along spatial axis k, lifted from its spatial part."""
    y = list(p[1:])
    y[k - 1] = math.sinh(rapidity) * p[0] + math.cosh(rapidity) * p[k]
    return sp._lift(y, "y", 0.0)


def _rotation(p, k, j, angle):
    """p with spatial axes k and j turned by angle, lifted from its spatial part."""
    y, c, s = list(p[1:]), math.cos(angle), math.sin(angle)
    y[k - 1], y[j - 1] = c * p[k] - s * p[j], s * p[k] + c * p[j]
    return sp._lift(y, "y", 0.0)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("dim", [2, 3])
def test_the_center_commutes_with_boosts_and_rotations(dim, n):
    """The construction takes only geodesics and mass fractions, so an
    isometry moves the center with the points.  For 60 configurations of
    n points within distance 2, unit masses in every other one, a boost
    of rapidity up to 1.5 along one axis and a rotation of two spatial
    axes, each rounded, move the center within 1e-12 of the center of the
    moved points.  The worst of all 360 was 1.0e-15 for a boost and
    4.2e-16 for a rotation.  Far-out boosts meet the far-field
    cancellation (ROADMAP), so they stay out of this bound."""
    space = Space.hyperbolic(dim)

    def center(points, masses):
        return center_of_mass(space, Configuration.of(space, list(zip(points, masses)))).center

    for case in range(60):
        rng = sp.sub_rng(17, 1000 * dim + 100 * n + case)
        points = [sp.draw_point(space, rng, 2.0) for _ in range(n)]
        masses = [1.0] * n if case % 2 else [0.5 + 1.5 * float(rng.random()) for _ in range(n)]
        base = center(points, masses)
        k = 1 + int(rng.integers(dim))
        j = k % dim + 1
        rapidity, angle = 1.5 * float(rng.uniform(-1.0, 1.0)), 2.0 * math.pi * float(rng.random())
        for move in (partial(_boost, k=k, rapidity=rapidity), partial(_rotation, k=k, j=j, angle=angle)):
            got = center([move(p) for p in points], masses)
            assert sp.distance(space, got, move(base)) <= 1e-12


def test_the_three_item_loop_keeps_the_recursion_cap(hyp2):
    cfg = Configuration.of(hyp2, _on_the_x_axis(0.0, 1.0, 2.5))
    with pytest.raises(GeometryError, match="^3 points exceeds the recursion cap 2; "):
        center_of_mass(hyp2, cfg, max_points=2)
    assert center_of_mass(hyp2, cfg, max_points=3).converged


def test_an_overflowing_four_point_settle_names_its_cause(hyp2):
    """Four raw H^2 points at spatial +-1e154, whose quadrances overflow:
    the diameter check before the first step refuses them."""
    spatial = [(1e154, 0.0), (-1e154, 0.0), (0.0, 1e154), (0.0, -1e154)]
    cfg = Configuration(tuple(WeightedPoint((math.hypot(1.0, *y), *y), 1.0) for y in spatial))
    with pytest.raises(GeometryError, match="^configuration overflows: diameter inf$"):
        center_of_mass(hyp2, cfg)
