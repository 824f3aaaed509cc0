import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from horocenter import GeometryError, IdealPoint, basepoint
from horocenter import spaces as sp
from horocenter.barycenter import center_of_mass, leave_one_out_step, unit_configuration
from horocenter.horosphere import (
    ConvexBody,
    classify_body,
    first_horosphere,
    limit_separation,
    project_to_level,
    select,
)
from horocenter.lipschitz import hausdorff
from horocenter.trees import TreeError, TreePoint

import hyperboloid_oracle as oracle
import kernel_reference as loops
from conftest import TREE_EDGES, TREE_LEAVES, ideal_for, random_point

SEEDS = st.integers(min_value=0, max_value=2**31 - 1)


def busemann_by_definition(space, xi, o, x):
    """Independent oracle: b(x) = lim_s d(x, ray(o, xi, s)) - s.

    The tail decays like exp(-2s) in the hyperbolic plane and vanishes
    past the merge point in trees, but only like 1/s in flat space.  The
    horizons balance tail decay against measurement noise: hyperbolic
    distances to a probe at arclength s lose exp(s)*eps of accuracy, so
    s ~ 13 is the double-precision sweet spot there.
    """
    far, tol = {"euclidean": (1e6, 1e-5), "hyperbolic": (13.0, 1e-8)}.get(
        space.kind, (25.0, 1e-12)
    )
    probe = sp.ray_point(space, o, xi, far)
    return sp.distance(space, x, probe) - far, tol


# -- frozen examples ---------------------------------------------------------


def test_distance_examples(euclid2, hyp2, tree_space):
    assert sp.distance(euclid2, (0.0, 0.0), (3.0, 4.0)) == 5.0
    assert sp.distance(
        hyp2, (1.0, 0.0, 0.0), (math.cosh(1.0), math.sinh(1.0), 0.0)
    ) == pytest.approx(1.0, abs=1e-12)
    assert sp.distance(
        tree_space, TreePoint("A-B", 0.5), TreePoint("B-C", 1.0)
    ) == 2.5


def test_geodesic_endpoints_exact(any_space):
    rng = np.random.default_rng(1)
    x = sp.draw_point(any_space, rng, 2.0)
    y = sp.draw_point(any_space, rng, 2.0)
    assert sp.geodesic_point(any_space, x, y, 0.0) == x
    assert sp.geodesic_point(any_space, x, y, 1.0) == y


def test_geodesic_examples(euclid2, hyp2):
    assert sp.geodesic_point(euclid2, (0.0, 0.0), (2.0, 0.0), 0.25) == (0.5, 0.0)
    x = (1.0, 0.0, 0.0)
    y = (math.cosh(2.0), math.sinh(2.0), 0.0)
    mid = sp.geodesic_point(hyp2, x, y, 0.5)
    # verified through the distance oracle: half of 2
    assert sp.distance(hyp2, x, mid) == pytest.approx(1.0, abs=1e-12)
    assert mid == pytest.approx((math.cosh(1.0), math.sinh(1.0), 0.0), abs=1e-12)


def test_geodesic_param_validation(euclid2):
    with pytest.raises(GeometryError):
        sp.geodesic_point(euclid2, (0.0, 0.0), (1.0, 0.0), 1.5)
    with pytest.raises(GeometryError):
        sp.geodesic_point(euclid2, (0.0, 0.0), (1.0, 0.0), -0.1)


def test_busemann_examples(euclid2, hyp2, tree_space):
    u = IdealPoint.direction((1.0, 0.0))
    assert sp.busemann(euclid2, u, (2.0, 3.0)) == -2.0
    xi = IdealPoint.null_vector((1.0, 1.0, 0.0))
    for s in (0.5, 2.0, 7.0):
        x = (math.cosh(s), math.sinh(s), 0.0)
        assert sp.busemann(hyp2, xi, x) == pytest.approx(-s, abs=1e-9)
    end = IdealPoint.end("C")
    oT = basepoint(tree_space)  # vertex A, at tree distance 5 from C
    assert sp.busemann(tree_space, end, oT) == 0.0
    assert sp.busemann(tree_space, end, TreePoint("B-C", 1.0)) == -3.0
    oB = tree_space.tree.vertex_point("B")
    x = TreePoint("B-C", 1.0)
    assert sp.busemann(tree_space, end, x) - sp.busemann(tree_space, end, oB) == -1.0


def test_busemann_matches_definition_limit(any_space):
    xi = ideal_for(any_space)
    o = basepoint(any_space)
    rng = np.random.default_rng(7)
    for _ in range(25):
        x = sp.draw_point(any_space, rng, 2.0)
        closed = sp.busemann(any_space, xi, x)
        expected, tol = busemann_by_definition(any_space, xi, o, x)
        assert closed == pytest.approx(expected, abs=tol)


def test_basepoint_level_zero(any_space):
    xi = ideal_for(any_space)
    o = basepoint(any_space)
    assert sp.busemann(any_space, xi, o) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("base", [None, TreePoint("B-D", 0.7)])
def test_tree_levels_subtract_the_basepoint_depth_to_the_bit(base):
    """Each tree keeps the basepoint's depth toward each marked end, and a
    level subtracts it from the point's depth as if read afresh."""
    space = sp.Space.tree_space(TREE_EDGES, TREE_LEAVES, base)
    tree = space.tree
    rng = np.random.default_rng(3)
    points = [sp.draw_point(space, rng, 4.0) for _ in range(25)]
    points += [tree.basepoint, TreePoint("B-C", 3.5), TreePoint("A-E", 1.5)]
    for leaf in TREE_LEAVES:
        end = IdealPoint.end(leaf)
        for x in points:
            fresh = tree.depth_toward_end(x, leaf) - tree.depth_toward_end(tree.basepoint, leaf)
            assert repr(sp.busemann(space, end, x)) == repr(fresh)
    with pytest.raises(TreeError, match="'D' is not a marked ideal leaf"):
        sp.busemann(space, IdealPoint.end("D"), points[0])


def busemann_from(space, xi, o, x):
    """Level of x measured from an explicit origin o, each space's formula
    written out with o free."""
    if space.kind == "euclidean":
        return -sp._left_sum((a - b) * u for a, b, u in zip(x, o, xi.vector))
    if space.kind == "hyperbolic":
        return math.log(loops.alpha(x, xi.vector)) - math.log(loops.alpha(o, xi.vector))
    tree = space.tree
    return tree.depth_toward_end(x, xi.leaf) - tree.depth_toward_end(o, xi.leaf)


@pytest.mark.parametrize(
    "space",
    [sp.Space.euclidean(d) for d in (1, 2, 3)]
    + [sp.Space.hyperbolic(d) for d in range(1, 7)]
    + [
        sp.Space.tree_space(TREE_EDGES, TREE_LEAVES),
        sp.Space.tree_space(TREE_EDGES, TREE_LEAVES, TreePoint("B-C", 1.0)),
    ],
    ids=["E1", "E2", "E3", "H1", "H2", "H3", "H4", "H5", "H6", "tree", "tree-based-on-B-C"],
)
def test_busemann_is_the_level_from_the_basepoint(space):
    # bit for bit, not to a tolerance
    rng = sp.sub_rng(20)
    o = basepoint(space)
    for scale in (0.1, 1.0, 4.0, 12.0):
        for _ in range(40):
            xi = sp.draw_ideal(space, rng)
            x = sp.draw_point(space, rng, scale)
            assert sp.busemann(space, xi, x) == busemann_from(space, xi, o, x)


def _outcome(call):
    """call()'s result, or the message of the GeometryError it raises."""
    try:
        return call()
    except GeometryError as err:
        return f"GeometryError: {err}"


def _kernel_draws():
    """(space, xi, x, s) over E^1-E^3, H^1-H^5 and the conftest tree; in
    H^n also xi scaled by 2^-1000 and 2^1000, which validate_ideal rescales,
    and s up to 45, where rays pass x0 = 2^39 and are read back or refused."""
    tree = sp.Space.tree_space(TREE_EDGES, TREE_LEAVES)
    for space in (
        [sp.Space.euclidean(d) for d in (1, 2, 3)]
        + [sp.Space.hyperbolic(d) for d in range(1, 6)]
        + [tree]
    ):
        rng = sp.sub_rng(41, space.dim)
        ideals = [sp.draw_ideal(space, rng) for _ in range(3)]
        if space.kind == "hyperbolic":
            v = ideals[0].vector
            for k in (-1000, 1000):
                ideals.append(IdealPoint.null_vector([math.ldexp(c, k) for c in v]))
        for xi in ideals:
            for _ in range(30):
                yield space, xi, sp.draw_point(space, rng, 2.0), float(rng.uniform(0.0, 45.0))


def test_horofunction_is_busemann_and_ray_point_bit_for_bit():
    read_back = refused = 0
    for space, xi, x, s in _kernel_draws():
        level, ray = sp.horofunction(space, xi)
        assert repr(level(x)) == repr(sp.busemann(space, xi, x))
        assert ray(x, 0.0) is x and sp.ray_point(space, x, xi, 0.0) is x
        got = _outcome(lambda: ray(x, s))
        assert repr(got) == repr(_outcome(lambda: sp.ray_point(space, x, xi, s)))
        if space.kind == "hyperbolic":
            refused += isinstance(got, str)
            read_back += not isinstance(got, str) and got[0] > 2.0**39
    assert refused > 0 and read_back > 0


def test_ray_examples(euclid2):
    u = IdealPoint.direction((1.0, 0.0))
    assert sp.ray_point(euclid2, (1.0, 1.0), u, 2.0) == (3.0, 1.0)
    assert sp.ray_point(euclid2, (1.0, 1.0), u, 0.0) == (1.0, 1.0)
    with pytest.raises(GeometryError):
        sp.ray_point(euclid2, (1.0, 1.0), u, -1.0)


def test_ray_identities(any_space):
    # hyperbolic draws stay at desk scale: the measurable identity floor
    # grows like exp(2s - 2 b(x)) in ambient doubles
    scale = 1.25 if any_space.kind == "hyperbolic" else 2.0
    xi = ideal_for(any_space)
    rng = np.random.default_rng(13)
    for _ in range(50):
        x = sp.draw_point(any_space, rng, scale)
        s = float(rng.uniform(0.0, 10.0))
        r = sp.ray_point(any_space, x, xi, s)
        drop = sp.busemann(any_space, xi, r) - sp.busemann(any_space, xi, x)
        assert drop == pytest.approx(-s, abs=1e-7)


def test_ray_unit_speed(any_space):
    # unit speed to 1e-9 needs moderate arclength: far hyperboloid points
    # can only be pinned to ~exp(2s)*eps in ambient doubles
    xi = ideal_for(any_space)
    rng = np.random.default_rng(17)
    for _ in range(50):
        x = sp.draw_point(any_space, rng, 2.0)
        s = float(rng.uniform(0.0, 5.0))
        r = sp.ray_point(any_space, x, xi, s)
        assert sp.distance(any_space, x, r) == pytest.approx(s, abs=1e-9)


def _hyperbolic_ray_draws():
    for dim in range(1, 6):
        space = sp.Space.hyperbolic(dim)
        rng = sp.sub_rng(21, dim)
        for _ in range(200):
            x = sp.draw_point(space, rng, 2.0)
            yield space, x, sp.draw_ideal(space, rng), float(rng.uniform(0.0, 5.0))


def test_hyperbolic_ray_is_lifted_and_drops_by_s():
    # the oracle reads the float ray point's exact level: the rounding of
    # its spatial part is all the error there is
    for space, x, xi, s in _hyperbolic_ray_draws():
        r = sp.ray_point(space, x, xi, s)
        assert r[0] == math.hypot(1.0, *r[1:])
        drop = oracle.level(r, xi.vector) - oracle.level(x, xi.vector)
        assert abs(float(drop) + s) <= 1e-13


def test_hyperbolic_rays_do_not_depend_on_long_double(monkeypatch):
    # long double is plain double on Windows and macOS arm64
    draws = list(_hyperbolic_ray_draws())
    rays = [sp.ray_point(space, x, xi, 2.0 * s) for space, x, xi, s in draws]
    monkeypatch.setattr(np, "longdouble", np.float64)
    assert rays == [sp.ray_point(space, x, xi, 2.0 * s) for space, x, xi, s in draws]


def test_far_hyperbolic_rays_raise_naming_s():
    """The level of ray_point(x, xi, s) is alpha e^-s, read to about
    2.3 (2^-52 x0)^2 relative off its lifted coordinates.  Past x0 = 2^39
    ray_point reads the level back and raises naming s when it is off by
    more than 3.5e-8, and every point it does return, there too, keeps
    its level drop within C07's 1e-7 of -s (H^1 to H^7, s in [0, 45])."""
    raised = returned_far = 0
    for dim in range(1, 8):
        space = sp.Space.hyperbolic(dim)
        for seed in (1, 2, 3):
            rng = sp.sub_rng(seed, dim)
            for _ in range(100):
                x = sp.draw_point(space, rng, 2.0)
                xi = sp.draw_ideal(space, rng)
                s = float(rng.uniform(0.0, 45.0))
                try:
                    r = sp.ray_point(space, x, xi, s)
                except GeometryError as err:
                    assert f"s = {s!r} is too far out" in str(err)
                    # the exact ray point's x0 is exp(-s) x0 + sinh(s) xi0 / alpha
                    alpha = math.exp(oracle.level(x, xi.vector)) * xi.vector[0]
                    x0 = math.exp(-s) * x[0] + math.sinh(s) * xi.vector[0] / alpha
                    assert x0 > 2.0**39
                    raised += 1
                    continue
                drop = sp.busemann(space, xi, r) - sp.busemann(space, xi, x)
                assert abs(drop + s) <= 1e-7
                returned_far += r[0] > 2.0**39
    assert raised > 0 and returned_far > 0
    # past s ~ 710 sinh(s) itself overflows
    with pytest.raises(GeometryError, match="s = 800.0 overflows"):
        sp.ray_point(space, x, xi, 800.0)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_ray_drop_bound_holds_in_every_dimension(dim):
    """C07's ray-drop bound of 1e-7 (scale 1.25, s in [0, 10]) holds on
    H^1 to H^5 over seeds 7 to 9: a ray point is lifted from its spatial
    part and its level read from spatial parts, so neither rounds away
    the level."""
    space = sp.Space.hyperbolic(dim)
    for seed in (7, 8, 9):
        rng = sp.sub_rng(seed)
        for _ in range(500):
            x = sp.draw_point(space, rng, 1.25)
            xi = sp.draw_ideal(space, rng)
            s = float(rng.uniform(0.0, 10.0))
            r = sp.ray_point(space, x, xi, s)
            drop = sp.busemann(space, xi, r) - sp.busemann(space, xi, x)
            assert abs(drop + s) <= 1e-7


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_levels_match_the_oracle(dim):
    # far rays are where -<x, xi> used to cancel; points past x0 = 2^39
    # are refused by ray_point and skipped
    space = sp.Space.hyperbolic(dim)
    rng = sp.sub_rng(22, dim)
    worst = 0.0
    for scale in (2.0, 8.0):
        for _ in range(40):
            x = sp.draw_point(space, rng, scale)
            xi = sp.draw_ideal(space, rng)
            points = [x]
            for s in [rng.uniform(0.0, 20.0) for _ in range(3)]:
                try:
                    points.append(sp.ray_point(space, x, xi, float(s)))
                except GeometryError:
                    pass
            for p in points:
                err = abs(sp.busemann(space, xi, p) - float(oracle.level(p, xi.vector)))
                worst = max(worst, err)
    assert worst <= 1e-13


@pytest.mark.parametrize("k", [30, 35, 40])
def test_far_levels_near_the_line_toward_xi_match_the_oracle(k):
    """A point at x0 = 2^k whose transverse part off the line toward xi is
    0.5 to 3: rounding c v_i in y_i - c v_i would move its level by up to
    3e-8 at 2^30 and 3e-5 at 2^40, so past x0 = 2^12 that part is summed
    exactly, and the level is within a few ulps of the oracle's."""
    space = sp.Space.hyperbolic(2)
    xi = IdealPoint.null_vector((1.0, 0.6, 0.8))
    v = xi.vector
    along = [c / v[0] for c in v[1:]]
    across = [-along[1], along[0]]
    rng = sp.sub_rng(24, k)
    worst = 0.0
    for _ in range(40):
        p = float(rng.uniform(0.5, 3.0)) * (1.0 if rng.random() < 0.5 else -1.0)
        x = sp._lift([2.0**k * a + p * w for a, w in zip(along, across)], "y", k)
        assert abs(x[0] / 2.0**k - 1.0) < 1e-6
        worst = max(worst, abs(sp.busemann(space, xi, x) - float(oracle.level(x, v))))
    assert worst <= 1e-14


# a space, a point in it, and a short and a long ideal vector
_SHORT_AND_LONG = {
    "E3": (sp.Space.euclidean(3), (1.0, 2.0, 3.0), [(0.0, 1.0), (0.0, 0.0, 0.0, 1.0)]),
    "H2": (sp.Space.hyperbolic(2), (1.0, 0.0, 0.0), [(1.0, 1.0), (1.0, 1.0, 0.0, 0.0)]),
}


@pytest.mark.parametrize("kernel", ["busemann", "ray_point", "ray_separation"])
@pytest.mark.parametrize("name", sorted(_SHORT_AND_LONG))
def test_ray_kernels_check_the_ideal_length(kernel, name):
    space, x, vectors = _SHORT_AND_LONG[name]
    calls = {
        "busemann": lambda xi: sp.busemann(space, xi, x),
        "ray_point": lambda xi: sp.ray_point(space, x, xi, 1.0),
        "ray_separation": lambda xi: sp.ray_separation(space, x, x, xi, 1.0),
    }
    for v in vectors:
        with pytest.raises(GeometryError, match=f"expected 3 components, got {len(v)}"):
            calls[kernel](IdealPoint(vector=v))


# per space, two points of a body; per case, a raw ideal point that no
# constructor lets through, and what validate_ideal raises for it
_GATE_SPACES = {
    "E2": (sp.Space.euclidean(2), (0.0, 0.0), (1.0, 0.5)),
    "H2": (sp.Space.hyperbolic(2), (1.0, 0.0, 0.0), (1.25, 0.75, 0.0)),
    "tree": (sp.Space.tree_space(TREE_EDGES, TREE_LEAVES), TreePoint("A-B", 0.0),
             TreePoint("B-D", 1.0)),
}
_REFUSED = {
    "non-unit": ("E2", IdealPoint(vector=(2.0, 0.0)), "direction must be unit, |u| = 2.0"),
    "wrong-length": ("H2", IdealPoint(vector=(1.0, 1.0)), "expected 3 components, got 2"),
    "not-null": ("H2", IdealPoint(vector=(1.0, 0.5, 0.0)),
                 "ideal vector must be null, <xi,xi> = -0.75"),
    "past-pointing": ("H2", IdealPoint(vector=(-1.0, 1.0, 0.0)),
                      "ideal vector must be future pointing"),
    "v0-zero": ("H2", IdealPoint(vector=(0.0, 1.0, 0.0)), "ideal vector must be future pointing"),
    "v0-nan": ("H2", IdealPoint(vector=(math.nan, 1.0, 0.0)),
               "ideal vector must have >= 2 finite components, got (nan, 1.0, 0.0)"),
    "unmarked-leaf": ("tree", IdealPoint.end("D"), "'D' is not a marked ideal leaf"),
    "no-leaf": ("tree", IdealPoint(vector=(1.0, 0.0)), "tree ideal point must name a marked leaf"),
}


@pytest.mark.parametrize("case", sorted(_REFUSED))
def test_every_ideal_reader_refuses_what_validate_ideal_refuses(case):
    # horofunction is the one gate: each level, ray and selector reads
    # through it, so each raises validate_ideal's error, at s = 0 too
    name, xi, message = _REFUSED[case]
    space, x, y = _GATE_SPACES[name]
    body = ConvexBody.of(space, [x, y])
    with pytest.raises(GeometryError) as expected:
        sp.validate_ideal(space, xi)
    assert str(expected.value) == message
    for call in (
        lambda: sp.horofunction(space, xi),
        lambda: sp.busemann(space, xi, x),
        lambda: sp.ray_point(space, x, xi, 0.0),
        lambda: sp.ray_point(space, x, xi, 1.0),
        lambda: sp.ray_separation(space, x, y, xi, 1.0),
        lambda: first_horosphere(space, body, xi),
        lambda: classify_body(space, body, xi),
        lambda: select(space, body, xi),
    ):
        with pytest.raises(GeometryError) as got:
            call()
        assert type(got.value) is type(expected.value) and str(got.value) == message


@pytest.mark.parametrize("k", [-1000, -3, -1, 1, 3, 1000])
def test_null_vectors_of_any_scale_read_alike(k):
    # xi scaled by 2^k names the same ideal point, and validate_ideal reads
    # both at xi0 in [1, 2), so levels, rays and separations agree bit for
    # bit in H^2, H^3 and H^5; far out, dividing by xi0 = 2^-1000 alone
    # would overflow
    for dim in (2, 3, 5):
        space = sp.Space.hyperbolic(dim)
        rng = sp.sub_rng(24, dim)
        for _ in range(4):
            xi = sp.draw_ideal(space, rng)
            scaled = IdealPoint.null_vector([math.ldexp(c, k) for c in xi.vector])
            assert scaled.vector == tuple(math.ldexp(c, k) for c in xi.vector)
            for _ in range(10):
                x, y = sp.draw_point(space, rng, 20.0), sp.draw_point(space, rng, 20.0)
                assert sp.busemann(space, scaled, x) == sp.busemann(space, xi, x)
                assert sp.ray_point(space, x, scaled, 3.0) == sp.ray_point(space, x, xi, 3.0)
                assert sp.ray_separation(space, x, y, scaled, 3.0) == sp.ray_separation(
                    space, x, y, xi, 3.0
                )


def test_ray_separation_matches_naive_evaluation(any_space):
    """The per-space closed forms agree with literally moving both points."""
    xi = ideal_for(any_space)
    rng = np.random.default_rng(23)
    for _ in range(25):
        x = sp.draw_point(any_space, rng, 1.5)
        y = sp.draw_point(any_space, rng, 1.5)
        for s in (0.5, 2.0, 5.0):
            naive = sp.distance(
                any_space,
                sp.ray_point(any_space, x, xi, s),
                sp.ray_point(any_space, y, xi, s),
            )
            assert sp.ray_separation(any_space, x, y, xi, s) == pytest.approx(
                naive, abs=1e-8
            )


@pytest.mark.parametrize("near", [False, True], ids=["far", "near"])
@pytest.mark.parametrize("s", [0.0, 1.0, 5.0, 20.0])
def test_hyperbolic_ray_separation_matches_the_oracle(s, near):
    """The closed form read in doubles, with sinh^2(d0/2) as a quarter of
    the quadrance, is within 1e-12 relative of the 40-digit oracle for
    pairs drawn at scale 2, and 1e-10 for pairs 1e-3 apart, whose level
    gap is read off two levels near 1 (H^1 to H^5)."""
    worst = 0.0
    for dim in range(1, 6):
        space = sp.Space.hyperbolic(dim)
        rng = sp.sub_rng(31, dim)
        for _ in range(40):
            x = sp.draw_point(space, rng, 2.0)
            if near:
                y = sp._random_shift(space, x, 1e-3, rng, "step", 1e-3)
            else:
                y = sp.draw_point(space, rng, 2.0)
            xi = sp.draw_ideal(space, rng)
            want = oracle.ray_separation(x, y, xi.vector, s)
            got = Decimal(sp.ray_separation(space, x, y, xi, s))
            worst = max(worst, float(abs(got - want) / want))
    assert worst <= (1e-10 if near else 1e-12)


# -- random generation --------------------------------------------------------


def test_random_point_deterministic(any_space):
    assert random_point(any_space, 42, 3.0) == random_point(any_space, 42, 3.0)


def test_random_point_within_scale(any_space):
    o = basepoint(any_space)
    for seed in range(1000):
        p = random_point(any_space, seed, 3.0)
        sp.canonical_point(any_space, p)
        assert sp.distance(any_space, o, p) <= 3.0 + 1e-12


def test_random_shift_step_size(euclid3, hyp2):
    rng = np.random.default_rng(5)
    for space in (euclid3, hyp2):
        x = sp.draw_point(space, rng, 2.0)
        y = sp._random_shift(space, x, 0.25, rng, "step", 0.25)
        assert sp.distance(space, x, y) == pytest.approx(0.25, abs=1e-9)


def test_overflowing_hyperbolic_draws_name_their_parameter(hyp2):
    # cosh overflows past 710; these used to escape as OverflowError
    rng = sp.sub_rng(0)
    with pytest.raises(GeometryError, match=r"^scale = 1e\+300 overflows"):
        sp.draw_point(hyp2, rng, 1e300)
    with pytest.raises(GeometryError, match=r"^step = 1e\+308 overflows"):
        sp._random_shift(hyp2, basepoint(hyp2), 1e308, rng, "step", 1e308)
    # cosh is finite here, but past radius ~355 x0^2 of the point is not
    with pytest.raises(GeometryError, match=r"^scale = 400\.0 overflows: the point's x0\^2"):
        for _ in range(20):
            sp.draw_point(hyp2, rng, 400.0)
    with pytest.raises(GeometryError, match=r"^step = 709\.0 overflows: the point's x0\^2"):
        sp._random_shift(hyp2, basepoint(hyp2), 709.0, rng, "step", 709.0)


NON_FINITE_PARAMETER = {
    "s": lambda space, v: sp.ray_point(space, basepoint(space), ideal_for(space), v),
    "step": lambda space, v: sp._random_shift(
        space, basepoint(space), v, sp.sub_rng(0), "step", v
    ),
    "scale": lambda space, v: random_point(space, 0, v),
}


@pytest.mark.parametrize("param", sorted(NON_FINITE_PARAMETER))
@pytest.mark.parametrize("name", ["euclid2", "hyp2", "tree_space"])
def test_non_finite_parameters_are_rejected_by_name(name, param, request):
    # NaN fails every comparison, so a guard like `s < 0.0` lets it through
    space = request.getfixturevalue(name)
    for value in (math.nan, math.inf):
        with pytest.raises(GeometryError, match=rf"\b{param} must be [a-z ]*finite"):
            NON_FINITE_PARAMETER[param](space, value)


def test_a_geodesic_whose_distance_overflows_is_an_error(hyp2):
    # both points pass the sheet check, but <x-y, x-y> overflows
    x = (math.hypot(1.0, 1e154), 1e154, 0.0)
    y = (x[0], -1e154, 0.0)
    with pytest.raises(GeometryError, match=r"^distance = inf overflows"):
        sp.geodesic_point(hyp2, x, y, 0.5)


# -- validation ----------------------------------------------------------------


WITH_A_POINT = {
    "distance": lambda space, x: sp.distance(space, basepoint(space), x),
    "geodesic_point": lambda space, x: sp.geodesic_point(space, basepoint(space), x, 0.5),
    "busemann": lambda space, x: sp.busemann(space, ideal_for(space), x),
    "ray_point": lambda space, x: sp.ray_point(space, x, ideal_for(space), 1.0),
}


@pytest.mark.parametrize("kernel", sorted(WITH_A_POINT))
@pytest.mark.parametrize("width", [1, 3])
def test_wrong_length_euclidean_points_raise(euclid2, kernel, width):
    # E^2 used to truncate (geodesic_point, busemann, ray_point) or raise a
    # bare ValueError (distance); both lengths are named for a pair
    with pytest.raises(GeometryError, match=rf"^expected 2 coordinates, got (2 and )?{width}$"):
        WITH_A_POINT[kernel](euclid2, (0.5,) * width)


@pytest.mark.parametrize("kernel", ["busemann", "ray_point"])
def test_wrong_length_hyperbolic_points_raise(hyp2, kernel):
    # four coordinates used to hit an IndexError, two were truncated
    for x in ((1.0, 0.0), (1.0, 0.0, 0.0, 0.0)):
        with pytest.raises(GeometryError, match=rf"^expected 3 coordinates, got {len(x)}$"):
            WITH_A_POINT[kernel](hyp2, x)


# A bad point beside a good one, for every reader of points: NaN, +-inf,
# off the sheet or past an edge's end, and a list or tuple where the space
# wants a tuple or a TreePoint.
BAD_POINTS = {
    "euclid2": [(math.nan, 0.0), (math.inf, 0.0), (0.0, -math.inf), [0.0, 0.0]],
    "hyp2": [
        (math.nan, 0.0, 0.0), (math.inf, 0.0, 0.0), (1.0, -math.inf, 0.0),
        (1.0, 5.0, 0.0), [1.0, 0.0, 0.0],
    ],
    "tree_space": [
        TreePoint("A-B", math.nan), TreePoint("A-B", math.inf), TreePoint("B-D", 9.0),
        ("A-B", 0.5),
    ],
}
READERS = {
    "distance": lambda space, x, p, xi: sp.distance(space, x, p),
    "geodesic_point at 0": lambda space, x, p, xi: sp.geodesic_point(space, x, p, 0.0),
    "geodesic_point at 0.5": lambda space, x, p, xi: sp.geodesic_point(space, p, x, 0.5),
    "geodesic_point at 1": lambda space, x, p, xi: sp.geodesic_point(space, p, x, 1.0),
    "diameter": lambda space, x, p, xi: sp.diameter(space, [x, p]),
    "ray_separation": lambda space, x, p, xi: sp.ray_separation(space, x, p, xi, 1.0),
    "busemann": lambda space, x, p, xi: sp.busemann(space, xi, p),
    "ray_point": lambda space, x, p, xi: sp.ray_point(space, p, xi, 1.0),
    "project_to_level": lambda space, x, p, xi: project_to_level(space, p, xi, -1.0),
    "first_horosphere": lambda space, x, p, xi: first_horosphere(space, ConvexBody((x, p)), xi),
    "classify_body": lambda space, x, p, xi: classify_body(space, ConvexBody((x, p)), xi),
    "limit_separation": lambda space, x, p, xi: limit_separation(space, x, p, xi),
    "hausdorff": lambda space, x, p, xi: hausdorff(space, ConvexBody((x,)), ConvexBody((x, p))),
}


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("name", sorted(BAD_POINTS))
def test_every_reader_of_points_refuses_with_the_point_rule(name, reader, request):
    """canonical_point is the one point rule: each reader refuses what it
    refuses, with its message, also where it would not read the point (t
    = 0 and 1) and for bodies built past ConvexBody.of."""
    space = request.getfixturevalue(name)
    x, xi = basepoint(space), ideal_for(space)
    for p in BAD_POINTS[name]:
        with pytest.raises(GeometryError) as rule:
            sp.canonical_point(space, p)
        with pytest.raises(GeometryError) as got:
            READERS[reader](space, x, p, xi)
        assert str(got.value) == str(rule.value), p


def test_the_point_rule_reads_accepted_points_as_given(tree_space):
    """A point the rule copies or snaps is read as given: a tree point
    within VERTEX_SNAP of a vertex keeps its offset, and a float subclass
    its type, in what the readers return."""
    near = TreePoint("A-B", 1e-12)
    assert sp.canonical_point(tree_space, near) != near  # the gate snaps it to A
    far = TreePoint("B-C", 2.0)
    assert sp.geodesic_point(tree_space, near, far, 0.0) is near
    assert repr(sp.distance(tree_space, near, far)) == repr(tree_space.tree.distance(near, far))
    hyp2 = sp.Space.hyperbolic(2)
    x = tuple(map(np.float64, random_point(hyp2, 3, 2.0)))
    assert sp.geodesic_point(hyp2, x, x, 1.0) is x



def test_point_validation(euclid2, hyp2):
    with pytest.raises(GeometryError):
        sp.canonical_point(euclid2, (1.0, 2.0, 3.0))
    with pytest.raises(GeometryError):
        sp.canonical_point(hyp2, (1.0, 0.5, 0.0))  # off the sheet
    with pytest.raises(GeometryError):
        sp.canonical_point(hyp2, (-1.0, 0.0, 0.0))  # wrong sheet


def test_far_hyperboloid_points_pass_the_relative_check(hyp2):
    # radius-9 draw (coordinates ~4e3) whose <x,x> misses -1 by 1.9e-9
    rng = sp.sub_rng(1, 4)
    sp.draw_point(hyp2, rng, 9.0)
    x = sp.draw_point(hyp2, rng, 9.0)
    assert abs(sp._mink(x, x) + 1.0) > sp.HYPERBOLOID_TOL
    sp.canonical_point(hyp2, x)
    for off in ((x[0] * (1.0 + 1e-8),) + x[1:], (1e200, 0.0, 0.0)):
        with pytest.raises(GeometryError, match="off the hyperboloid"):
            sp.canonical_point(hyp2, off)


def test_dim_is_capped():
    assert sp.Space.hyperbolic(sp.MAX_DIM).dim == sp.MAX_DIM
    for make in (sp.Space.euclidean, sp.Space.hyperbolic):
        for dim in (0, sp.MAX_DIM + 1, 10**40):
            with pytest.raises(GeometryError, match="dim"):
                make(dim)


def test_ideal_validation(euclid2, hyp2, tree_space):
    with pytest.raises(GeometryError):
        sp.validate_ideal(euclid2, IdealPoint(vector=(2.0, 0.0)))
    with pytest.raises(GeometryError):
        sp.validate_ideal(hyp2, IdealPoint(vector=(1.0, 0.5, 0.0)))  # not null
    sp.validate_ideal(hyp2, IdealPoint(vector=(2.0, 2.0, 0.0)))  # any positive scale
    with pytest.raises(GeometryError):
        sp.validate_ideal(hyp2, IdealPoint(vector=(-1.0, 1.0, 0.0)))  # past pointing
    with pytest.raises(GeometryError):
        sp.validate_ideal(tree_space, IdealPoint.end("D"))  # unmarked leaf
    norm = sp.normalize_ideal(hyp2, IdealPoint(vector=(2.0, 2.0, 0.0)))
    sp.validate_ideal(hyp2, norm)


def test_canonical_point_is_idempotent(any_space):
    # a stored point passes the gate unchanged to the bit, so a point read
    # back from an artifact is stored as it was written
    rng = sp.sub_rng(3)
    points = [sp.draw_point(any_space, rng, 3.0) for _ in range(20)]
    if any_space.kind == "tree":
        # vertex B named through non-canonical edges, snapped offsets, and
        # a point past the marked leaf C
        points += [TreePoint("B-C", 0.0), TreePoint("B-D", 1e-13),
                   TreePoint("A-B", 2.0 - 1e-13), TreePoint("B-C", 50.0)]
    else:
        points.append(tuple(np.float64(c) for c in points[0]))
    for p in points:
        once = sp.canonical_point(any_space, p)
        assert repr(sp.canonical_point(any_space, once)) == repr(once)


def test_a_canonical_point_is_kept_not_copied(hyp2, tree_space):
    """A point already in canonical form, a plain tuple of floats or a
    TreePoint with a str edge and a float offset, passes the gate as the
    same object, so bodies and configurations that share a point share
    its storage; other input is converted to that form."""
    p = random_point(hyp2, 1, 2.0)
    assert sp.canonical_point(hyp2, p) is p
    assert ConvexBody.of(hyp2, [p, sp.basepoint(hyp2)]).generators[0] is p

    class Coords(tuple):
        pass

    for q in (tuple(np.float64(c) for c in p), Coords(p)):
        got = sp.canonical_point(hyp2, q)
        assert type(got) is tuple and all(type(c) is float for c in got) and got == p
    t = TreePoint("B-C", 1.25)
    assert sp.canonical_point(tree_space, t) is t
    got = sp.canonical_point(tree_space, TreePoint("B-C", np.float64(1.25)))
    assert got == t and type(got.offset) is float


def test_point_validation_rejects_non_finite(euclid2, hyp2):
    for space, p in (
        (euclid2, (math.nan, 0.0)),
        (euclid2, (0.0, -math.inf)),
        (hyp2, (1.0, math.nan, 0.0)),
        (hyp2, (math.inf, 0.0, 0.0)),
    ):
        with pytest.raises(GeometryError, match="finite"):
            sp.canonical_point(space, p)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: sp.canonical_point(_GATE_SPACES["tree"][0], ("A-B", 0.5)),
         GeometryError, "tree space expects TreePoint, got tuple"),
        (lambda: sp.canonical_point(sp.Space.euclidean(2), [0.0, 0.0]),
         GeometryError, "point must be a tuple of floats"),
        (lambda: sp.canonical_point(_GATE_SPACES["tree"][0], TreePoint("A-B", math.nan)),
         TreeError, "non-finite offset on edge A-B"),
        (lambda: sp.draw_ideal(sp.Space.tree_space([("A", "B", 1.0)]), sp.sub_rng(0)),
         GeometryError, "tree has no marked ideal leaves"),
    ],
    ids=["tuple-in-tree", "list-in-euclid", "nan-offset", "unmarked-tree"],
)
def test_points_and_draws_are_refused_with_their_message(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error and str(exc.value) == message


def test_trivial_inputs_come_back_unchanged(euclid2, hyp2):
    # normalize_ideal snaps hyperbolic vectors only, a point is 0 from
    # itself along every ray, and a zero step moves nothing
    xi = IdealPoint.direction((3.0, 4.0))
    assert sp.normalize_ideal(euclid2, xi) is xi
    x = sp.draw_point(hyp2, sp.sub_rng(1), 2.0)
    assert sp.ray_separation(hyp2, x, x, ideal_for(hyp2), 2.0) == 0.0
    assert sp._random_shift(hyp2, x, 0.0, sp.sub_rng(0), "step", 0.0) is x


# -- exactly null ideal vectors ----------------------------------------------------


def exact_null_defect(v) -> Fraction:
    f = [Fraction(c) for c in v]
    return -f[0] * f[0] + sum(c * c for c in f[1:])


def spatial_angle(a, b) -> float:
    """Angle between the spatial parts of a and b, stable for tiny angles."""
    ua = [c / math.hypot(*a[1:]) for c in a[1:]]
    ub = [c / math.hypot(*b[1:]) for c in b[1:]]
    summed = math.hypot(*(x + y for x, y in zip(ua, ub)))
    return 2.0 * math.atan2(math.dist(ua, ub), summed)


@settings(max_examples=300, deadline=None)
@given(
    spatial=st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.lists(
            st.floats(min_value=-1.0, max_value=1.0, allow_subnormal=False),
            min_size=n,
            max_size=n,
        )
    ),
    scale=st.floats(min_value=1e-3, max_value=1e3),
)
def test_null_vector_is_exactly_null_near_its_input(spatial, scale):
    norm = math.hypot(*spatial)
    assume(norm > 0.0)
    v = (scale,) + tuple(scale * (c / norm) for c in spatial)
    xi = IdealPoint.null_vector(v).vector
    assert len(xi) == len(v) and xi[0] > 0.0
    assert exact_null_defect(xi) == 0
    assert spatial_angle(v, xi) <= 3e-8
    assert IdealPoint.null_vector(xi).vector == xi


@pytest.mark.parametrize(
    "v", [(1.0, 1.0, 0.0), (2.0, 2.0, 0.0), (5.0, 3.0, 4.0), (1e200, 0.0, -1e200)]
)
def test_exactly_null_vectors_come_back_unchanged(v):
    assert IdealPoint.null_vector(v).vector == v


@pytest.mark.parametrize(
    "v",
    [
        (1.0, 0.5, 0.0),  # timelike
        (-1.0, 1.0, 0.0),  # past pointing
        (1.0, 0.0, 0.0),  # no spatial part
        (math.nan, 1.0, 0.0),
        (1.0, math.inf, 0.0),
        (1.0,),
    ],
)
def test_null_vector_rejects(v):
    with pytest.raises(GeometryError):
        IdealPoint.null_vector(v)


def test_null_vector_with_underflowing_component():
    # the square of 1e-200 underflows, so a float defect of 0 proves nothing
    xi = IdealPoint.null_vector((1.0, 1.0, 1e-200)).vector
    assert exact_null_defect(xi) == 0
    assert spatial_angle((1.0, 1.0, 1e-200), xi) <= 3e-8


def test_drawn_and_normalized_ideals_are_exactly_null():
    rng = np.random.default_rng(3)
    for dim in range(1, 6):
        space = sp.Space.hyperbolic(dim)
        for _ in range(40):
            xi = sp.draw_ideal(space, rng)
            assert exact_null_defect(xi.vector) == 0
            scaled = IdealPoint(vector=tuple(3.0 * c for c in xi.vector))
            snapped = sp.normalize_ideal(space, scaled).vector
            assert exact_null_defect(snapped) == 0
            assert spatial_angle(scaled.vector, snapped) <= 3e-8


# -- properties ------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS)
def test_triangle_inequality(any_space, seed):
    rng = np.random.default_rng(seed)
    x, y, z = (sp.draw_point(any_space, rng, 3.0) for _ in range(3))
    assert sp.distance(any_space, x, z) <= (
        sp.distance(any_space, x, y) + sp.distance(any_space, y, z) + 1e-9
    )


def test_triangle_inequality_bulk(any_space):
    rng = np.random.default_rng(1000)
    for _ in range(1000):
        x, y, z = (sp.draw_point(any_space, rng, 3.0) for _ in range(3))
        assert sp.distance(any_space, x, z) <= (
            sp.distance(any_space, x, y) + sp.distance(any_space, y, z) + 1e-9
        )


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, t=st.floats(min_value=0.0, max_value=1.0))
def test_geodesic_collinearity(any_space, seed, t):
    rng = np.random.default_rng(seed)
    x, y = (sp.draw_point(any_space, rng, 3.0) for _ in range(2))
    m = sp.geodesic_point(any_space, x, y, t)
    d = sp.distance(any_space, x, y)
    assert sp.distance(any_space, x, m) == pytest.approx(t * d, abs=1e-9)
    assert sp.distance(any_space, x, m) + sp.distance(any_space, m, y) == pytest.approx(
        d, abs=1e-9
    )


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, t=st.floats(min_value=0.0, max_value=1.0))
def test_distance_convexity_between_geodesics(any_space, seed, t):
    rng = np.random.default_rng(seed)
    a0, a1, b0, b1 = (sp.draw_point(any_space, rng, 3.0) for _ in range(4))
    left = sp.geodesic_point(any_space, a0, a1, t)
    right = sp.geodesic_point(any_space, b0, b1, t)
    bound = (1.0 - t) * sp.distance(any_space, a0, b0) + t * sp.distance(
        any_space, a1, b1
    )
    assert sp.distance(any_space, left, right) <= bound + 1e-9


@pytest.mark.parametrize("p", [(-1.0, 0.0, 0.0), (math.nan, 0.0, 0.0)])
def test_a_raw_point_off_the_sheet_is_blamed_not_the_ideal_point(p):
    # xi passes validate_ideal, so a level or ray that cannot be read is
    # the point's fault, and the point rule's message names it
    space, xi = sp.Space.hyperbolic(2), IdealPoint.null_vector((1, 1, 0))
    if p[0] < 0.0:
        message = "hyperboloid point must have positive first coordinate"
    else:
        message = f"point coordinates must be finite, got {p}"
    for call in (lambda: sp.busemann(space, xi, p), lambda: sp.ray_point(space, p, xi, 1.0)):
        with pytest.raises(GeometryError) as got:
            call()
        assert str(got.value) == message


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS)
def test_busemann_is_1_lipschitz(any_space, seed):
    rng = np.random.default_rng(seed)
    xi = ideal_for(any_space)
    x, y = (sp.draw_point(any_space, rng, 3.0) for _ in range(2))
    gap = abs(sp.busemann(any_space, xi, x) - sp.busemann(any_space, xi, y))
    assert gap <= sp.distance(any_space, x, y) + 1e-9


def test_euclidean_busemann_sums_left_to_right():
    # a compensated sum (Python 3.12's sum()) gives -5773502691896259.0
    space = sp.Space.euclidean(3)
    u = IdealPoint.direction((1.0, 1.0, 1.0))
    level = sp.busemann(space, u, (1e16, 1.0, 1.0))
    assert level == -5773502691896260.0
    assert sp._left_sum([1.0, 1e100, 1.0, -1e100]) == 0.0


def test_dimension_one_spaces():
    line = sp.Space.euclidean(1)
    assert sp.distance(line, (0.0,), (4.0,)) == 4.0
    u = IdealPoint.direction((-1.0,))
    assert sp.busemann(line, u, (3.0,)) == 3.0
    hyp1 = sp.Space.hyperbolic(1)
    x = (math.cosh(0.5), math.sinh(0.5))
    y = (math.cosh(2.0), -math.sinh(2.0))
    assert sp.distance(hyp1, x, y) == pytest.approx(2.5, abs=1e-12)
    xi = sp.draw_ideal(hyp1, np.random.default_rng(0))
    r = sp.ray_point(hyp1, x, xi, 4.0)
    assert sp.busemann(hyp1, xi, r) == pytest.approx(
        sp.busemann(hyp1, xi, x) - 4.0, abs=1e-7
    )


def test_hyperboloid_drift_over_long_chains(hyp2):
    """Interleaved interpolation/ray chains stay pinned to the sheet."""
    rng = np.random.default_rng(99)
    xi = ideal_for(hyp2)
    x = sp.draw_point(hyp2, rng, 2.0)
    for k in range(100):
        if k % 2 == 0:
            target = sp.draw_point(hyp2, rng, 3.0)
            x = sp.geodesic_point(hyp2, x, target, float(rng.uniform(0.2, 0.8)))
        else:
            x = sp.ray_point(hyp2, x, xi, float(rng.uniform(0.0, 0.5)))
        assert abs(sp._mink(x, x) + 1.0) <= 1e-9


# -- kernel bit-identity ---------------------------------------------------------
# The pairwise kernel as it stood before `diameter` picked its metric once
# per call and the hyperbolic formulas dropped their temporaries, with the
# hyperbolic geodesic in its closed form on the spatial parts.  Every
# output of the current kernel must match it bit for bit.


def reference_distance(space, x, y):
    if space.kind == "euclidean":
        return math.dist(x, y)
    if space.kind == "hyperbolic":
        if len(x) != space.dim + 1 or len(y) != space.dim + 1:
            raise GeometryError(
                f"expected {space.dim + 1} coordinates, got {len(x)} and {len(y)}"
            )
        d = x[0] - y[0]
        q = -d * d
        for a, b in zip(x[1:], y[1:]):
            q += (a - b) * (a - b)
        if q <= 0.0:
            return 0.0
        return 2.0 * math.asinh(0.5 * math.sqrt(q))
    return space.tree.distance(x, y)


def reference_geodesic_point(space, x, y, t):
    """Euclidean and hyperbolic branches only."""
    if t == 0.0:
        return x
    if t == 1.0:
        return y
    if space.kind == "euclidean":
        return tuple(a + t * (b - a) for a, b in zip(x, y))
    d = reference_distance(space, x, y)
    if d < 1e-14:
        return x
    # (sinh((1-t)d) x + sinh(td) y) / sinh d on the spatial parts, lifted
    wx = math.sinh((1.0 - t) * d) / math.sinh(d)
    wy = math.sinh(t * d) / math.sinh(d)
    spatial = tuple(wx * a + wy * b for a, b in zip(x[1:], y[1:]))
    return (math.hypot(1.0, *spatial),) + spatial


def reference_diameter(space, points):
    best = 0.0
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            d = reference_distance(space, points[i], points[j])
            if d > best:
                best = d
    return best


KERNEL_SPACES = [sp.Space.hyperbolic(dim) for dim in range(1, 6)] + [
    sp.Space.euclidean(3),
    sp.Space.tree_space(TREE_EDGES, TREE_LEAVES),
]


def _partner(space, x, rng, how):
    """A second point: independent, equal, a few ulps off, or very near."""
    if how == "far":
        return sp.draw_point(space, rng, 3.0)
    if how == "same" or space.kind == "tree":
        return x
    if how == "ulp":
        return tuple(math.nextafter(c, math.inf) for c in x)
    return sp.geodesic_point(space, x, sp.draw_point(space, rng, 3.0), 1e-15)


@settings(max_examples=300, deadline=None)
@given(
    seed=SEEDS,
    which=st.integers(min_value=0, max_value=len(KERNEL_SPACES) - 1),
    how=st.sampled_from(["far", "same", "ulp", "near"]),
    t=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)),
    n=st.integers(min_value=0, max_value=6),
)
def test_kernel_is_bit_identical_to_the_reference(seed, which, how, t, n):
    space = KERNEL_SPACES[which]
    rng = np.random.default_rng(seed)
    x = sp.draw_point(space, rng, 3.0)
    y = _partner(space, x, rng, how)
    for a, b in ((x, y), (y, x)):
        assert repr(sp.distance(space, a, b)) == repr(reference_distance(space, a, b))
        if space.kind != "tree":
            got = sp.geodesic_point(space, a, b, t)
            assert repr(got) == repr(reference_geodesic_point(space, a, b, t))
    points = [sp.draw_point(space, rng, 3.0) for _ in range(n)]
    points[1:1] = [x, y][: min(n, 2)]
    assert repr(sp.diameter(space, points)) == repr(reference_diameter(space, points))


def composed_geodesic(x, y, t, d=None):
    """The hyperbolic interpolator composed from the kernels that the
    compiled geodesic repeats in its own frame: the distance from the loop
    reference's quadrance and `_quadrance_distance`, the sinh weights over
    the spatial parts, and `_lift`."""
    if d is None:
        d = sp._quadrance_distance(loops.quadrance(x, y))
    if d < 1e-14:
        return x
    sh = math.sinh(d)
    a, b = math.sinh((1.0 - t) * d) / sh, math.sinh(t * d) / sh
    return sp._lift([a * u + b * v for u, v in zip(x[1:], y[1:])], "distance", d)


# the dimensions whose compiled kernels are checked against the loops of
# tests/kernel_reference.py; each kernel is named for its dimension, as
# _h2_quadrance, which names the test cases
DIMS = [1, 2, 3, 4, 5, 64]
UNROLLED = [(dim, sp._hyperbolic(dim).quadrance, sp._hyperbolic(dim).geodesic) for dim in DIMS]
READINGS = [(dim, sp._hyperbolic(dim).alpha, sp._hyperbolic(dim).ray) for dim in DIMS]


def _rounds(count, dim):
    """How many draws a test of H^dim takes: H^64 takes a quarter of
    `count`, since each of its draws costs ten times an H^5 one."""
    return count if dim <= 5 else count // 4


def _sheet(spatial, dim):
    """The sheet point over `spatial`, cut or padded with zeros to dim
    coordinates."""
    y = (tuple(spatial) + (0.0,) * dim)[:dim]
    return (math.hypot(1.0, *y),) + y


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("scale", [0.5, 2.0, 8.0, 14.0])
def test_the_fused_geodesic_is_its_composition_bit_for_bit(dim, scale):
    """Each interpolation of the center recursion runs in one frame, which
    must give the bits of the kernels it inlines, with the distance given
    and missing, and hand back x itself for coincident points and for a
    distance below 1e-14: the loop reference and the compiled interpolator
    that `kernels` hands out."""
    space = sp.Space.hyperbolic(dim)
    rng = sp.sub_rng(31, dim * 100 + int(scale))
    for _ in range(_rounds(200, dim)):
        x, y = sp.draw_point(space, rng, scale), sp.draw_point(space, rng, scale)
        t = float(rng.random()) or 0.5  # in (0, 1)
        d = sp.distance(space, x, y)
        for geodesic in (loops.geodesic, sp.kernels(space)[2]):
            for args in ((x, y, t), (x, y, t, None), (x, y, t, d), (y, x, t, d)):
                assert repr(geodesic(*args)) == repr(composed_geodesic(*args))
            twin = tuple(x)  # equal, not identical
            assert geodesic(x, twin, t) is x
            assert geodesic(x, y, t, 0.0) is x
            assert geodesic(x, y, t, 9.9e-15) is x


@pytest.mark.parametrize(
    "spatial",
    [
        ((1e200, 0.0), (1e200, 1.0)),  # x0^2 of the raw points and the move overflows
        ((1e154, 0.0), (-1e154, 0.0)),  # the quadrance overflows
        ((math.nan, 0.0), (0.3, 0.0)),  # a NaN distance moves, and fails the lift
        ((math.inf, 0.0), (0.3, 0.0)),
    ],
)
def test_the_fused_geodesic_raises_as_its_composition_does(spatial):
    """In every checked H^n but H^1, whose cut points coincide, with the
    coordinates past the second zero, for the loop reference and the
    compiled interpolator."""
    for dim, _, compiled in UNROLLED[1:]:
        x, y = (_sheet(s, dim) for s in spatial)
        with pytest.raises(GeometryError, match=r"^distance = \S+ overflows") as want:
            composed_geodesic(x, y, 0.25)
        for geodesic in (loops.geodesic, compiled):
            with pytest.raises(GeometryError) as got:
                geodesic(x, y, 0.25)
            assert str(got.value) == str(want.value)


def _result_or_error(kernel, *args):
    """The repr of what kernel(*args) returns, or the type and message of
    what it raises."""
    try:
        return repr(kernel(*args))
    except Exception as exc:  # noqa: BLE001 -- both sides must raise alike
        return type(exc), str(exc)


# arclength fractions 2^-k and 1 - 2^-k, near the ends of (0, 1), where one
# sinh weight is tiny
FRACTIONS = [0.5] + [f(2.0**-k) for k in (2, 10, 30, 52) for f in (float, lambda e: 1.0 - e)]


@pytest.mark.parametrize("dim, quadrance, geodesic", UNROLLED)
@pytest.mark.parametrize("scale", [1e-9, 1e-4, 0.5, 2.0, 8.0, 30.0, 120.0, 354.0])
def test_the_unrolled_kernels_are_the_generic_ones_bit_for_bit(dim, quadrance, geodesic, scale):
    """The compiled quadrance and geodesic, their loops unrolled over the
    coordinates, do what the loop reference does, operation for
    operation: the same bits at every scale from 1e-9 out to near the
    edge where x0^2 overflows, with the distance given and missing."""
    space = sp.Space.hyperbolic(dim)
    rng = sp.sub_rng(37, dim * 1000 + int(math.log2(scale)) + 40)
    for _ in range(_rounds(40, dim)):
        x, y = sp.draw_point(space, rng, scale), sp.draw_point(space, rng, scale)
        for a, b in ((x, y), (y, x), (x, x)):
            q = quadrance(a, b)
            assert repr(q) == repr(loops.quadrance(a, b))
            for t in FRACTIONS:
                for d in (None, sp._quadrance_distance(q)):
                    got = _result_or_error(geodesic, a, b, t, d)
                    assert got == _result_or_error(loops.geodesic, a, b, t, d)


@pytest.mark.parametrize("dim, quadrance, geodesic", UNROLLED)
def test_the_unrolled_kernels_raise_as_the_generic_ones_do(dim, quadrance, geodesic):
    """Past the overflow edge, where x0^2 or the quadrance overflows or
    sinh d leaves the double range, both raise the same error."""
    far = [(1e153, 0.0), (-1e153, 0.0), (1e200, 1.0), (3e153, 2e153), (0.0, -5e153)]
    points = [_sheet(s, dim) for s in far]
    raised = 0
    for x in points:
        for y in points:
            assert repr(quadrance(x, y)) == repr(loops.quadrance(x, y))
            for t in (0.5, 2.0**-30):
                for d in (None, 700.0, 711.0, math.inf, math.nan):
                    got = _result_or_error(geodesic, x, y, t, d)
                    assert got == _result_or_error(loops.geodesic, x, y, t, d)
                    raised += isinstance(got, tuple)
    assert raised > 0


def test_each_dimension_compiles_its_own_family_once():
    """`_hyperbolic` compiles one family per dimension and keeps it, and
    `kernels`, `horofunction` and the point gate read every H^n through
    it, H^1 and H^4 as H^2 and H^3."""
    families = {dim: sp._hyperbolic(dim) for dim in (1, 2, 3, 4, 7)}
    assert len({id(family) for family in families.values()}) == len(families)
    for dim, family in families.items():
        assert sp._hyperbolic(dim) is family
        assert family.quadrance.__name__ == f"_h{dim}_quadrance"
        space = sp.Space.hyperbolic(dim)
        assert sp.kernels(space) == (family.quadrance, sp._quadrance_distance, family.geodesic)
        assert sp.horofunction(space, sp.draw_ideal(space, sp.sub_rng(45, dim)))[1].func is family.ray
        x = random_point(space, dim, 2.0)
        assert family.on_sheet(x) and sp.canonical_point(space, x) is x


def test_a_wrapper_of_kernels_or_horofunction_sees_every_recursion_and_select(monkeypatch):
    """Each center recursion takes its kernels from `spaces.kernels` once,
    and each `select` its horofunction pair from `spaces.horofunction`
    once, read from the module at each call, so a wrapper installed there
    sees every one, in every H^n."""
    kernels, horofunction = sp.kernels, sp.horofunction
    took, built = [], []
    monkeypatch.setattr(sp, "kernels", lambda space: took.append(space) or kernels(space))
    monkeypatch.setattr(
        sp, "horofunction", lambda space, xi: built.append(space) or horofunction(space, xi)
    )
    for dim in (1, 2, 3, 4):
        space = sp.Space.hyperbolic(dim)
        points = [random_point(space, k, 1.5) for k in range(4)]
        config = unit_configuration(space, points)
        for step in (lambda: center_of_mass(space, config), lambda: leave_one_out_step(space, config)):
            del took[:]
            step()
            assert took == [space]
        xi = sp.draw_ideal(space, sp.sub_rng(46, dim))
        del built[:]
        for k in range(1, 4):
            select(space, ConvexBody.of(space, points[:k + 1]), xi)
        assert built == [space] * 3


def test_the_longest_family_compiles_and_matches_the_loops():
    """H^1024, MAX_DIM, is the longest source: each sum of 1,025 terms must
    compile on every supported Python and give the loops' bits."""
    space = sp.Space.hyperbolic(sp.MAX_DIM)
    family = sp._hyperbolic(sp.MAX_DIM)
    rng = sp.sub_rng(47)
    for scale in (1e-4, 2.0, 30.0):
        x, y = sp.draw_point(space, rng, scale), sp.draw_point(space, rng, scale)
        v = sp.validate_ideal(space, sp.draw_ideal(space, rng))
        assert repr(family.quadrance(x, y)) == repr(loops.quadrance(x, y))
        assert repr(family.geodesic(x, y, 0.25)) == repr(loops.geodesic(x, y, 0.25))
        for p in (x, _mirrored(x)):
            assert repr(family.alpha(p, v)) == repr(loops.alpha(p, v))
            assert repr(family.ray(v, p, 3.0)) == repr(loops.ray(v, p, 3.0))
            assert family.on_sheet(p) and loops.on_sheet(p)


def _mirrored(x):
    """The sheet point with x's spatial part negated: its dot product with
    an ideal vector has the other sign."""
    return (x[0],) + tuple(-c for c in x[1:])


@pytest.mark.parametrize("dim, alpha, ray", READINGS)
@pytest.mark.parametrize("scale", [1e-9, 1e-4, 0.5, 2.0, 8.0, 30.0, 120.0, 354.0])
def test_the_unrolled_readings_are_the_generic_ones_bit_for_bit(dim, alpha, ray, scale):
    """The compiled levels and rays do what the loop reference does: the
    same bits, or the same error, at every scale from 1e-9 out to near
    where x0^2 overflows, for each point and its mirror image, so on both
    sides of the dot product's sign, and at s from 0 to past where ray
    points are read back."""
    space = sp.Space.hyperbolic(dim)
    rng = sp.sub_rng(43, dim * 1000 + int(math.log2(scale)) + 40)
    signs = set()
    for _ in range(_rounds(40, dim)):
        v = sp.validate_ideal(space, sp.draw_ideal(space, rng))
        x = sp.draw_point(space, rng, scale)
        for p in (x, _mirrored(x)):
            assert _result_or_error(alpha, p, v) == _result_or_error(loops.alpha, p, v)
            signs.add(sp._left_sum(a * b for a, b in zip(p[1:], v[1:])) > 0.0)
            assert ray(v, p, 0.0) is p
            for s in (1e-12, 0.7, 6.0, 29.0, 44.0):
                assert _result_or_error(ray, v, p, s) == _result_or_error(loops.ray, v, p, s)
    assert signs == {False, True}


@pytest.mark.parametrize("dim, alpha, ray", READINGS)
def test_the_unrolled_readings_take_every_branch_of_the_generic_ones(dim, alpha, ray):
    """Far draws take the exact sum past x0 = 2^12 and the read-back past
    x0 = 2^39, which returns some ray points and refuses others; the
    compiled readings give the loops' bits and errors there too.  In H^1
    every read-back of these draws passes, so none is refused."""
    space = sp.Space.hyperbolic(dim)
    rng = sp.sub_rng(44, dim)
    exact = read_back = refused = 0
    for _ in range(_rounds(300, dim)):
        v = sp.validate_ideal(space, sp.draw_ideal(space, rng))
        x = sp.draw_point(space, rng, float(rng.uniform(0.0, 20.0)))
        s = float(rng.uniform(0.0, 45.0))
        for p in (x, _mirrored(x)):
            assert repr(alpha(p, v)) == repr(loops.alpha(p, v))
            exact += p[0] > 2.0**12 and sp._left_sum(a * b for a, b in zip(p[1:], v[1:])) > 0.0
            got = _result_or_error(ray, v, p, s)
            assert got == _result_or_error(loops.ray, v, p, s)
            if isinstance(got, tuple):
                assert got[0] is GeometryError and f"s = {s!r} is too far out" in got[1]
                refused += 1
            else:
                read_back += ray(v, p, s)[0] > 2.0**39
    assert exact > 0 and read_back > 0 and (refused > 0 or dim == 1)


@pytest.mark.parametrize("dim, alpha, ray", READINGS)
def test_the_unrolled_readings_raise_as_the_generic_ones_do(dim, alpha, ray):
    """Points off the sheet, where alpha is not positive, and rays whose
    sinh s or lifted x0^2 overflows raise the loops' errors, with their
    messages, as do NaN and signed zeros."""
    space = sp.Space.hyperbolic(dim)
    xi = sp.validate_ideal(space, IdealPoint.null_vector((1.0, 1.0) + (0.0,) * (dim - 1)))
    spatial = [(0.0, 0.0), (5.0, 0.0), (-5.0, 0.0), (1e154, 0.0), (-1e154, 1e150), (3.0, -4.0)]
    raw = [(-1.0, 0.0, 0.0), (math.nan, 0.0, 0.0), (0.0, 0.0, 0.0), (-0.0, -0.0, 0.0),
           (1.0, 5.0, 0.0), (1.0, -0.0, -0.0)]
    messages = []
    for x in [_sheet(y, dim) for y in spatial] + [(r + (0.0,) * dim)[: dim + 1] for r in raw]:
        for q in (x, _mirrored(x)):
            got = _result_or_error(alpha, q, xi)
            assert got == _result_or_error(loops.alpha, q, xi)
            for s in (1.0, 30.0, 700.0, 710.4758600739439, 710.475860073944, 800.0, math.nan):
                got = _result_or_error(ray, xi, q, s)
                assert got == _result_or_error(loops.ray, xi, q, s)
                messages.append(got[1] if isinstance(got, tuple) else "")
    for error in ("off the hyperboloid sheet", "x0^2 = inf", "cosh(800.0) is out of range"):
        assert any(error in m for m in messages)


@pytest.mark.parametrize("dim", DIMS)
def test_the_compiled_sheet_check_is_the_generic_one(dim):
    """canonical_point's one-pass test of a plain point agrees with the
    loop reference on drawn points, their neighbours one ulp and one
    tolerance off the sheet, and points with a non-float, non-positive or
    non-finite entry."""
    space = sp.Space.hyperbolic(dim)
    on_sheet, rng = sp._hyperbolic(dim).on_sheet, sp.sub_rng(48, dim)
    seen = set()
    for scale in (1e-4, 2.0, 30.0, 300.0):
        x = sp.draw_point(space, rng, scale)
        off = x[:-1] + (x[-1] + 4e-9 * x[0],)
        ulp = (math.nextafter(x[0], math.inf),) + x[1:]
        for p in (x, off, ulp, (-x[0],) + x[1:], x[:-1] + (math.inf,), x[:-1] + (np.float64(x[-1]),),
                  (math.inf,) + x[1:], (math.nan,) + x[1:], (1,) + (0.0,) * dim):
            assert on_sheet(p) is loops.on_sheet(p)
            seen.add(on_sheet(p))
    assert seen == {False, True}


@settings(max_examples=300, deadline=None)
@given(
    seed=SEEDS,
    dim=st.sampled_from([2, 3]),
    exponent=st.floats(min_value=-6.0, max_value=math.log10(30.0)),
    kinds=st.lists(st.sampled_from(["far", "same", "ulp", "near"]), min_size=2, max_size=7),
    cut=st.integers(min_value=1, max_value=6),
)
def test_the_largest_measure_maps_to_the_largest_distance(seed, dim, exponent, kinds, cut):
    """`diameter` and `hausdorff` take the extreme quadrance and map only
    it to a distance.  That is the extreme of the per-pair distances, bit
    for bit, as long as libm's asinh is monotone: sets of 2 to 7 points at
    scale 1e-6 to 30, with duplicates, ulp neighbours and near points."""
    from horocenter.horosphere import ConvexBody
    from horocenter.lipschitz import hausdorff

    space = sp.Space.hyperbolic(dim)
    rng = np.random.default_rng(seed)
    points = [sp.draw_point(space, rng, 10.0**exponent)]
    for how in kinds[1:]:
        x = points[int(rng.integers(len(points)))]
        if how == "far":
            x = sp.draw_point(space, rng, 10.0**exponent)
        points.append(_partner(space, x, rng, how) if how in ("ulp", "near") else x)
    pairs = [sp.distance(space, p, q) for i, p in enumerate(points) for q in points[i + 1 :]]
    assert repr(sp.diameter(space, points)) == repr(max(pairs))

    cut = min(cut, len(points) - 1)
    a, b = ConvexBody.of(space, points[:cut]), ConvexBody.of(space, points[cut:])

    def directed(src, dst):
        return max(min(sp.distance(space, p, q) for q in dst) for p in src)

    want = max(directed(a.generators, b.generators), directed(b.generators, a.generators))
    assert repr(hausdorff(space, a, b)) == repr(want)


# -- accuracy against the 40-digit oracle -------------------------------------------


def test_the_oracle_measures_and_splits_geodesics():
    # checked in decimal's default 28 digits, far past any double
    tol = Decimal("1e-25")
    # asinh(3/4) = ln 2 exactly
    assert abs(oracle.distance((1.0, 0.0, 0.0), (1.25, 0.75, 0.0)) - Decimal(2).ln()) < tol
    x, y = (2.0, 1.0, -1.5), (3.0, -2.5, 0.5)
    d, p = oracle.distance(x, y), oracle.geodesic_point(x, y, 0.25)
    assert abs(oracle.distance(x, p) - d / 4) < tol
    assert abs(oracle.distance(p, y) - 3 * d / 4) < tol


@pytest.mark.parametrize("dim", [2, 3])
def test_geodesic_points_match_the_oracle_far_out(dim):
    # at radius 8 a point's x0^2 is near 1e6, so <v,v> for any float v
    # near the sheet carries only about 10 of its 16 digits
    space = sp.Space.hyperbolic(dim)
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(300):
        x, y = sp.draw_point(space, rng, 8.0), sp.draw_point(space, rng, 8.0)
        t = float(rng.random())
        got = sp.geodesic_point(space, x, y, t)
        worst = max(worst, oracle.distance(got, oracle.geodesic_point(x, y, t)))
    assert worst <= 1e-11


def test_near_points_take_the_short_branch(hyp3):
    x = sp.draw_point(hyp3, np.random.default_rng(3), 2.0)
    y = tuple(math.nextafter(c, math.inf) for c in x)
    assert 0.0 < sp.distance(hyp3, x, y) < 1e-14
    assert sp.geodesic_point(hyp3, x, y, 0.5) is x


@pytest.mark.parametrize("bad", [0, 1, 3])
@pytest.mark.parametrize("width", [3, 5])
def test_diameter_names_the_first_wrong_length_pair(hyp3, bad, width):
    rng = np.random.default_rng(bad)
    points = [sp.draw_point(hyp3, rng, 2.0) for _ in range(4)]
    points[bad] = points[bad][:width] + (0.5,) * (width - 4)
    points.append((1.0,))  # a later offender must not be the one named
    with pytest.raises(GeometryError) as expected:
        reference_diameter(hyp3, points)
    with pytest.raises(GeometryError) as got:
        sp.diameter(hyp3, points)
    assert str(got.value) == f"expected 4 coordinates, got {width}"
    with pytest.raises(GeometryError) as alone:  # one point: no pair, still refused
        sp.diameter(hyp3, points[bad : bad + 1])
    assert str(alone.value) == str(got.value)
