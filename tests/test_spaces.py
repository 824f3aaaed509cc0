import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from horocenter import GeometryError, IdealPoint, basepoint
from horocenter import spaces as sp
from horocenter.trees import TreePoint

from conftest import TREE_EDGES, TREE_LEAVES, ideal_for

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
    assert sp.busemann(euclid2, u, (0.0, 0.0), (2.0, 3.0)) == -2.0
    xi = IdealPoint.null_vector((1.0, 1.0, 0.0))
    o = basepoint(hyp2)
    for s in (0.5, 2.0, 7.0):
        x = (math.cosh(s), math.sinh(s), 0.0)
        assert sp.busemann(hyp2, xi, o, x) == pytest.approx(-s, abs=1e-9)
    end = IdealPoint.end("C")
    oT = basepoint(tree_space)  # vertex A, at tree distance 5 from C
    assert sp.busemann(tree_space, end, oT, oT) == 0.0
    assert sp.busemann(tree_space, end, oT, TreePoint("B-C", 1.0)) == -3.0
    oB = tree_space.tree.vertex_point("B")
    assert sp.busemann(tree_space, end, oB, TreePoint("B-C", 1.0)) == -1.0


def test_busemann_matches_definition_limit(any_space):
    xi = ideal_for(any_space)
    o = basepoint(any_space)
    rng = np.random.default_rng(7)
    for _ in range(25):
        x = sp.draw_point(any_space, rng, 2.0)
        closed = sp.busemann(any_space, xi, o, x)
        expected, tol = busemann_by_definition(any_space, xi, o, x)
        assert closed == pytest.approx(expected, abs=tol)


def test_basepoint_level_zero(any_space):
    xi = ideal_for(any_space)
    o = basepoint(any_space)
    assert sp.busemann(any_space, xi, o, o) == pytest.approx(0.0, abs=1e-12)


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
    o = basepoint(any_space)
    rng = np.random.default_rng(13)
    for _ in range(50):
        x = sp.draw_point(any_space, rng, scale)
        s = float(rng.uniform(0.0, 10.0))
        r = sp.ray_point(any_space, x, xi, s)
        drop = sp.busemann(any_space, xi, o, r) - sp.busemann(any_space, xi, o, x)
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


def test_hyperbolic_ray_is_the_exact_sum_rounded():
    # below s = 5 no rounding search runs: each component is the double
    # nearest fl(exp(-s)) x + fl(sinh(s)/alpha) xi, within one ulp
    for space, x, xi, s in _hyperbolic_ray_draws():
        alpha = -sp._mink_exact(x, xi.vector)
        decay, grow = Fraction(math.exp(-s)), Fraction(math.sinh(s) / alpha)
        r = sp.ray_point(space, x, xi, s)
        for c, a, n in zip(r, x, xi.vector):
            exact = decay * Fraction(a) + grow * Fraction(n)
            assert abs(Fraction(c) - exact) <= Fraction(math.ulp(float(exact)))


def test_hyperbolic_rays_do_not_depend_on_long_double(monkeypatch):
    # long double is plain double on Windows and macOS arm64
    draws = list(_hyperbolic_ray_draws())
    rays = [sp.ray_point(space, x, xi, 2.0 * s) for space, x, xi, s in draws]
    monkeypatch.setattr(np, "longdouble", np.float64)
    assert rays == [sp.ray_point(space, x, xi, 2.0 * s) for space, x, xi, s in draws]


def test_far_hyperbolic_rays_raise_naming_s():
    """The level of ray_point(x, xi, s) is alpha e^-s, and its coordinates
    grow like e^s; past s ~ 17 the level falls below their rounding.
    ray_point then raises naming s, and every point it does return keeps a
    level that busemann reads within a factor 2.  Over these draws (H^1 to
    H^7, s in [0, 20]) 25 points used to come back whose level busemann
    rejected as 'ideal vector points away from the sheet'."""
    raised = 0
    for dim in range(1, 8):
        space = sp.Space.hyperbolic(dim)
        o = basepoint(space)
        for seed in (1, 2, 3):
            rng = sp.sub_rng(seed, dim)
            for _ in range(100):
                x = sp.draw_point(space, rng, 2.0)
                xi = sp.draw_ideal(space, rng)
                s = float(rng.uniform(0.0, 20.0))
                try:
                    r = sp.ray_point(space, x, xi, s)
                except GeometryError as err:
                    assert f"s = {s!r} is too far out" in str(err)
                    assert s > 16.0
                    raised += 1
                    continue
                drop = sp.busemann(space, xi, o, r) - sp.busemann(space, xi, o, x)
                assert abs(drop + s) <= math.log(2.0)
    assert raised > 0


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_ray_drop_bound_holds_from_dimension_2(dim):
    """C07's ray-drop bound of 1e-7 (scale 1.25, s in [0, 10]) holds on
    H^2 to H^5 over seeds 7 to 9, at worst 8.3e-8.  H^1 misses it (2.13e-7
    at seed 8) because its two coordinates near 3.6e4 are rounded too
    coarsely to carry the level; see the README's numerical notes."""
    space = sp.Space.hyperbolic(dim)
    o = basepoint(space)
    for seed in (7, 8, 9):
        rng = sp.sub_rng(seed)
        for _ in range(500):
            x = sp.draw_point(space, rng, 1.25)
            xi = sp.draw_ideal(space, rng)
            s = float(rng.uniform(0.0, 10.0))
            r = sp.ray_point(space, x, xi, s)
            drop = sp.busemann(space, xi, o, r) - sp.busemann(space, xi, o, x)
            assert abs(drop + s) <= 1e-7


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


# -- random generation --------------------------------------------------------


def test_random_point_deterministic(any_space):
    assert sp.random_point(any_space, 42, 3.0) == sp.random_point(any_space, 42, 3.0)


def test_random_point_within_scale(any_space):
    o = basepoint(any_space)
    for seed in range(1000):
        p = sp.random_point(any_space, seed, 3.0)
        sp.validate_point(any_space, p)
        assert sp.distance(any_space, o, p) <= 3.0 + 1e-12


def test_random_shift_step_size(euclid3, hyp2):
    rng = np.random.default_rng(5)
    for space in (euclid3, hyp2):
        x = sp.draw_point(space, rng, 2.0)
        y = sp.random_shift(space, x, 0.25, rng)
        assert sp.distance(space, x, y) == pytest.approx(0.25, abs=1e-9)


def test_overflowing_hyperbolic_draws_name_their_parameter(hyp2):
    # cosh overflows past 710; these used to escape as OverflowError
    rng = sp.sub_rng(0)
    with pytest.raises(GeometryError, match=r"^scale = 1e\+300 overflows"):
        sp.draw_point(hyp2, rng, 1e300)
    with pytest.raises(GeometryError, match=r"^step = 1e\+308 overflows"):
        sp.random_shift(hyp2, basepoint(hyp2), 1e308, rng)


# -- validation ----------------------------------------------------------------


WITH_A_POINT = {
    "distance": lambda space, x: sp.distance(space, basepoint(space), x),
    "geodesic_point": lambda space, x: sp.geodesic_point(space, basepoint(space), x, 0.5),
    "busemann": lambda space, x: sp.busemann(space, ideal_for(space), basepoint(space), x),
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



def test_point_validation(euclid2, hyp2):
    with pytest.raises(GeometryError):
        sp.validate_point(euclid2, (1.0, 2.0, 3.0))
    with pytest.raises(GeometryError):
        sp.validate_point(hyp2, (1.0, 0.5, 0.0))  # off the sheet
    with pytest.raises(GeometryError):
        sp.validate_point(hyp2, (-1.0, 0.0, 0.0))  # wrong sheet


def test_far_hyperboloid_points_pass_the_relative_check(hyp2):
    # radius-9 draw (coordinates ~4e3) whose <x,x> misses -1 by 1.9e-9
    rng = sp.sub_rng(1, 4)
    sp.draw_point(hyp2, rng, 9.0)
    x = sp.draw_point(hyp2, rng, 9.0)
    assert abs(sp._mink(x, x) + 1.0) > sp.HYPERBOLOID_TOL
    sp.validate_point(hyp2, x)
    for off in ((x[0] * (1.0 + 1e-8),) + x[1:], (1e200, 0.0, 0.0)):
        with pytest.raises(GeometryError, match="off the hyperboloid"):
            sp.validate_point(hyp2, off)


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


def test_point_validation_rejects_non_finite(euclid2, hyp2):
    for space, p in (
        (euclid2, (math.nan, 0.0)),
        (euclid2, (0.0, -math.inf)),
        (hyp2, (1.0, math.nan, 0.0)),
        (hyp2, (math.inf, 0.0, 0.0)),
    ):
        with pytest.raises(GeometryError, match="finite"):
            sp.validate_point(space, p)


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


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS)
def test_busemann_is_1_lipschitz(any_space, seed):
    rng = np.random.default_rng(seed)
    xi = ideal_for(any_space)
    o = basepoint(any_space)
    x, y = (sp.draw_point(any_space, rng, 3.0) for _ in range(2))
    gap = abs(sp.busemann(any_space, xi, o, x) - sp.busemann(any_space, xi, o, y))
    assert gap <= sp.distance(any_space, x, y) + 1e-9


def test_euclidean_busemann_sums_left_to_right():
    # a compensated sum (Python 3.12's sum()) gives -5773502691896259.0
    space = sp.Space.euclidean(3)
    u = IdealPoint.direction((1.0, 1.0, 1.0))
    level = sp.busemann(space, u, (0.0, 0.0, 0.0), (1e16, 1.0, 1.0))
    assert level == -5773502691896260.0
    assert sp._left_sum([1.0, 1e100, 1.0, -1e100]) == 0.0


def test_dimension_one_spaces():
    line = sp.Space.euclidean(1)
    assert sp.distance(line, (0.0,), (4.0,)) == 4.0
    u = IdealPoint.direction((-1.0,))
    assert sp.busemann(line, u, (0.0,), (3.0,)) == 3.0
    hyp1 = sp.Space.hyperbolic(1)
    x = (math.cosh(0.5), math.sinh(0.5))
    y = (math.cosh(2.0), -math.sinh(2.0))
    assert sp.distance(hyp1, x, y) == pytest.approx(2.5, abs=1e-12)
    xi = sp.draw_ideal(hyp1, np.random.default_rng(0))
    o = basepoint(hyp1)
    r = sp.ray_point(hyp1, x, xi, 4.0)
    assert sp.busemann(hyp1, xi, o, r) == pytest.approx(
        sp.busemann(hyp1, xi, o, x) - 4.0, abs=1e-7
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
# per call and the hyperbolic formulas dropped their temporaries.  Every
# output of the current kernel must match it bit for bit.


def reference_distance(space, x, y):
    if space.kind == "euclidean":
        return math.dist(x, y)
    if space.kind == "hyperbolic":
        if len(x) != space.dim + 1 or len(y) != space.dim + 1:
            raise GeometryError(
                f"expected {space.dim + 1} coordinates, got {len(x)} and {len(y)}"
            )
        delta = tuple(a - b for a, b in zip(x, y))
        q = sp._mink(delta, delta)
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
    cm1 = 2.0 * math.sinh(0.5 * d) ** 2
    sh = math.sinh(d)
    tan = tuple(((b - a) - cm1 * a) / sh for a, b in zip(x, y))
    c, s = math.cosh(t * d), math.sinh(t * d)
    v = tuple(c * a + s * w for a, w in zip(x, tan))
    r = 1.0 / math.sqrt(-sp._mink(v, v))
    if v[0] < 0.0:
        r = -r
    return tuple(a * r for a in v)


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
    assert str(got.value) == str(expected.value)
    assert sp.diameter(hyp3, points[bad : bad + 1]) == 0.0  # one point: no pair
