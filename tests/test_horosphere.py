import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from horocenter import GeometryError, IdealPoint, Space, basepoint, spaces as sp
from horocenter.barycenter import center_of_mass, unit_configuration
from horocenter.horosphere import (
    CONTACT_SLACK,
    NON_SHRINKING,
    SHRINKING,
    ConvexBody,
    SelectOptions,
    classify_body,
    first_horosphere,
    limit_separation,
    project_to_level,
    select,
    snap_singular,
)
from horocenter.lipschitz import ScanParams, body_case, hausdorff, selector_scan
from horocenter.trees import TreePoint

from conftest import TREE_EDGES, TREE_LEAVES, ideal_for


def common_level_body(space, xi, rng, n, scale=1.5):
    """Random generators projected onto one horosphere (the selector's C')."""
    raw = [sp.draw_point(space, rng, scale) for _ in range(n)]
    levels = [sp.busemann(space, xi, g) for g in raw]
    floor = min(levels)
    return ConvexBody.of(
        space, [project_to_level(space, g, xi, floor) for g in raw]
    )


# -- bodies ------------------------------------------------------------------


def test_body_dedup_and_diameter(euclid2):
    body = ConvexBody.of(euclid2, [(0.0, 0.0), (3.0, 4.0), (0.0, 0.0)])
    assert len(body) == 2
    assert sp.diameter(euclid2, body.generators) == 5.0


def test_body_dedup_across_tree_edges(tree_space):
    # the same vertex written on two incident edges is one generator
    body = ConvexBody.of(tree_space, [TreePoint("A-B", 2.0), TreePoint("B-C", 0.0)])
    assert len(body) == 1


@pytest.mark.parametrize(
    "name, bad, message",
    [
        ("euclid2", (1.0, 2.0, 3.0), "expected 2 coordinates, got 3"),
        ("hyp2", (2.0, 0.0, 0.0), r"point is off the hyperboloid: <x,x> = -4\.0"),
        ("tree_space", TreePoint("A-B", 5.0), "offset 5.0 beyond edge A-B of length 2.0"),
    ],
    ids=["euclid2", "hyp2", "tree"],
)
def test_body_names_the_generator_at_fault(name, bad, message, request):
    space = request.getfixturevalue(name)
    with pytest.raises(GeometryError, match=rf"^generators\[1\]: {message}$"):
        ConvexBody.of(space, [basepoint(space), bad])
    with pytest.raises(GeometryError, match=r"^generators: "):
        ConvexBody.of(space, [])


# -- first horosphere -----------------------------------------------------------


def test_first_horosphere_examples(euclid2):
    u = IdealPoint.direction((1.0, 0.0))
    body = ConvexBody.of(euclid2, [(0.0, 0.0), (2.0, 1.0)])
    level, contact = first_horosphere(euclid2, body, u)
    assert level == -2.0
    assert contact == [(2.0, 1.0)]

    single = ConvexBody.of(euclid2, [(5.0, 5.0)])
    level, contact = first_horosphere(euclid2, single, u)
    assert level == -5.0
    assert contact == [(5.0, 5.0)]


def test_first_horosphere_tie(euclid2):
    u = IdealPoint.direction((1.0, 0.0))
    body = ConvexBody.of(euclid2, [(1.0, 0.0), (1.0, 5.0), (1.0, -3.0)])
    _, contact = first_horosphere(euclid2, body, u)
    assert len(contact) == 3


# -- projection --------------------------------------------------------------------


def test_project_examples(euclid2):
    u = IdealPoint.direction((1.0, 0.0))
    assert project_to_level(euclid2, (0.0, 3.0), u, -2.0) == (2.0, 3.0)
    x = (4.0, 1.0)
    assert project_to_level(euclid2, x, u, sp.busemann(euclid2, u, x)) == x


def test_project_rejects_upward_moves(euclid2):
    u = IdealPoint.direction((1.0, 0.0))
    with pytest.raises(GeometryError):
        project_to_level(euclid2, (2.0, 0.0), u, 5.0)


def test_projection_level_and_idempotence(any_space):
    xi = ideal_for(any_space)
    rng = np.random.default_rng(31)
    for _ in range(60):
        x = sp.draw_point(any_space, rng, 1.5)
        t = sp.busemann(any_space, xi, x) - float(rng.uniform(0.0, 4.0))
        once = project_to_level(any_space, x, xi, t)
        assert sp.busemann(any_space, xi, once) == pytest.approx(t, abs=1e-7)
        twice = project_to_level(any_space, once, xi, t)
        assert sp.distance(any_space, once, twice) <= 1e-9


# -- the limit pseudometric -----------------------------------------------------------


def test_limit_separation_identical_points(any_space):
    xi = ideal_for(any_space)
    rng = np.random.default_rng(41)
    x = sp.draw_point(any_space, rng, 1.0)
    assert limit_separation(any_space, x, x, xi) == 0.0


def test_limit_separation_euclidean_constant(euclid2):
    u = IdealPoint.direction((1.0, 0.0))
    assert limit_separation(euclid2, (0.0, 0.0), (0.0, 1.0), u) == 1.0


def test_limit_separation_hyperbolic_same_level(hyp2):
    """Distinct points on one horosphere pull together exponentially."""
    xi = ideal_for(hyp2)
    rng = np.random.default_rng(52)
    for _ in range(20):
        body = common_level_body(hyp2, xi, rng, 2)
        if len(body) < 2:
            continue
        x, y = body.generators
        if sp.distance(hyp2, x, y) > 1.0:
            continue
        assert limit_separation(hyp2, x, y, xi) < 1e-6


def test_limit_separation_level_gap_floor(hyp2):
    """Points at different levels keep at least their level gap."""
    xi = ideal_for(hyp2)
    x = sp.draw_point(hyp2, np.random.default_rng(1), 1.0)
    y = sp.ray_point(hyp2, x, xi, 0.75)
    assert limit_separation(hyp2, x, y, xi) == pytest.approx(0.75, abs=1e-9)


def test_limit_separation_monotone_probes(any_space):
    xi = ideal_for(any_space)
    rng = np.random.default_rng(63)
    for _ in range(40):
        x = sp.draw_point(any_space, rng, 1.5)
        y = sp.draw_point(any_space, rng, 1.5)
        previous = sp.distance(any_space, x, y)
        for s in (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0):
            value = sp.ray_separation(any_space, x, y, xi, s)
            assert value <= previous + 1e-9
            previous = value


def test_lemma1_witness_euclidean(euclid2):
    """A geodesic segment inside a flat horosphere keeps its length."""
    u = IdealPoint.direction((1.0, 0.0))
    rng = np.random.default_rng(74)
    for _ in range(50):
        y0, y1 = float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3))
        x, y = (1.0, y0), (1.0, y1)  # both on the hyperplane b = -1
        value = limit_separation(euclid2, x, y, u)
        assert value == pytest.approx(abs(y0 - y1), abs=1e-9)


def test_hyperbolic_horospheres_carry_no_segments(hyp2):
    """Contrast witness: same-level hyperbolic pairs shrink instead."""
    xi = ideal_for(hyp2)
    rng = np.random.default_rng(85)
    found = 0
    for _ in range(30):
        body = common_level_body(hyp2, xi, rng, 2, scale=0.8)
        if len(body) < 2:
            continue
        x, y = body.generators
        assert limit_separation(hyp2, x, y, xi) < 1e-6
        found += 1
    assert found >= 20


# -- classification --------------------------------------------------------------------


def test_classify_euclidean_nondegenerate(euclid2):
    u = IdealPoint.direction((1.0, 0.0))
    body = ConvexBody.of(euclid2, [(0.0, 0.0), (0.0, 1.0), (0.0, 2.0)])
    verdict = classify_body(euclid2, body, u)
    assert verdict.verdict == NON_SHRINKING
    assert verdict.max_limit_separation == pytest.approx(2.0, abs=1e-12)


def test_classify_hyperbolic_common_level(hyp2):
    xi = ideal_for(hyp2)
    body = common_level_body(hyp2, xi, np.random.default_rng(96), 4, scale=0.8)
    verdict = classify_body(hyp2, body, xi)
    assert verdict.verdict == SHRINKING
    assert verdict.max_limit_separation < 1e-6


def test_classify_tree_exact_zero(tree_space):
    xi = IdealPoint.end("C")
    rng = np.random.default_rng(107)
    raw = [sp.draw_point(tree_space, rng, 3.0) for _ in range(4)]
    levels = [sp.busemann(tree_space, xi, g) for g in raw]
    floor = min(levels)
    body = ConvexBody.of(
        tree_space, [project_to_level(tree_space, g, xi, floor) for g in raw]
    )
    verdict = classify_body(tree_space, body, xi)
    assert verdict.verdict == SHRINKING
    assert verdict.max_limit_separation == 0.0


def test_classification_dichotomy(any_space):
    xi = ideal_for(any_space)
    rng = np.random.default_rng(118)
    for _ in range(10):
        body = ConvexBody.of(
            any_space, [sp.draw_point(any_space, rng, 1.5) for _ in range(3)]
        )
        verdict = classify_body(any_space, body, xi)
        assert verdict.verdict in (SHRINKING, NON_SHRINKING)


def count_kernel(monkeypatch) -> Counter:
    """Count, from here on, the pairs spaces.horofunction builds, the
    levels and rays read through them, and the _checked_null calls."""
    counts = Counter()
    horofunction, checked_null = sp.horofunction, sp._checked_null

    def counted(space, xi):
        counts["built"] += 1
        level, ray = horofunction(space, xi)

        def counted_level(x):
            counts["level"] += 1
            return level(x)

        def counted_ray(x, s):
            counts["ray"] += 1
            return ray(x, s)

        return counted_level, counted_ray

    def counted_null(v):
        counts["checked_null"] += 1
        return checked_null(v)

    monkeypatch.setattr(sp, "horofunction", counted)
    monkeypatch.setattr(sp, "_checked_null", counted_null)
    return counts


@pytest.mark.parametrize("name", ["hyp2", "tree"])
def test_classify_reads_one_level_per_generator(name, monkeypatch):
    space = ORACLE_SPACES[name]
    xi = ideal_for(space)
    rng = np.random.default_rng(131)
    body = ConvexBody.of(space, [sp.draw_point(space, rng, 2.0) for _ in range(6)])
    assert len(body) == 6
    counts = count_kernel(monkeypatch)
    verdict = classify_body(space, body, xi)
    assert counts["level"] == 6
    pairs = [
        limit_separation(space, x, y, xi)
        for i, x in enumerate(body.generators)
        for y in body.generators[i + 1 :]
    ]
    assert verdict.max_limit_separation == max(pairs)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_classify_rejects_bad_tol(euclid2, tol):
    body = ConvexBody.of(euclid2, [(0.0, 0.0), (0.0, 1.0)])
    with pytest.raises(GeometryError, match="classify_tol must be positive"):
        classify_body(euclid2, body, ideal_for(euclid2), tol)


def test_long_tree_edges_same_level_shrink():
    # both generators sit 150 from B, so their rays toward C merge at B
    # and the limit separation is 0, though no ray gets there by s = 64
    space = Space.tree_space(
        [("A", "B", 200.0), ("B", "C", 3.0), ("B", "D", 200.0)], ["C"]
    )
    xi = IdealPoint.end("C")
    body = ConvexBody.of(space, [TreePoint("A-B", 50.0), TreePoint("B-D", 150.0)])
    verdict = classify_body(space, body, xi)
    assert verdict.verdict == SHRINKING
    assert verdict.max_limit_separation == 0.0
    assert select(space, body, xi) == space.tree.vertex_point("B")


ORACLE_SPACES = {
    "euclid2": Space.euclidean(2),
    "hyp2": Space.hyperbolic(2),
    "hyp3": Space.hyperbolic(3),
    "tree": Space.tree_space(TREE_EDGES, TREE_LEAVES),
}


@pytest.mark.parametrize("name", sorted(ORACLE_SPACES))
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1), same_level=st.booleans())
def test_limit_separation_matches_far_ray_separation(name, seed, same_level):
    """The closed form agrees with the ray separation evaluated far out."""
    space = ORACLE_SPACES[name]
    rng = np.random.default_rng(seed)
    xi = sp.draw_ideal(space, rng)
    x, y = (sp.draw_point(space, rng, 2.0) for _ in range(2))
    if same_level:
        x, y = sorted((x, y), key=lambda p: sp.busemann(space, xi, p))
        y = project_to_level(space, y, xi, sp.busemann(space, xi, x))
    value = limit_separation(space, x, y, xi)
    if space.kind == "euclidean":
        assert value == sp.ray_separation(space, x, y, xi, 64.0)
        return
    if space.kind == "hyperbolic":
        assume(sp.distance(space, x, y) <= 4.0)
        far = 64.0
    else:
        # past both depths toward the end, both rays run on the leaf edge
        far = max(space.tree.depth_toward_end(p, xi.leaf) for p in (x, y))
    probe = sp.ray_separation(space, x, y, xi, far)
    if value == 0.0:
        assert probe <= CONTACT_SLACK + 1e-12
    else:
        assert value > CONTACT_SLACK
        assert abs(value - probe) <= 1e-12


def _projected_body_case(name, scale, seed, index, toward_first=False):
    """A 5-generator scan body, an ideal point, and the body's generators
    projected onto its first horosphere, as `select` projects them.

    The ideal point is drawn apart from the body, or in H^n points along
    the ray from the basepoint through the first generator, which leaves
    the longest rays down to the first horosphere (up to 2 * scale).
    """
    space = ORACLE_SPACES[name]
    body, _ = body_case(ScanParams(space, n_points=5, seed=seed, scale=scale), index)
    xi = sp.draw_ideal(space, sp.sub_rng(seed, 2**63 - 1))
    if toward_first and space.kind == "hyperbolic":
        spatial = body.generators[0][1:]
        assume(any(spatial))
        xi = IdealPoint.null_vector((math.hypot(*spatial),) + spatial)
    level, _ = first_horosphere(space, body, xi)
    projected = [project_to_level(space, g, xi, level) for g in body.generators]
    return space, body, xi, projected


@pytest.mark.parametrize("scale", [2.0, 5.0, 8.0])
@pytest.mark.parametrize("name", ["hyp2", "hyp3", "tree"])
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    index=st.integers(0, 999),
    toward_first=st.booleans(),
)
def test_projected_bodies_shrink_off_flat_space(name, scale, seed, index, toward_first):
    """In H^n and on a tree every body projected onto its first horosphere
    shrinks: the projection leaves a level spread within CONTACT_SLACK,
    the tie rule, and the classification reads exactly 0."""
    space, _, xi, projected = _projected_body_case(name, scale, seed, index, toward_first)
    levels = [sp.busemann(space, xi, p) for p in projected]
    assert max(levels) - min(levels) <= CONTACT_SLACK
    verdict = classify_body(space, ConvexBody.of(space, projected), xi)
    assert (verdict.verdict, verdict.max_limit_separation) == (SHRINKING, 0.0)


@pytest.mark.parametrize("scale", [2.0, 5.0, 8.0])
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1), index=st.integers(0, 999))
def test_projected_euclidean_bodies_do_not_shrink(scale, seed, index):
    """In E^2 a projected body keeps its spread across xi, so a body that
    is not on one line parallel to xi never shrinks."""
    space, body, xi, projected = _projected_body_case("euclid2", scale, seed, index)
    u, v = xi.vector
    across = [y * u - x * v for x, y in body.generators]
    spread = max(across) - min(across)
    assume(spread > 1e-3)
    verdict = classify_body(space, ConvexBody.of(space, projected), xi)
    assert verdict.verdict == NON_SHRINKING
    assert verdict.max_limit_separation == pytest.approx(spread, rel=1e-9)


# -- smoothing -----------------------------------------------------------------------


def test_snap_identity_in_smooth_spaces(euclid2, hyp2):
    assert snap_singular(euclid2, (1.0, 2.0)) == (1.0, 2.0)
    x = (math.cosh(0.3), math.sinh(0.3), 0.0)
    assert snap_singular(hyp2, x) == x


def test_snap_tree_branch_vertex(tree_space):
    near = TreePoint("B-C", 5e-5)  # within the default band around B
    snapped = snap_singular(tree_space, near)
    tree = tree_space.tree
    assert tree.canonical(snapped) == tree.vertex_point("B")
    mid = TreePoint("B-C", 1.5)
    assert snap_singular(tree_space, mid) == mid


@pytest.mark.parametrize("snap_tol", [0.0, -1.0, math.nan, math.inf])
def test_snap_rejects_bad_tol(tree_space, snap_tol):
    with pytest.raises(GeometryError, match="snap_tol must be positive and finite"):
        snap_singular(tree_space, TreePoint("B-C", 1.5), snap_tol)


# the conftest tree without its end E, so A is a plain leaf
TREE_C = [("A", "B", 2.0), ("B", "C", 3.0), ("B", "D", 1.5)]


@pytest.mark.parametrize(
    "x, message",
    [
        ((math.nan, 0.0, 0.0), r"^point coordinates must be finite, got \(nan, 0\.0, 0\.0\)$"),
        ((1.0, 5.0, 0.0), r"^point is off the hyperboloid: <x,x> = 24\.0$"),
        ([1.0, 0.0, 0.0], "^point must be a tuple of floats$"),
        ((1.0, 0.0), "^expected 3 coordinates, got 2$"),
    ],
)
def test_snap_refuses_what_the_point_rule_refuses(hyp2, x, message):
    with pytest.raises(GeometryError, match=message):
        snap_singular(hyp2, x)


@pytest.mark.parametrize(
    "x, message",
    [
        (TreePoint("A-B", 99.0), r"^offset 99\.0 beyond edge A-B of length 2\.0$"),
        (TreePoint("A-B", math.nan), "^non-finite offset on edge A-B$"),
    ],
)
def test_snap_refuses_a_tree_point_off_its_edge(x, message):
    with pytest.raises(GeometryError, match=message):
        snap_singular(Space.tree_space(TREE_C, ["C"]), x)


# -- the selector ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "space, gens, xi, message",
    [
        (
            Space.hyperbolic(2),
            ((1.0, 0.0, 0.0), (1.0, 5.0, 0.0)),  # the second is the lone contact
            IdealPoint.null_vector((1.0, 1.0, 0.0)),
            r"^generators\[1\]: point is off the hyperboloid: <x,x> = 24\.0$",
        ),
        (
            Space.hyperbolic(2),
            ((1.0, 5.0, 0.0),),
            IdealPoint.null_vector((1.0, 1.0, 0.0)),
            r"^generators\[0\]: point is off the hyperboloid: <x,x> = 24\.0$",
        ),
        (
            Space.euclidean(2),
            ((math.nan, 0.0),),
            IdealPoint.direction((1.0, 0.0)),
            r"^generators\[0\]: point coordinates must be finite, got \(nan, 0\.0\)$",
        ),
        (
            Space.tree_space(TREE_C, ["C"]),
            (TreePoint("A-B", 99.0),),
            IdealPoint.end("C"),
            r"^generators\[0\]: offset 99\.0 beyond edge A-B of length 2\.0$",
        ),
    ],
    ids=["H2-contact", "H2-singleton", "E2-singleton", "tree-singleton"],
)
def test_select_returns_no_point_the_point_rule_refuses(space, gens, xi, message):
    """A body built past ConvexBody.of: the generator select would return
    as it is passes the point rule first, and a refusal names it."""
    with pytest.raises(GeometryError, match=message):
        select(space, ConvexBody(gens), xi)


def test_select_singleton_short_circuits(any_space):
    xi = ideal_for(any_space)
    rng = np.random.default_rng(129)
    for _ in range(25):
        x = sp.draw_point(any_space, rng, 2.0)
        body = ConvexBody.of(any_space, [x])
        got = select(any_space, body, xi)
        assert sp.distance(any_space, got, x) == 0.0


def test_select_singleton_checks_the_ideal(any_space):
    """One generator or two, an ideal point foreign to the space is an error."""
    if any_space.kind == "tree":
        wrong = IdealPoint.end("D")  # a plain leaf, not a marked end
    else:
        wrong = IdealPoint.direction((1.0,) * (any_space.dim + 2))
    rng = np.random.default_rng(131)
    points = [sp.draw_point(any_space, rng, 2.0) for _ in range(2)]
    for gens in (points[:1], points):
        with pytest.raises(GeometryError):
            select(any_space, ConvexBody.of(any_space, gens), wrong)


def test_select_square_pipeline(euclid2):
    u = IdealPoint.direction((1.0, 0.0))
    body = ConvexBody.of(euclid2, [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
    got = select(euclid2, body, u)
    assert got == pytest.approx((1.0, 0.5), abs=1e-9)


def test_select_tree_contact(tree_space):
    xi = IdealPoint.end("C")
    # generators on two branches; the one nearer the end is the contact
    body = ConvexBody.of(
        tree_space, [TreePoint("B-D", 1.0), TreePoint("A-B", 0.5)]
    )
    got = select(tree_space, body, xi)
    assert got == TreePoint("B-D", 1.0)


def test_select_merges_tied_contacts(tree_space):
    # two generators at equal depth below B on different branches tie for
    # first contact; their unit-mass center is exactly the branch vertex
    xi = IdealPoint.end("C")
    body = ConvexBody.of(
        tree_space, [TreePoint("B-D", 0.8), tree_space.tree.point_toward("B", 0, 0.8)]
    )
    got = select(tree_space, body, xi, opts=SelectOptions(smoothing=False))
    assert sp.distance(tree_space, got, tree_space.tree.vertex_point("B")) == 0.0


def test_select_hyperbolic_returns_contact(hyp2):
    xi = ideal_for(hyp2)
    rng = np.random.default_rng(140)
    gens = [sp.draw_point(hyp2, rng, 1.5) for _ in range(4)]
    body = ConvexBody.of(hyp2, gens)
    levels = [sp.busemann(hyp2, xi, g) for g in gens]
    expected = gens[int(np.argmin(levels))]
    assert sp.distance(hyp2, select(hyp2, body, xi), expected) == 0.0


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="select returns the lowest generator, which jumps at a contact tie",
)
def test_select_does_not_jump_at_a_contact_tie(hyp2):
    """Two generators at one level, 0.13600 toward xi = (1, 1, 0): lowering
    either by eta along its ray moves the body by about eta in Hausdorff
    distance, but select returns the lowered generator, so its output
    jumps the whole distance between them (1.7626, a ratio of 17,626 at
    eta = 1e-4).  A Lipschitz selector moves by O(eta)."""
    xi = IdealPoint.null_vector((1.0, 1.0, 0.0))
    a, b = (sp._lift([0.3, y], "y", y) for y in (1.0, -1.0))
    assert sp.busemann(hyp2, xi, a) == sp.busemann(hyp2, xi, b)
    eta = 1e-4
    lower_a = select(hyp2, ConvexBody.of(hyp2, [sp.ray_point(hyp2, a, xi, eta), b]), xi)
    lower_b = select(hyp2, ConvexBody.of(hyp2, [a, sp.ray_point(hyp2, b, xi, eta)]), xi)
    assert sp.distance(hyp2, lower_a, lower_b) <= 10.0 * eta


def select_by_stages(space, body, xi, opts=SelectOptions()):
    """select composed from its public stages, each checking its own input."""
    level, contact = first_horosphere(space, body, xi)
    projected = [project_to_level(space, g, xi, level) for g in body.generators]
    verdict = classify_body(space, ConvexBody(tuple(projected)), xi, opts.classify_tol)
    points = contact if verdict.verdict == SHRINKING else projected
    if len(points) == 1:
        picked = points[0]
    else:
        config = unit_configuration(space, points)
        picked = center_of_mass(space, config, opts.tol, opts.max_iters, len(points)).center
    return snap_singular(space, picked, opts.snap_tol) if opts.smoothing else picked


@pytest.mark.parametrize("name", sorted(ORACLE_SPACES))
def test_select_is_its_stages_bit_for_bit(name):
    space = ORACLE_SPACES[name]
    rng = sp.sub_rng(47)
    for k in range(40):
        gens = [sp.draw_point(space, rng, 2.0) for _ in range(2 + k % 5)]
        xi = sp.draw_ideal(space, rng)
        for order in (gens, gens[::-1]):
            body = ConvexBody.of(space, order)
            assert repr(select(space, body, xi)) == repr(select_by_stages(space, body, xi))


def test_select_checks_xi_once_and_reads_each_level_once_per_stage(hyp2, monkeypatch):
    # one level per generator for the sweep, which the projection reuses,
    # and one per projected generator for the classification
    xi = ideal_for(hyp2)
    rng = sp.sub_rng(48)
    body = ConvexBody.of(hyp2, [sp.draw_point(hyp2, rng, 2.0) for _ in range(6)])
    counts = count_kernel(monkeypatch)
    select(hyp2, body, xi)
    assert counts == {"built": 1, "level": 12, "ray": 6, "checked_null": 1}


def test_selector_scan_checks_xi_once_and_selects_as_select_does(hyp2, monkeypatch):
    # one pair serves all 8 samples, each of which is select's answer
    xi = ideal_for(hyp2)
    params = ScanParams(space=hyp2, samples=8, seed=5, ideal=xi)
    expected = []
    for i in range(params.samples):
        body, perturbed = body_case(params, i)
        out = sp.distance(hyp2, select(hyp2, body, xi), select(hyp2, perturbed, xi))
        expected.append((i, hausdorff(hyp2, body, perturbed), out))
    counts = count_kernel(monkeypatch)
    report = selector_scan(params)
    assert counts["built"] == 1 and counts["checked_null"] == 1
    assert repr([r[:3] for r in report.records]) == repr(expected)


@pytest.mark.parametrize(
    "dim, w", [(1, (-1.0,)), (2, (1.0, 0.0)), (3, (0.0, 0.6, -0.8))], ids=["H1", "H2", "H3"]
)
def test_select_projects_far_generators_off_the_line_toward_xi(dim, w):
    # at radius 29 x0 is past 2^39, but away from the line toward xi a
    # level is large and its rounding small: projection goes through
    space = Space.hyperbolic(dim)
    xi = IdealPoint.null_vector((1.0,) + (0.0,) * (dim - 1) + (1.0,))
    gens = [
        sp._lift([math.sinh(r) * c for c in w], "r", r) for r in (29.0, 29.02, 29.05)
    ]
    body = ConvexBody.of(space, gens)
    t, _ = first_horosphere(space, body, xi)
    for g in gens[1:]:
        p = project_to_level(space, g, xi, t)
        assert p[0] > 2.0**39
        assert abs(sp.busemann(space, xi, p) - t) <= 1e-7
    assert select(space, body, xi) == gens[0]


def test_select_smoothing_toggle(tree_space):
    xi = IdealPoint.end("C")
    tree = tree_space.tree
    body = ConvexBody.of(
        tree_space, [TreePoint("B-D", 1.45e-5), TreePoint("A-B", 2.0 - 3e-5)]
    )
    raw = select(tree_space, body, xi, opts=SelectOptions(smoothing=False))
    assert tree.canonical(raw) not in {tree.vertex_point(v) for v in tree.vertices}
    smoothed = select(tree_space, body, xi, opts=SelectOptions(smoothing=True))
    assert tree.canonical(smoothed) == tree.vertex_point("B")
