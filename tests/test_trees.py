import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horocenter import Space, spaces
from horocenter.trees import Tree, TreeError, TreePoint

from conftest import TREE_EDGES, TREE_LEAVES


@pytest.fixture(scope="module")
def tree():
    return Tree(TREE_EDGES, TREE_LEAVES)


def test_topology_validation():
    with pytest.raises(TreeError):
        Tree([])
    with pytest.raises(TreeError):
        Tree([("A", "B", 0.0)])
    with pytest.raises(TreeError):
        Tree([("A", "A", 1.0)])
    with pytest.raises(TreeError):
        Tree([("A", "B", 1.0), ("B", "A", 2.0)])
    # cycle: 3 vertices, 3 edges
    with pytest.raises(TreeError):
        Tree([("A", "B", 1.0), ("B", "C", 1.0), ("C", "A", 1.0)])
    # forest: 4 vertices, 2 edges
    with pytest.raises(TreeError):
        Tree([("A", "B", 1.0), ("C", "D", 1.0), ("A", "C", 1.0), ("B", "D", 1.0)])
    with pytest.raises(TreeError):
        Tree([("A", "B", 1.0)], ideal_leaves=["Z"])
    with pytest.raises(TreeError):
        Tree([("A", "B", 1.0), ("B", "C", 1.0)], ideal_leaves=["B"])


def test_point_validation(tree):
    tree.canonical(TreePoint("A-B", 1.0))
    with pytest.raises(TreeError):
        tree.canonical(TreePoint("A-Z", 0.5))
    with pytest.raises(TreeError):
        tree.canonical(TreePoint("A-B", 2.5))  # A-B has length 2, B not a marked end
    with pytest.raises(TreeError):
        tree.canonical(TreePoint("A-B", -0.5))
    # extensions allowed past marked ends only
    tree.canonical(TreePoint("B-C", 7.0))
    with pytest.raises(TreeError):
        tree.canonical(TreePoint("B-D", 7.0))


def test_vertex_canonicalization(tree):
    # vertex B is incident to A-B (index 0), B-C, B-D; lowest index wins
    assert tree.canonical(TreePoint("B-C", 0.0)) == TreePoint("A-B", 2.0)
    assert tree.canonical(TreePoint("B-D", 0.0)) == TreePoint("A-B", 2.0)
    assert tree.canonical(TreePoint("A-B", 2.0)) == TreePoint("A-B", 2.0)
    # interior points unchanged
    assert tree.canonical(TreePoint("B-C", 1.0)) == TreePoint("B-C", 1.0)
    assert tree.canonical(TreePoint("B-C", 3.0)) == tree.vertex_point("C")
    interior = tree.canonical(TreePoint("B-C", 1.7))
    assert interior not in {tree.vertex_point(v) for v in tree.vertices}


def test_distance_path_composition(tree):
    # legs composed through B: 1.5 + 1.0, frozen by hand from the topology
    assert tree.distance(TreePoint("A-B", 0.5), TreePoint("B-C", 1.0)) == 2.5
    assert tree.distance(TreePoint("A-B", 1.5), TreePoint("B-C", 1.0)) == 1.5
    # same edge
    assert tree.distance(TreePoint("A-B", 0.25), TreePoint("A-B", 1.75)) == 1.5
    # through two vertices: E..A..B..D
    assert tree.distance(TreePoint("A-E", 1.0), TreePoint("B-D", 1.5)) == 1.0 + 2.0 + 1.5
    # coincident points written on different edges
    assert tree.distance(TreePoint("A-B", 2.0), TreePoint("B-C", 0.0)) == 0.0


def test_distance_on_extensions(tree):
    far = TreePoint("B-C", 5.0)  # 2 past C
    assert tree.distance(far, TreePoint("B-C", 1.0)) == 4.0
    assert tree.distance(far, TreePoint("A-B", 2.0)) == 5.0
    farther = TreePoint("B-C", 9.0)
    assert tree.distance(far, farther) == 4.0


def test_walk_matches_distance(tree):
    rng = np.random.default_rng(11)
    pts = []
    for _ in range(40):
        e = tree.edges[int(rng.integers(len(tree.edges)))]
        pts.append(TreePoint(e.eid, float(rng.uniform(0, e.length))))
    for i in range(0, 38, 2):
        p, q = pts[i], pts[i + 1]
        d = tree.distance(p, q)
        for t in (0.0, 0.3, 0.8, 1.0):
            m = tree.walk(p, q, t * d)
            assert tree.distance(p, m) == pytest.approx(t * d, abs=1e-12)
            assert tree.distance(p, m) + tree.distance(m, q) == pytest.approx(d, abs=1e-12)


def test_ray_runs_to_the_end(tree):
    p = TreePoint("A-E", 0.5)
    # path to C: 0.5 back to A, 2 to B, then out the C edge
    r = tree.ray(p, "C", 0.5)
    assert tree.canonical(r) == tree.vertex_point("A")
    r = tree.ray(p, "C", 2.5)
    assert tree.canonical(r) == tree.vertex_point("B")
    r = tree.ray(p, "C", 5.5)
    assert tree.canonical(r) == tree.vertex_point("C")
    r = tree.ray(p, "C", 7.5)
    assert r == TreePoint("B-C", 5.0)
    # starting on the leaf edge itself
    assert tree.ray(TreePoint("B-C", 1.0), "C", 4.0) == TreePoint("B-C", 5.0)


def test_depth_toward_end(tree):
    assert tree.depth_toward_end(TreePoint("B-C", 1.0), "C") == 2.0
    assert tree.depth_toward_end(TreePoint("B-C", 5.0), "C") == -2.0
    assert tree.depth_toward_end(TreePoint("A-B", 0.0), "C") == 5.0


def test_nearest_branch_vertex(tree):
    vertex, d = tree.nearest_branch_vertex(TreePoint("B-C", 0.25))
    assert vertex == "B"
    assert d == 0.25


def test_walk_between_extension_points(tree):
    # C and E are both marked ends; cross the whole tree between their
    # extensions: 2 beyond C, C..B (3), B..A (2), A..E (1), 1.5 beyond E
    p = TreePoint("B-C", 5.0)
    q = TreePoint("A-E", 2.5)
    d = tree.distance(p, q)
    assert d == 2.0 + 3.0 + 2.0 + 1.0 + 1.5
    for t in (0.1, 0.5, 0.9):
        m = tree.walk(p, q, t * d)
        assert tree.distance(p, m) == pytest.approx(t * d, abs=1e-12)
        assert tree.distance(m, q) == pytest.approx((1 - t) * d, abs=1e-12)


def test_random_walk_shift_moves_the_right_distance(tree):
    rng = np.random.default_rng(3)
    p = TreePoint("A-B", 1.0)
    for _ in range(200):
        q = tree.random_walk_shift(p, 0.7, rng)
        # dead ends at D may stop the walk short, never overshoot
        assert tree.distance(p, q) <= 0.7 + 1e-12
    moved = [tree.random_walk_shift(p, 0.3, np.random.default_rng(k)) for k in range(50)]
    assert all(math.isclose(tree.distance(p, q), 0.3) for q in moved)


@st.composite
def marked_trees(draw):
    """A random tree on 4-12 vertices with one marked leaf.

    Lengths are k/30 with 15 not dividing k, so none is dyadic and
    reordered sums round differently.
    """
    n = draw(st.integers(4, 12))
    lengths = st.integers(3, 89).filter(lambda k: k % 15).map(lambda k: k / 30)
    edges = [
        (f"V{i}", f"V{draw(st.integers(0, i - 1))}", draw(lengths)) for i in range(1, n)
    ]
    ends = [v for e in edges for v in e[:2]]
    leaf = draw(st.sampled_from(sorted(v for v in set(ends) if ends.count(v) == 1)))
    return Space.tree_space(edges, [leaf])


@settings(max_examples=100, deadline=None)
@given(space=marked_trees(), seed=st.integers(0, 2**32 - 1))
def test_random_tree_metric_is_symmetric_to_the_bit(space, seed):
    tree = space.tree
    for a in tree.vertices:
        for b in tree.vertices:
            assert tree._dist[a][b] == tree._dist[b][a]
    (leaf,) = tree.ideal_leaves
    rng = np.random.default_rng(seed)
    for _ in range(20):
        p = spaces.draw_point(space, rng, 3.0)
        # some points lie out on the marked leaf's extension
        q = spaces.draw_point(space, rng, 3.0)
        q = tree.ray(q, leaf, 6.0 * float(rng.random()))
        d = tree.distance(p, q)
        assert d == tree.distance(q, p)
        assert tree.distance(tree.walk(p, q, d), q) <= 1e-12


def test_point_toward_refuses_an_edge_off_the_vertex(tree_space):
    tree = tree_space.tree
    with pytest.raises(TreeError, match=r"^edge B-C is not incident to 'A'$"):
        tree.point_toward("A", 1, 0.5)


@pytest.mark.parametrize("end", ["C", "C1"])
def test_a_bare_string_of_ideal_leaves_is_refused(end):
    """A string would mark its characters: "AC" marked A and C with no
    error, and a leaf named "C1" failed as an unknown leaf 'C'."""
    edges = [("A", "B", 1.0), ("B", end, 2.0)]
    for leaves in ("A" + end, end):
        message = rf"^ideal_leaves must be a collection of names, got '{leaves}'$"
        with pytest.raises(TreeError, match=message):
            Tree(edges, leaves)
    assert Tree(edges, [end]).ideal_leaves == {end}


def test_vertex_point_refuses_an_unknown_vertex(tree_space):
    tree = tree_space.tree
    assert tree.vertex_point("E") == tree.end("E")[2]
    with pytest.raises(TreeError, match=r"^unknown vertex 'Z'$"):
        tree.vertex_point("Z")


# the conftest tree with every edge reversed: its marked leaves C and E
# become the first vertices of their edges, so offsets fall outward
FLIPPED_EDGES = [(v, u, length) for u, v, length in TREE_EDGES]


def test_each_marked_leaf_keeps_its_orientation():
    for edges, outward in ((TREE_EDGES, 1.0), (FLIPPED_EDGES, -1.0)):
        tree = Tree(edges, TREE_LEAVES)
        assert list(tree.ends) == sorted(TREE_LEAVES)
        for leaf in TREE_LEAVES:
            edge, sign, _ = tree.end(leaf)
            assert leaf in (edge.u, edge.v)
            assert sign == outward
    with pytest.raises(TreeError, match=r"^'D' is not a marked ideal leaf$"):
        tree.end("D")


@settings(max_examples=150, deadline=None)
@given(
    space=st.one_of(
        marked_trees(),
        st.sampled_from(
            [Space.tree_space(edges, TREE_LEAVES) for edges in (TREE_EDGES, FLIPPED_EDGES)]
        ),
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_rays_descend_their_end_at_unit_rate(space, seed):
    """Whichever vertex of its edge a marked leaf is, a ray toward its
    end lowers the depth by its length, starts at its point, and the
    end's anchor is the leaf's vertex point."""
    tree = space.tree
    rng = spaces.sub_rng(seed)
    for leaf in tree.ends:
        assert tree.end(leaf)[2] == tree.vertex_point(leaf)
        assert spaces.busemann(space, spaces.IdealPoint.end(leaf), tree.basepoint) == 0.0
        for _ in range(10):
            p = spaces.draw_point(space, rng, 3.0)
            # half the points lie out on the marked leaf's extension
            for q in (p, tree.ray(p, leaf, 6.0 * float(rng.random()))):
                s = 6.0 * float(rng.random())
                depth = tree.depth_toward_end(q, leaf)
                moved = tree.depth_toward_end(tree.ray(q, leaf, s), leaf)
                assert abs(moved - (depth - s)) <= 1e-12 * (1.0 + abs(depth))
                assert tree.ray(q, leaf, 0.0) == q


def test_a_random_walk_stops_at_an_unmarked_leaf(tree):
    class Heading:  # integers(2) heads toward the edge's second vertex
        def integers(self, n):
            return 1

    shifted = tree.random_walk_shift(TreePoint("B-D", 1.0), 2.0, Heading())
    assert shifted == tree.vertex_point("D")
