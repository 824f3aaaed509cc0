import pytest

from horocenter import GeometryError, IdealPoint, Space, spaces
from horocenter.barycenter import Configuration

# Shared desk-scale tree: B is a branch vertex (degree 3); C and E are
# marked ends, D is a plain leaf.
TREE_EDGES = [("A", "B", 2.0), ("B", "C", 3.0), ("B", "D", 1.5), ("A", "E", 1.0)]
TREE_LEAVES = ["C", "E"]


@pytest.fixture(scope="session")
def euclid2():
    return Space.euclidean(2)


@pytest.fixture(scope="session")
def euclid3():
    return Space.euclidean(3)


@pytest.fixture(scope="session")
def hyp2():
    return Space.hyperbolic(2)


@pytest.fixture(scope="session")
def hyp3():
    return Space.hyperbolic(3)


@pytest.fixture(scope="session")
def tree_space():
    return Space.tree_space(TREE_EDGES, TREE_LEAVES)


@pytest.fixture(params=["euclid2", "euclid3", "hyp2", "tree"], scope="session")
def any_space(request, euclid2, euclid3, hyp2, tree_space):
    return {
        "euclid2": euclid2,
        "euclid3": euclid3,
        "hyp2": hyp2,
        "tree": tree_space,
    }[request.param]


@pytest.fixture
def rule_calls(monkeypatch):
    """The points that spaces.canonical_point, the point rule, is called
    on, in order, while the test runs."""
    calls, rule = [], spaces.canonical_point

    def counted(space, p):
        calls.append(p)
        return rule(space, p)

    monkeypatch.setattr(spaces, "canonical_point", counted)
    return calls


def ideal_for(space) -> IdealPoint:
    """A fixed, valid ideal point for any of the fixture spaces."""
    if space.kind == "euclidean":
        return IdealPoint.direction((1.0,) + (0.0,) * (space.dim - 1))
    if space.kind == "hyperbolic":
        return IdealPoint.null_vector((1.0, 1.0) + (0.0,) * (space.dim - 1))
    return IdealPoint.end(sorted(space.tree.ideal_leaves)[0])


# -- sampling helpers that only the tests use ------------------------------------


def random_point(space, seed: int, scale: float):
    """One point within distance `scale` of the basepoint, from stream seed."""
    return spaces.draw_point(space, spaces.sub_rng(seed), scale)


def hull_sample(space, config, depth: int, seed: int) -> list:
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


def permuted(config, order):
    """The configuration with its items reordered, past Configuration.of."""
    items = config.items
    return Configuration(tuple(items[i] for i in order))
