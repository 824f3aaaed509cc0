"""Record constructors derived from ``__slots__`` and ``_defaults``: the
signatures, names and failures that callers see."""

import inspect

import pytest

from horocenter import barycenter, horosphere, lipschitz, spaces, trees
from horocenter.values import Frozen, Value

REQUIRED = inspect.Parameter.empty

# every record's parameters, in order, with their defaults
SIGNATURES = {
    barycenter.WeightedPoint: [("point", REQUIRED), ("mass", REQUIRED)],
    barycenter.Configuration: [("items", REQUIRED)],
    barycenter.BarycenterResult: [
        ("center", REQUIRED), ("iterations", REQUIRED), ("diameter_trace", REQUIRED),
        ("converged", REQUIRED),
    ],
    spaces.IdealPoint: [("vector", None), ("leaf", None)],
    spaces.Space: [("kind", REQUIRED), ("dim", 0), ("tree", None)],
    horosphere.ConvexBody: [("generators", REQUIRED)],
    horosphere.ShrinkClass: [("verdict", REQUIRED), ("max_limit_separation", REQUIRED)],
    horosphere.SelectOptions: [
        ("tol", 1e-08), ("max_iters", 200), ("classify_tol", 1e-06), ("snap_tol", 0.0001),
        ("smoothing", True),
    ],
    lipschitz.ScanParams: [
        ("space", REQUIRED), ("n_points", 4), ("samples", 100), ("epsilon", 0.05),
        ("seed", 0), ("tol", 1e-08), ("max_iters", 200), ("smoothing", True),
        ("ideal", None), ("scale", 2.0),
    ],
    lipschitz.LipschitzReport: [
        ("records", REQUIRED), ("max_ratio", REQUIRED), ("mean_ratio", REQUIRED),
        ("failures", REQUIRED), ("skipped", REQUIRED), ("straddle", None),
    ],
    trees.TreeEdge: [
        ("u", REQUIRED), ("v", REQUIRED), ("length", REQUIRED), ("eid", REQUIRED),
        ("index", REQUIRED),
    ],
    trees.TreePoint: [("edge", REQUIRED), ("offset", REQUIRED)],
}


@pytest.mark.parametrize("cls", SIGNATURES, ids=lambda cls: cls.__name__)
def test_signature_names_order_and_defaults(cls):
    params = inspect.signature(cls).parameters.values()
    assert [(p.name, p.default) for p in params] == SIGNATURES[cls]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)


def test_only_space_writes_its_constructor():
    """Every record but Space, which checks its dim, takes the generated
    constructor, and the generated ones read as methods of their class."""
    for cls in SIGNATURES:
        init = cls.__init__
        assert init.__qualname__ == f"{cls.__qualname__}.__init__"
        assert init.__module__ == cls.__module__
        if cls is not spaces.Space:
            assert init.__code__.co_filename == "<string>", cls


def test_a_missing_field_names_the_class():
    with pytest.raises(TypeError, match=r"^TreePoint\.__init__\(\) missing 1 required"):
        trees.TreePoint("A-B")


@pytest.mark.parametrize("base", [Value, Frozen])
def test_generated_constructors_set_mutable_and_frozen_fields(base):
    class Pair(base):
        __slots__ = ("a", "b")
        _defaults = {"b": 2}

    pair = Pair(1)
    assert (pair.a, pair.b) == (1, 2)
    assert Pair(b=3, a=1) == Pair(1, 3)


@pytest.mark.parametrize("defaults", [{"a": 1}, {"c": 1}, {"a": 1, "b": 2, "c": 3}])
def test_defaults_must_be_trailing_fields(defaults):
    with pytest.raises(TypeError, match=r"\.Pair\._defaults must name trailing fields$"):

        class Pair(Frozen):
            __slots__ = ("a", "b")
            _defaults = defaults
