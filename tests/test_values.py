"""The library's value types: constructors, repr, equality, hash and
mutability.

Error messages embed these reprs, and `lipschitz.selector_scan` sets
`straddle` on a report it has built, so both are pinned here.
"""

import copy
import pickle

import pytest

from horocenter import GeometryError
from horocenter.barycenter import BarycenterResult, Configuration, WeightedPoint
from horocenter.horosphere import ConvexBody, SelectOptions, ShrinkClass
from horocenter.lipschitz import LipschitzReport, ScanParams, ScanRecord
from horocenter.spaces import MAX_DIM, IdealPoint, Space
from horocenter.trees import Tree, TreeEdge, TreePoint
from horocenter.values import Frozen

E2 = Space("euclidean", 2)
UNIT = WeightedPoint((0.0,), 1.0)
RECORD = ScanRecord(0, 0.1, 0.05, 0.5)

# (class, fields in constructor order, repr, one field changed)
CASES = [
    (
        TreePoint,
        {"edge": "A-B", "offset": 0.5},
        "TreePoint(edge='A-B', offset=0.5)",
        ("offset", 0.25),
    ),
    (
        TreeEdge,
        {"u": "A", "v": "B", "length": 2.0, "eid": "A-B", "index": 0},
        "TreeEdge(u='A', v='B', length=2.0, eid='A-B', index=0)",
        ("index", 1),
    ),
    (
        Space,
        {"kind": "euclidean", "dim": 2, "tree": None},
        "Space(kind='euclidean', dim=2, tree=None)",
        ("dim", 3),
    ),
    (
        IdealPoint,
        {"vector": None, "leaf": "C"},
        "IdealPoint(vector=None, leaf='C')",
        ("leaf", "E"),
    ),
    (
        WeightedPoint,
        {"point": (0.0, 1.0), "mass": 2.0},
        "WeightedPoint(point=(0.0, 1.0), mass=2.0)",
        ("mass", 1.0),
    ),
    (
        Configuration,
        {"items": (UNIT,)},
        "Configuration(items=(WeightedPoint(point=(0.0,), mass=1.0),))",
        ("items", (UNIT, UNIT)),
    ),
    (
        BarycenterResult,
        {"center": (0.0, 0.0), "iterations": 3, "diameter_trace": [1.0, 0.5], "converged": True},
        "BarycenterResult(center=(0.0, 0.0), iterations=3, diameter_trace=[1.0, 0.5], "
        "converged=True)",
        ("converged", False),
    ),
    (
        ConvexBody,
        {"generators": ((0.0, 0.0), (1.0, 0.0))},
        "ConvexBody(generators=((0.0, 0.0), (1.0, 0.0)))",
        ("generators", ((0.0, 0.0),)),
    ),
    (
        ShrinkClass,
        {"verdict": "shrinking", "max_limit_separation": 0.0},
        "ShrinkClass(verdict='shrinking', max_limit_separation=0.0)",
        ("verdict", "non-shrinking"),
    ),
    (
        SelectOptions,
        {
            "tol": 1e-8,
            "max_iters": 200,
            "classify_tol": 1e-6,
            "snap_tol": 1e-4,
            "smoothing": True,
        },
        "SelectOptions(tol=1e-08, max_iters=200, classify_tol=1e-06, snap_tol=0.0001, "
        "smoothing=True)",
        ("smoothing", False),
    ),
    (
        ScanParams,
        {
            "space": E2,
            "n_points": 4,
            "samples": 100,
            "epsilon": 0.05,
            "seed": 0,
            "tol": 1e-08,
            "max_iters": 200,
            "smoothing": True,
            "ideal": None,
            "scale": 2.0,
        },
        "ScanParams(space=Space(kind='euclidean', dim=2, tree=None), n_points=4, "
        "samples=100, epsilon=0.05, seed=0, tol=1e-08, max_iters=200, smoothing=True, "
        "ideal=None, scale=2.0)",
        ("seed", 1),
    ),
    (
        LipschitzReport,
        {
            "records": [RECORD],
            "max_ratio": 0.5,
            "mean_ratio": 0.5,
            "failures": 0,
            "skipped": 0,
            "straddle": None,
        },
        "LipschitzReport(records=[ScanRecord(sample=0, in_disp=0.1, out_disp=0.05, "
        "ratio=0.5)], max_ratio=0.5, mean_ratio=0.5, failures=0, skipped=0, straddle=None)",
        ("straddle", [0.0, 1.0]),
    ),
]
MUTABLE = (BarycenterResult, LipschitzReport)


@pytest.mark.parametrize(
    "cls, fields, text, change", CASES, ids=[case[0].__name__ for case in CASES]
)
def test_value_type_contract(cls, fields, text, change):
    obj = cls(*fields.values())
    assert repr(obj) == text
    assert cls(**fields) == obj
    assert [getattr(obj, name) for name in fields] == list(fields.values())
    other = cls(**dict(fields, **{change[0]: change[1]}))
    assert other != obj
    assert obj != tuple(fields.values())
    assert obj.__eq__(object()) is NotImplemented
    assert copy.deepcopy(obj) == obj
    assert pickle.loads(pickle.dumps(obj)) == obj
    if cls in MUTABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(obj)
        setattr(obj, *change)
        assert obj == other
    else:
        assert hash(obj) == hash(tuple(fields.values()))
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
            with pytest.raises(AttributeError):
                delattr(obj, name)
        assert repr(obj) == text


def test_defaults_fill_keyword_construction():
    assert SelectOptions() == SelectOptions(1e-8, 200, 1e-6, 1e-4, True)
    assert ScanParams(E2) == ScanParams(E2, 4, 100, 0.05, 0, 1e-8, 200, True, None, 2.0)
    assert IdealPoint() == IdealPoint(None, None)
    assert Space("tree", tree=Tree([("A", "B", 1.0)])).dim == 0
    assert LipschitzReport([], 0.0, 0.0, 0, 0).straddle is None


@pytest.mark.parametrize(
    "kind, dim", [("euclidean", 0), ("hyperbolic", MAX_DIM + 1), ("euclidean", -1)]
)
def test_space_checks_its_dim(kind, dim):
    with pytest.raises(GeometryError, match=rf"dim must lie in \[1, {MAX_DIM}\], got {dim}$"):
        Space(kind, dim)


@pytest.mark.parametrize(
    "args, message",
    [
        (("bogus", 2), r"^kind must be euclidean, hyperbolic or tree, got 'bogus'$"),
        (("hyperbolic", 2.5), r"^dim must be an integer, got 2\.5$"),
        (("euclidean", 2.0), r"^dim must be an integer, got 2\.0$"),
        (("euclidean", True), r"^dim must be an integer, got True$"),
        (("tree",), r"^tree must be a Tree in a tree space, got None$"),
        (("tree", 0, "A-B"), r"^tree must be a Tree in a tree space, got 'A-B'$"),
    ],
)
def test_space_refuses_what_it_cannot_serve(args, message):
    with pytest.raises(GeometryError, match=message):
        Space(*args)


def test_scan_record_is_a_named_tuple():
    assert RECORD == (0, 0.1, 0.05, 0.5)
    assert RECORD._fields == ("sample", "in_disp", "out_disp", "ratio")
    assert RECORD._asdict() == {"sample": 0, "in_disp": 0.1, "out_disp": 0.05, "ratio": 0.5}


class _Parent(Frozen):
    __slots__ = ("a",)


class _Child(_Parent):
    __slots__ = ("b",)
    _defaults = {"b": 0}


def test_a_subclass_keeps_its_parents_fields():
    """A record subclass that adds slots takes its parent's fields first:
    it builds, prints, compares and hashes them, and its defaults extend
    its parent's."""
    child = _Child(1, 2)
    assert (child.a, child.b) == (1, 2) and _Child._fields == ("a", "b")
    assert repr(child) == "_Child(a=1, b=2)"
    assert child != _Child(3, 2) and hash(child) != hash(_Child(3, 2))
    assert _Child(a=1) == _Child(1, 0)
    assert pickle.loads(pickle.dumps(child)) == child
