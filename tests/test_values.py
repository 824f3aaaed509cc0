"""The library's records, each a `collections.namedtuple`: constructors,
repr, equality, hash and immutability.

Error messages embed these reprs, so they are pinned here.  A record
equals the plain tuple of its fields, and `len()` of a Configuration or a
ConvexBody counts its items or generators.
"""

import copy
import pickle
import sys

import pytest

from horocenter import GeometryError
from horocenter.barycenter import BarycenterResult, Configuration, WeightedPoint
from horocenter.horosphere import ConvexBody, SelectOptions, ShrinkClass
from horocenter.lipschitz import LipschitzReport, ScanParams, ScanRecord
from horocenter.spaces import MAX_DIM, IdealPoint, Space
from horocenter.trees import Tree, TreeEdge, TreePoint

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
LISTS = (BarycenterResult, LipschitzReport)  # their list fields are unhashable


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
    assert obj == tuple(fields.values())
    assert obj.__eq__(object()) is NotImplemented
    assert copy.deepcopy(obj) == obj
    assert pickle.loads(pickle.dumps(obj)) == obj
    if cls in LISTS:
        with pytest.raises(TypeError, match="unhashable"):
            hash(obj)
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


@pytest.mark.parametrize(
    "cls, fields, text, change", CASES, ids=[case[0].__name__ for case in CASES]
)
def test_records_are_named_tuples(cls, fields, text, change):
    """Each record is a tuple of its fields, in order, whose class its home
    module holds under its name, where pickling looks it up; `_make` and
    `_replace` rebuild it."""
    obj = cls(*fields.values())
    assert isinstance(obj, tuple) and cls._fields == tuple(fields)
    assert list(obj) == [obj[i] for i in range(len(fields))] == list(fields.values())
    assert cls.__module__.startswith("horocenter.") and cls.__qualname__ == cls.__name__
    assert getattr(sys.modules[cls.__module__], cls.__name__) is cls
    assert cls._make(fields.values()) == obj
    assert obj._replace(**dict([change])) == cls(**dict(fields, **dict([change])))


def test_space_checks_what_replace_and_make_give_it():
    with pytest.raises(GeometryError, match=rf"^dim must lie in \[1, {MAX_DIM}\], got 0$"):
        Space.hyperbolic(2)._replace(dim=0)
    with pytest.raises(GeometryError, match="^kind must be euclidean, hyperbolic or tree, got 'bogus'$"):
        Space._make(("bogus", 2, None))
    assert Space.hyperbolic(2)._replace(dim=3) == Space.hyperbolic(3)


def test_len_counts_items_and_generators():
    config = Configuration((UNIT, UNIT, UNIT))
    body = ConvexBody(((0.0, 0.0), (1.0, 0.0)))
    assert (len(config), len(body)) == (3, 2)
    assert tuple(config) == ((UNIT, UNIT, UNIT),) and tuple(body) == (body.generators,)
