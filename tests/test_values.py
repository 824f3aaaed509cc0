"""The library's records, each a `collections.namedtuple`: constructors,
repr, equality, hash and immutability.

Error messages embed these reprs, so they are pinned here.  A record
equals the plain tuple of its fields, and `len()` of a Configuration or a
ConvexBody counts its items or generators.  The field that `.of` checked
is marked for its space and behaves as a plain tuple; every copy of it
is a plain tuple, which the doors (`center_of_mass`, `select`) read again.
"""

import copy
import math
import pickle
import sys

import pytest

from horocenter import GeometryError, spaces
from horocenter.barycenter import BarycenterResult, Configuration, WeightedPoint, center_of_mass
from horocenter.horosphere import ConvexBody, SelectOptions, ShrinkClass, select
from horocenter.lipschitz import LipschitzReport, ScanParams, ScanRecord
from horocenter.spaces import MAX_DIM, IdealPoint, Space
from horocenter.trees import Tree, TreeEdge, TreeError, TreePoint

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


# -- records that .of built ----------------------------------------------------

H1, H2, H3 = (Space("hyperbolic", n) for n in (1, 2, 3))
ITEMS = [WeightedPoint((0.5, 0.25), 1.0), WeightedPoint((1.0, 2.0), 2.5)]
POINTS = [(0.5, 0.25), (1.5, 0.25)]  # the second is select's lone contact toward +x
TOWARD_E2 = IdealPoint.direction((1.0, 0.0))


def _built_and_raw():
    """(.of-built record, the raw-built record it equals, its door)."""
    return [
        (Configuration.of(E2, ITEMS), Configuration(tuple(ITEMS)), lambda c: center_of_mass(E2, c)),
        (ConvexBody.of(E2, POINTS), ConvexBody(tuple(POINTS)), lambda b: select(E2, b, TOWARD_E2)),
    ]


@pytest.mark.parametrize("k", [0, 1], ids=["Configuration", "ConvexBody"])
def test_an_of_built_record_is_its_raw_built_record(k):
    built, raw, _ = _built_and_raw()[k]
    field = built[0]
    assert type(field) is spaces._checked_tuple(E2, built._fields[0]) and type(raw[0]) is tuple
    assert repr(built) == repr(raw) and repr(field) == repr(raw[0])
    assert built == raw and raw == built and field == raw[0]
    assert hash(built) == hash(raw) and hash(field) == hash(raw[0])
    for copied in (copy.deepcopy(built), pickle.loads(pickle.dumps(built))):
        assert copied == raw and repr(copied) == repr(raw)
    assert copy.copy(built)[0] is field


@pytest.mark.parametrize("k", [0, 1], ids=["Configuration", "ConvexBody"])
def test_every_copy_of_a_checked_field_is_read_again(rule_calls, k):
    """The door reads an .of-built record with no rule call, and each of
    these with one call per point: a `_replace`d field, a pickle round
    trip, a deep copy, a slice and a `+`."""
    built, _, door = _built_and_raw()[k]
    name, field = built._fields[0], built[0]
    rule_calls.clear()
    door(built)
    assert rule_calls == []
    copies = [
        built._replace(**{name: (field[0],) + field[1:]}),
        pickle.loads(pickle.dumps(built)),
        copy.deepcopy(built),
        type(built)(field[:]),
        type(built)(field + ()),
    ]
    for other in copies:
        assert type(other[0]) is tuple and other == built
        rule_calls.clear()
        assert door(other) == door(built)
        assert len(rule_calls) == len(field)


def test_a_record_checked_in_another_space_is_read_again():
    """An E^2 record in H^1 (points of the same length), an H^2 record in
    H^3, and a body from one tree in a second tree where its point lies
    past its edge's end are each read through .of's loop, and refused."""
    config, body = Configuration.of(E2, ITEMS), ConvexBody.of(E2, POINTS)
    off_sheet = r"point is off the hyperboloid: <x,x> = -0\.1875$"
    with pytest.raises(GeometryError, match=rf"^points\[0\]: {off_sheet}"):
        center_of_mass(H1, config)
    with pytest.raises(GeometryError, match=rf"^generators\[0\]: {off_sheet}"):
        select(H1, body, IdealPoint.null_vector((1.0, 1.0)))
    sheet = [(1.0, 0.0, 0.0), (math.cosh(1.0), math.sinh(1.0), 0.0)]
    config, body = Configuration.of(H2, [(p, 1.0) for p in sheet]), ConvexBody.of(H2, sheet)
    with pytest.raises(GeometryError, match=r"^points\[0\]: expected 4 coordinates, got 3$"):
        center_of_mass(H3, config)
    with pytest.raises(GeometryError, match=r"^generators\[0\]: expected 4 coordinates, got 3$"):
        select(H3, body, IdealPoint.null_vector((1.0, 1.0, 0.0, 0.0)))
    long_ab = Space.tree_space([("A", "B", 2.0), ("B", "C", 1.0)], ["C"])
    short_ab = Space.tree_space([("A", "B", 1.0), ("B", "C", 1.0)], ["C"])
    body = ConvexBody.of(long_ab, [TreePoint("B-C", 0.5), TreePoint("A-B", 1.5)])
    with pytest.raises(TreeError, match=r"^generators\[1\]: "):
        select(short_ab, body, IdealPoint.end("C"))
    assert select(long_ab, body, IdealPoint.end("C")) == TreePoint("B-C", 0.5)


def test_a_field_checked_for_one_record_is_read_again_in_the_other():
    """Items and generators carry different marks: a body built on a
    configuration's checked items, and a configuration on a body's checked
    generators, are read through .of's loop at the door, and refused."""
    items, gens = Configuration.of(E2, ITEMS).items, ConvexBody.of(E2, POINTS).generators
    with pytest.raises(GeometryError, match=r"^generators\[0\]: point must be a tuple of floats$"):
        select(E2, ConvexBody(items), TOWARD_E2)
    with pytest.raises(GeometryError, match=r"^points\[0\]: point must be a tuple of floats$"):
        center_of_mass(E2, Configuration(gens))
