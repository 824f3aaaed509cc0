import math

import pytest

from horocenter import jsonio, spaces
from horocenter.barycenter import WeightedPoint, center_of_mass, unit_configuration
from horocenter.jsonio import InputError
from horocenter.lipschitz import ScanParams, point_shift_scan
from horocenter.spaces import IdealPoint, Space
from horocenter.trees import Tree, TreePoint

from conftest import TREE_EDGES, TREE_LEAVES


def test_space_round_trip():
    for doc, space in (
        ({"space": "euclidean", "dim": 3}, Space.euclidean(3)),
        ({"space": "hyperbolic", "dim": 2}, Space.hyperbolic(2)),
    ):
        assert jsonio.space_from_json(jsonio.loads(jsonio.dumps(doc))) == space
    doc = {
        "space": "tree",
        "edges": [list(e) for e in TREE_EDGES],
        "ideal_leaves": TREE_LEAVES,
        "basepoint": ["B-C", 1.0],
    }
    space = jsonio.space_from_json(jsonio.loads(jsonio.dumps(doc)))
    tree = space.tree
    assert space.kind == "tree"
    assert [(e.u, e.v, e.length) for e in tree.edges] == TREE_EDGES
    assert tree.ideal_leaves == frozenset(TREE_LEAVES)
    assert tree.basepoint == TreePoint("B-C", 1.0)
    del doc["basepoint"]
    assert jsonio.space_from_json(doc).tree.basepoint == TreePoint("A-B", 0.0)


def test_space_errors():
    with pytest.raises(InputError, match="space"):
        jsonio.space_from_json({"dim": 2})
    with pytest.raises(InputError, match="dim"):
        jsonio.space_from_json({"space": "euclidean"})
    with pytest.raises(InputError, match="dim"):
        jsonio.space_from_json({"space": "euclidean", "dim": 0})
    with pytest.raises(InputError, match="edges"):
        jsonio.space_from_json({"space": "tree"})
    with pytest.raises(InputError, match="edges\\[0\\]"):
        jsonio.space_from_json({"space": "tree", "edges": [["A", "B"]]})
    with pytest.raises(InputError, match="unknown kind"):
        jsonio.space_from_json({"space": "spherical", "dim": 2})


@pytest.mark.parametrize(
    "offset, message",
    [
        ("x", "must be a number"),
        ("0.5", "must be a number"),
        (None, "must be a number"),
        (True, "must be a number"),
        (math.nan, "must be finite"),
        (10**400, "must be finite"),
    ],
)
def test_tree_basepoint_offset_is_a_finite_number(offset, message):
    doc = {"space": "tree", "edges": [["A", "B", 2.0]], "basepoint": ["A-B", offset]}
    with pytest.raises(InputError, match=rf"space\.basepoint\[1\]: {message}"):
        jsonio.space_from_json(doc)


def test_huge_integer_coordinate_and_mass_are_not_finite():
    eu = Space.euclidean(2)
    with pytest.raises(InputError, match=r"point\.coords\[0\]: must be finite"):
        jsonio.point_from_json(eu, {"coords": [10**400, 0]})
    doc = {"points": [{"coords": [0, 0], "mass": 10**400}]}
    with pytest.raises(InputError, match=r"points\[0\]\.mass: must be finite"):
        jsonio.configuration_from_json(eu, doc)


def test_point_round_trip():
    eu = Space.euclidean(2)
    assert jsonio.point_from_json(eu, {"coords": [1.0, 2.0]}) == (1.0, 2.0)
    assert jsonio.point_from_json(eu, [1, 2]) == (1.0, 2.0)
    tr = Space.tree_space(TREE_EDGES, TREE_LEAVES)
    p = TreePoint("A-B", 0.5)
    assert jsonio.point_from_json(tr, jsonio.point_to_json(tr, p)) == p
    with pytest.raises(InputError, match="coords"):
        jsonio.point_from_json(eu, {"coords": ["x", 2]})
    with pytest.raises(InputError, match="edge"):
        jsonio.point_from_json(tr, {"offset": 0.5})


def test_ideal_round_trip():
    eu = Space.euclidean(2)
    hyp = Space.hyperbolic(2)
    tr = Space.tree_space(TREE_EDGES, TREE_LEAVES)
    for space, doc, expected in (
        (eu, {"direction": [3.0, 4.0]}, IdealPoint(vector=(0.6, 0.8))),
        (hyp, {"null_vector": [1.0, 1.0, 0.0]}, IdealPoint(vector=(1.0, 1.0, 0.0))),
        (tr, {"end_leaf": "C"}, IdealPoint(leaf="C")),
    ):
        xi = jsonio.ideal_from_json(space, doc)
        assert xi == expected
    with pytest.raises(InputError, match="direction / null_vector / end_leaf"):
        jsonio.ideal_from_json(eu, {})


def test_non_finite_input_names_its_field():
    eu = Space.euclidean(2)
    hyp = Space.hyperbolic(2)
    tr = Space.tree_space(TREE_EDGES, TREE_LEAVES)
    doc = jsonio.loads('{"points": [{"coords": [0, 0], "mass": 1},'
                       ' {"coords": [1, NaN], "mass": 1}]}')
    with pytest.raises(InputError, match=r"configuration\.points\[1\]\.coords\[1\]: must be finite"):
        jsonio.configuration_from_json(eu, doc)
    with pytest.raises(InputError, match=r"body\.generators\[0\]\.offset: must be finite"):
        jsonio.body_from_json(tr, {"generators": [{"edge": "A-B", "offset": float("inf")}]})
    # each component is parsed like a coordinate, so an int past the
    # double range is named instead of escaping as an OverflowError
    for space, doc, field in (
        (hyp, {"null_vector": [1.0, float("nan"), 0.0]}, r"null_vector\[1\]: must be finite"),
        (hyp, {"null_vector": [1.0, 0.5, 0.0]}, ""),
        (eu, {"direction": [float("nan"), 1.0]}, r"direction\[0\]: must be finite"),
        (eu, {"direction": [0.0, 0.0]}, ""),
        (hyp, {"null_vector": ["a", 1.0, 0.0]}, r"null_vector\[0\]: must be a number"),
        (hyp, {"null_vector": [1, True, 0]}, r"null_vector\[1\]: must be a number"),
        (eu, {"direction": [10**400, 0]}, r"direction\[0\]: must be finite"),
        (hyp, {"null_vector": [1, -(10**400), 0]}, r"null_vector\[1\]: must be finite"),
    ):
        with pytest.raises(InputError, match=f"^ideal: {field}"):
            jsonio.ideal_from_json(space, doc)


def test_configuration_round_trip_and_errors():
    eu = Space.euclidean(2)
    doc = {"points": [{"coords": [0.0, 0.0], "mass": 1.0},
                      {"coords": [1.0, 2.0], "mass": 2.5}]}
    config = jsonio.configuration_from_json(eu, doc)
    assert config.items == (
        WeightedPoint((0.0, 0.0), 1.0),
        WeightedPoint((1.0, 2.0), 2.5),
    )
    with pytest.raises(InputError, match="mass"):
        jsonio.configuration_from_json(eu, {"points": [{"coords": [0, 0]}]})
    with pytest.raises(InputError, match="mass"):
        jsonio.configuration_from_json(
            eu, {"points": [{"coords": [0, 0], "mass": -2}]}
        )
    with pytest.raises(InputError, match="points"):
        jsonio.configuration_from_json(eu, {})


def _count_calls(monkeypatch, owner, name):
    """A list that grows by one entry per call of owner.name."""
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_each_point_passes_one_gate(monkeypatch):
    tr = Space.tree_space(TREE_EDGES, TREE_LEAVES)
    hyp = Space.hyperbolic(2)
    tree_checks = _count_calls(monkeypatch, Tree, "validate")
    sheet_checks = _count_calls(monkeypatch, spaces, "_mink")
    gens = [{"edge": "A-B", "offset": 0.5}, {"edge": "B-C", "offset": 0.0},
            {"edge": "B-D", "offset": 1.0}]
    jsonio.body_from_json(tr, {"generators": gens})
    assert len(tree_checks) == 3
    jsonio.configuration_from_json(
        tr, {"points": [dict(g, mass=1.0) for g in gens]}
    )
    assert len(tree_checks) == 6
    coords = [[1.0, 0.0, 0.0], [1.5430806348152437, 1.1752011936438014, 0.0]]
    jsonio.body_from_json(hyp, {"generators": coords})
    assert len(sheet_checks) == 2


def test_body_round_trip():
    tr = Space.tree_space(TREE_EDGES, TREE_LEAVES)
    doc = {"generators": [{"edge": "A-B", "offset": 0.5},
                          {"edge": "B-C", "offset": 1.0}]}
    body = jsonio.body_from_json(tr, doc)
    assert body.generators == (TreePoint("A-B", 0.5), TreePoint("B-C", 1.0))
    with pytest.raises(InputError, match="generator"):
        jsonio.body_from_json(tr, {"generators": []})


def test_result_round_trip_and_trace():
    eu = Space.euclidean(2)
    config = unit_configuration(eu, [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    result = center_of_mass(eu, config)
    doc = jsonio.loads(jsonio.dumps(jsonio.result_to_json(eu, result)))
    assert doc == {
        "center": {"coords": list(result.center)},
        "iterations": result.iterations,
        "converged": True,
        "diameter_trace": result.diameter_trace,
    }
    csv = jsonio.trace_csv(result)
    lines = csv.strip().splitlines()
    assert lines[0] == "iter,diameter"
    assert len(lines) == len(result.diameter_trace) + 1
    assert lines[1].startswith("0,")


def test_singleton_trace_row():
    eu = Space.euclidean(2)
    result = center_of_mass(eu, unit_configuration(eu, [(7.0, -2.0)]))
    assert jsonio.trace_csv(result) == "iter,diameter\n0,0.0\n"


def test_report_round_trip():
    eu = Space.euclidean(2)
    report = point_shift_scan(
        ScanParams(space=eu, n_points=3, samples=20, epsilon=0.05, seed=1)
    )
    doc = jsonio.loads(jsonio.dumps(jsonio.report_to_json(report)))
    assert doc == {
        "records": [
            {"sample": r.sample, "in_disp": r.in_disp, "out_disp": r.out_disp, "ratio": r.ratio}
            for r in report.records
        ],
        "summary": {
            "max_ratio": report.max_ratio,
            "mean_ratio": report.mean_ratio,
            "failures": report.failures,
            "skipped": report.skipped,
        },
    }
    assert report.records and "straddle_ratios" not in doc
    csv = jsonio.report_csv(report)
    lines = csv.strip().splitlines()
    assert lines[0] == "sample,in_disp,out_disp,ratio"
    assert len(lines) == len(report.records) + 1


def test_invalid_json_named():
    with pytest.raises(InputError, match="invalid JSON"):
        jsonio.loads("{not json", "configuration")


def test_dumps_is_strict_json():
    assert jsonio.dumps({"b": 1.5, "a": [0.0]}) == '{"a":[0.0],"b":1.5}\n'
    for bad in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError):
            jsonio.dumps({"diameter": bad})
