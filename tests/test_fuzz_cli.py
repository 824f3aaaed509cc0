"""Mutated input documents against the CLI's exit-code contract.

Each example takes a valid space, configuration or body document (bodies
carry their ideal point), breaks it in a few places -- a value of the
wrong type, a dropped field, a NaN or Infinity token, a string -- and
runs barycenter, select or classify in-process.  The run must return 0,
1 or 2 without an exception escaping, and a return of 0 must have
written strict JSON.  Dimensions stay at most 4 and documents hold at
most 4 points, so each example takes milliseconds.
"""

import contextlib
import copy
import io
import json
import math
import os
import tempfile

from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from horocenter.cli import main

TREE = {
    "space": "tree",
    "edges": [["A", "B", 2.0], ["B", "C", 3.0], ["B", "D", 1.5]],
    "ideal_leaves": ["C"],
    "basepoint": ["A-B", 0.0],
}
H2_POINTS = [[1.0, 0.0, 0.0], [1.5430806348152437, 1.1752011936438014, 0.0]]
CASES = {
    "euclidean": (
        {"space": "euclidean", "dim": 2},
        [{"coords": [0.0, 0.0]}, {"coords": [1.0, 0.0]}, {"coords": [0.0, 1.0]}],
        {"direction": [1.0, 0.0]},
    ),
    "hyperbolic": (
        {"space": "hyperbolic", "dim": 2},
        [{"coords": c} for c in H2_POINTS],
        {"null_vector": [1.0, 1.0, 0.0]},
    ),
    "tree": (
        TREE,
        [{"edge": "A-B", "offset": 0.5}, {"edge": "B-D", "offset": 1.0}],
        {"end_leaf": "C"},
    ),
}

SCALARS = st.one_of(
    st.sampled_from([None, True, "0.5", "NaN", "A-B", ""]),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.sampled_from([10**400, -(10**400), 1e308]),
    st.integers(-2, 4),
    st.floats(-4.0, 4.0),
    st.text(max_size=4),
)
_DROP = object()
KEYS = st.sampled_from(["coords", "edge", "offset", "mass"])
JUNK = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(KEYS, inner, max_size=3),
    max_leaves=6,
)


def _documents(kind, command):
    space, points, ideal = CASES[kind]
    if command == "barycenter":
        points = [dict(p, mass=1.0 + i) for i, p in enumerate(points)]
        return space, {"points": points}
    return space, {"generators": points, "ideal": ideal}


def _paths(value, prefix=()):
    yield prefix
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, prefix + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _paths(item, prefix + (i,))


def _edited(doc, path, value=_DROP):
    """A copy of doc with the value at path replaced, or dropped."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is _DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _mutated(draw, doc):
    """doc with up to three values replaced by junk or fields dropped."""
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        drop = path and draw(st.booleans())
        doc = _edited(doc, path, _DROP if drop else draw(JUNK))
    return doc


@st.composite
def cases(draw):
    """(command, space document, input document) with one of them mutated."""
    kind = draw(st.sampled_from(sorted(CASES)))
    command = draw(st.sampled_from(["barycenter", "select", "classify"]))
    space, doc = _documents(kind, command)
    if draw(st.booleans()):
        space = _mutated(draw, space)
        dim = space.get("dim") if isinstance(space, dict) else None
        assume(not isinstance(dim, int) or dim <= 4)
    else:
        doc = _mutated(draw, doc)
    return command, space, doc


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def _crash(kind, command, target, path, value):
    space, doc = _documents(kind, command)
    if target == "space":
        return command, _edited(space, path, value), doc
    return command, space, _edited(doc, path, value)


# inputs that once ended in a traceback
CRASHES = [
    _crash("tree", "barycenter", "space", ("basepoint", 1), "x"),
    _crash("tree", "select", "space", ("basepoint", 1), None),
    _crash("euclidean", "barycenter", "doc", ("points", 1, "mass"), 10**400),
    _crash("tree", "classify", "doc", ("generators", 0, "offset"), 10**400),
    _crash("euclidean", "select", "doc", ("ideal", "direction", 0), 10**400),
    _crash("hyperbolic", "classify", "doc", ("ideal", "null_vector", 1), -(10**400)),
]


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(case=cases())
@example(case=CRASHES[0])
@example(case=CRASHES[1])
@example(case=CRASHES[2])
@example(case=CRASHES[3])
@example(case=CRASHES[4])
@example(case=CRASHES[5])
def test_mutated_documents_keep_the_exit_code_contract(case):
    command, space, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        space_path = os.path.join(tmp, "space.json")
        doc_path = os.path.join(tmp, "doc.json")
        with open(space_path, "w") as fh:
            fh.write(json.dumps(space))
        with open(doc_path, "w") as fh:
            fh.write(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--space-json", space_path, "--input", doc_path])
    assert code in (0, 1, 2), err.getvalue()
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_reject_constant)
