"""JSON schemas for spaces, points, bodies, configurations and reports.

Spaces: {"space": "euclidean", "dim": 3} or
        {"space": "tree", "edges": [["A", "B", 2.0], ...],
         "ideal_leaves": ["C"], "basepoint": ["A-B", 0.0]}.
Points: {"coords": [...]} or {"edge": "A-B", "offset": 0.5}.
Configurations: {"points": [{..., "mass": 1.0}, ...]}.
Bodies: {"generators": [...]} with optional "ideal".
Ideal points: {"direction": [...]}, {"null_vector": [...]},
or {"end_leaf": "C"}.

The command line reads spaces, points, ideal points, configurations and
bodies, and writes points, results and reports, so each type converts one
way only; each reader names the field at fault, --space/--dim included.
The point readers only parse JSON types and finite numbers; points and
masses are checked once, by the aggregate that holds them
(Configuration.of, ConvexBody.of), as in configuration.points[1].mass.
Emission is deterministic (sorted keys, fixed separators), so identical
runs produce byte-identical artifacts.
"""

from __future__ import annotations

import json
import math

from . import spaces
from .barycenter import BarycenterResult, Configuration
from .spaces import EUCLIDEAN, HYPERBOLIC, TREE, IdealPoint, Space
from .trees import TreePoint


class InputError(ValueError):
    """Malformed document; the message names the offending field."""


def _require(obj, key, kind, where):
    if not isinstance(obj, dict):
        raise InputError(f"{where}: expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise InputError(f"{where}: missing field {key!r}")
    value = obj[key]
    # bool subclasses int, but true/false is no JSON count
    if kind is not None and (not isinstance(value, kind) or isinstance(value, bool)):
        raise InputError(f"{where}.{key}: wrong type {type(value).__name__}")
    return value


def _named(prefix: str, build, *args):
    """build(*args), with a library error led by prefix: "field: ", or
    "field." for an aggregate, whose errors lead with their entry."""
    try:
        return build(*args)
    except ValueError as exc:  # InputError and GeometryError are ValueErrors
        raise InputError(f"{prefix}{exc}") from None


def _number(value, where) -> float:
    """A finite JSON number (not a bool) as a float."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise InputError(f"{where}: must be a number")
    try:
        number = float(value)
    except OverflowError:  # an int beyond the double range
        number = math.inf
    if not math.isfinite(number):
        raise InputError(f"{where}: must be finite")
    return number


def loads(text: str, where: str = "input"):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{where}: invalid JSON ({exc.msg} at line {exc.lineno})") from None


def dumps(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return text + "\n"


# -- spaces -------------------------------------------------------------------


def space_from_json(doc) -> Space:
    kind = _require(doc, "space", str, "space")
    if kind in (EUCLIDEAN, HYPERBOLIC):
        return _named("space.dim: ", Space, kind, _require(doc, "dim", int, "space"))
    if kind != TREE:
        raise InputError(f"space.space: unknown kind {kind!r}")
    edges = _require(doc, "edges", list, "space")
    parsed = []
    for i, edge in enumerate(edges):
        if not (isinstance(edge, list) and len(edge) == 3):
            raise InputError(f"space.edges[{i}]: expected [u, v, length]")
        u, v, length = edge
        if not isinstance(u, str) or not isinstance(v, str):
            raise InputError(f"space.edges[{i}]: vertex names must be strings")
        parsed.append((u, v, _number(length, f"space.edges[{i}][2]")))
    leaves = doc.get("ideal_leaves", [])
    if not isinstance(leaves, list):
        raise InputError("space.ideal_leaves: expected a list")
    base = doc.get("basepoint")
    if base is not None:
        if not (isinstance(base, list) and len(base) == 2 and isinstance(base[0], str)):
            raise InputError("space.basepoint: expected [edge-id, offset]")
        base = TreePoint(base[0], _number(base[1], "space.basepoint[1]"))
    return _named("space: ", Space.tree_space, parsed, leaves, base)


# -- points -------------------------------------------------------------------


def point_from_json(space: Space, doc, where: str = "point"):
    """The parsed point, unchecked: spaces.canonical_point checks it."""
    if space.kind == TREE:
        edge = _require(doc, "edge", str, where)
        offset = _number(_require(doc, "offset", None, where), f"{where}.offset")
        return TreePoint(edge, offset)
    coords = doc if isinstance(doc, list) else _require(doc, "coords", list, where)
    return tuple(_number(c, f"{where}.coords[{i}]") for i, c in enumerate(coords))


def point_to_json(space: Space, point):
    if space.kind == TREE:
        return {"edge": point.edge, "offset": point.offset}
    return {"coords": list(point)}


def ideal_from_json(space: Space, doc, where: str = "ideal") -> IdealPoint:
    if not isinstance(doc, dict):
        raise InputError(f"{where}: expected an object")
    for key, kind, build in (
        ("direction", list, IdealPoint.direction),
        ("null_vector", list, IdealPoint.null_vector),
        ("end_leaf", str, IdealPoint.end),
    ):
        if key in doc:
            value = _require(doc, key, kind, where)
            if kind is list:
                value = [_number(c, f"{where}: {key}[{i}]") for i, c in enumerate(value)]
            xi = _named(f"{where}: ", build, value)
            _named(f"{where}: ", spaces.validate_ideal, space, xi)
            return xi
    raise InputError(f"{where}: need one of direction / null_vector / end_leaf")


# -- aggregates ---------------------------------------------------------------


def configuration_from_json(space: Space, doc) -> Configuration:
    entries = _require(doc, "points", list, "configuration")
    items = []
    for i, entry in enumerate(entries):
        where = f"configuration.points[{i}]"
        mass = _number(_require(entry, "mass", None, where), f"{where}.mass")
        items.append((point_from_json(space, entry, where), mass))
    return _named("configuration.", Configuration.of, space, items)


def body_from_json(space: Space, doc) -> ConvexBody:
    from .horosphere import ConvexBody

    entries = _require(doc, "generators", list, "body")
    points = [
        point_from_json(space, entry, f"body.generators[{i}]")
        for i, entry in enumerate(entries)
    ]
    return _named("body.", ConvexBody.of, space, points)


# -- results and reports --------------------------------------------------------


def result_to_json(space: Space, result: BarycenterResult) -> dict:
    return {
        "center": point_to_json(space, result.center),
        "iterations": result.iterations,
        "converged": result.converged,
        "diameter_trace": list(result.diameter_trace),
    }


def trace_csv(result: BarycenterResult) -> str:
    lines = ["iter,diameter"]
    for i, d in enumerate(result.diameter_trace):
        lines.append(f"{i},{d!r}")
    return "\n".join(lines) + "\n"


def report_to_json(report: LipschitzReport) -> dict:
    doc = {
        "records": [r._asdict() for r in report.records],
        "summary": {
            "max_ratio": report.max_ratio,
            "mean_ratio": report.mean_ratio,
            "failures": report.failures,
            "skipped": report.skipped,
        },
    }
    if report.straddle is not None:
        doc["straddle_ratios"] = list(report.straddle)
    return doc


def report_csv(report: LipschitzReport) -> str:
    lines = ["sample,in_disp,out_disp,ratio"]
    for r in report.records:
        lines.append(f"{r.sample},{r.in_disp!r},{r.out_disp!r},{r.ratio!r}")
    return "\n".join(lines) + "\n"
