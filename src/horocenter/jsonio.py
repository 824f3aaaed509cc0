"""JSON schemas for spaces, points, bodies, configurations and reports.

Spaces: {"space": "euclidean", "dim": 3} or
        {"space": "tree", "edges": [["A", "B", 2.0], ...],
         "ideal_leaves": ["C"], "basepoint": ["A-B", 0.0]}.
Points: {"coords": [...]} or {"edge": "A-B", "offset": 0.5}.
Configurations: {"points": [{..., "mass": 1.0}, ...]}.
Bodies: {"generators": [...]} with optional "ideal".
Ideal points: {"direction": [...]}, {"null_vector": [...]},
or {"end_leaf": "C"}.

Every emitted document re-parses into the producing type; emission is
deterministic (sorted keys, fixed separators) so identical runs produce
byte-identical artifacts.
"""

from __future__ import annotations

import json
import math

from .barycenter import BarycenterResult, Configuration, WeightedPoint
from .horosphere import ConvexBody
from .lipschitz import LipschitzReport, ScanRecord
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
    if kind is not None and not isinstance(value, kind):
        raise InputError(f"{where}.{key}: wrong type {type(value).__name__}")
    return value


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
        dim = _require(doc, "dim", int, "space")
        if isinstance(dim, bool) or dim < 1:
            raise InputError(f"space.dim: must be a positive integer, got {dim!r}")
        return Space.euclidean(dim) if kind == EUCLIDEAN else Space.hyperbolic(dim)
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
    try:
        return Space.tree_space(parsed, leaves, base)
    except ValueError as exc:
        raise InputError(f"space: {exc}") from None


def space_to_json(space: Space) -> dict:
    if space.kind == TREE:
        tree = space.tree
        return {
            "space": TREE,
            "edges": [[e.u, e.v, e.length] for e in tree.edges],
            "ideal_leaves": sorted(tree.ideal_leaves),
            "basepoint": [tree.basepoint.edge, tree.basepoint.offset],
        }
    return {"space": space.kind, "dim": space.dim}


# -- points -------------------------------------------------------------------


def point_from_json(space: Space, doc, where: str = "point"):
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
            try:
                return build(value)
            except (TypeError, ValueError) as exc:  # GeometryError is a ValueError
                raise InputError(f"{where}: {exc}") from None
    raise InputError(f"{where}: need one of direction / null_vector / end_leaf")


def ideal_to_json(space: Space, xi: IdealPoint) -> dict:
    if xi.leaf is not None:
        return {"end_leaf": xi.leaf}
    if space.kind == EUCLIDEAN:
        return {"direction": list(xi.vector)}
    return {"null_vector": list(xi.vector)}


# -- aggregates ---------------------------------------------------------------


def configuration_from_json(space: Space, doc) -> Configuration:
    entries = _require(doc, "points", list, "configuration")
    items = []
    for i, entry in enumerate(entries):
        where = f"configuration.points[{i}]"
        mass = _number(_require(entry, "mass", None, where), f"{where}.mass")
        if mass <= 0.0:
            raise InputError(f"{where}.mass: must be a positive number")
        items.append(WeightedPoint(point_from_json(space, entry, where), mass))
    try:
        return Configuration.of(space, items)
    except ValueError as exc:
        raise InputError(f"configuration: {exc}") from None


def configuration_to_json(space: Space, config: Configuration) -> dict:
    points = []
    for item in config.items:
        entry = point_to_json(space, item.point)
        entry["mass"] = item.mass
        points.append(entry)
    return {"points": points}


def body_from_json(space: Space, doc) -> ConvexBody:
    entries = _require(doc, "generators", list, "body")
    points = [
        point_from_json(space, entry, f"body.generators[{i}]")
        for i, entry in enumerate(entries)
    ]
    try:
        return ConvexBody.of(space, points)
    except ValueError as exc:
        raise InputError(f"body: {exc}") from None


def body_to_json(space: Space, body: ConvexBody) -> dict:
    return {"generators": [point_to_json(space, g) for g in body.generators]}


# -- results and reports --------------------------------------------------------


def result_to_json(space: Space, result: BarycenterResult) -> dict:
    return {
        "center": point_to_json(space, result.center),
        "iterations": result.iterations,
        "converged": result.converged,
        "diameter_trace": list(result.diameter_trace),
    }


def result_from_json(space: Space, doc) -> BarycenterResult:
    return BarycenterResult(
        center=point_from_json(space, _require(doc, "center", None, "result")),
        iterations=_require(doc, "iterations", int, "result"),
        diameter_trace=[float(d) for d in _require(doc, "diameter_trace", list, "result")],
        converged=_require(doc, "converged", bool, "result"),
    )


def trace_csv(result: BarycenterResult) -> str:
    lines = ["iter,diameter"]
    for i, d in enumerate(result.diameter_trace):
        lines.append(f"{i},{d!r}")
    return "\n".join(lines) + "\n"


def report_to_json(report: LipschitzReport) -> dict:
    doc = {
        "records": [
            {
                "sample": r.sample,
                "in_disp": r.in_disp,
                "out_disp": r.out_disp,
                "ratio": r.ratio,
            }
            for r in report.records
        ],
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


def report_from_json(doc) -> LipschitzReport:
    summary = _require(doc, "summary", dict, "report")
    records = [
        ScanRecord(
            int(_require(r, "sample", int, f"report.records[{i}]")),
            float(_require(r, "in_disp", (int, float), f"report.records[{i}]")),
            float(_require(r, "out_disp", (int, float), f"report.records[{i}]")),
            float(_require(r, "ratio", (int, float), f"report.records[{i}]")),
        )
        for i, r in enumerate(_require(doc, "records", list, "report"))
    ]
    straddle = doc.get("straddle_ratios")
    return LipschitzReport(
        records=records,
        max_ratio=float(_require(summary, "max_ratio", (int, float), "report.summary")),
        mean_ratio=float(_require(summary, "mean_ratio", (int, float), "report.summary")),
        failures=int(_require(summary, "failures", int, "report.summary")),
        skipped=int(_require(summary, "skipped", int, "report.summary")),
        straddle=None if straddle is None else [float(x) for x in straddle],
    )


def report_csv(report: LipschitzReport) -> str:
    lines = ["sample,in_disp,out_disp,ratio"]
    for r in report.records:
        lines.append(f"{r.sample},{r.in_disp!r},{r.out_disp!r},{r.ratio!r}")
    return "\n".join(lines) + "\n"
