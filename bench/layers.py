"""Per-layer metrics: which library functions are traced, and how the
traced aggregates become the `per_layer` metrics of BENCHMARK.json.

"Per op" divides by the workload's ops in the traced run, except in the
barycenter layer, whose three metrics are per top-level `center_of_mass`
call (recursion nodes, iterations and self time of one top-level call).
A metric whose calls a workload never makes reads 0.
"""

from __future__ import annotations

import geometry

ON_TARGET = 1e-18  # the null defect the library's README promises

TREE_METHODS = (
    "distance",
    "walk",
    "ray",
    "depth_toward_end",
    "canonical",
    "nearest_branch_vertex",
    "random_walk_shift",
    "random_physical_point",
)
KERNEL = ("distance", "geodesic_point", "busemann", "ray_point", "ray_separation")
PARSE = (
    "loads",
    "space_from_json",
    "point_from_json",
    "ideal_from_json",
    "configuration_from_json",
    "body_from_json",
)
EMIT = ("dumps", "point_to_json", "result_to_json", "report_to_json", "trace_csv", "report_csv")

# name -> unit, in the order they are printed
METRICS = {
    **{
        f"spaces.{f}.{m}": unit
        for f in KERNEL
        for m, unit in (("calls_per_op", "count"), ("ms_per_op", "ms"))
    },
    "spaces.ideal.ms_per_op": "ms",
    "spaces.ideal.on_target_ratio": "ratio",
    "trees.distance.calls_per_op": "count",
    "trees.ms_per_op": "ms",
    "barycenter.center_of_mass.calls_per_op": "count",
    "barycenter.iterations_per_op": "count",
    "barycenter.self_ms_per_op": "ms",
    "horosphere.sweep.ms_per_op": "ms",
    "horosphere.project.ms_per_op": "ms",
    "horosphere.classify.ms_per_op": "ms",
    "horosphere.classify.probes_per_op": "count",
    "horosphere.center.calls_per_op": "count",
    "horosphere.snap.ms_per_op": "ms",
    "lipschitz.sample_ms": "ms",
    "lipschitz.hausdorff.ms_per_op": "ms",
    "jsonio.parse_ms_per_op": "ms",
    "jsonio.emit_ms_per_op": "ms",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.import_numpy_ms": "ms",
    "cli.main_ms_per_op": "ms",
    "trace.overhead_pct": "%",
}

COM = "barycenter.center_of_mass"


def targets():
    """(owner, attribute, span name, keep_result) for Tracer.install."""
    from horocenter import barycenter, cli, horosphere, jsonio, lipschitz, spaces, trees

    def always(_parent):
        return True

    def top_level(parent):
        return parent != COM

    out = [(spaces, f, f"spaces.{f}", None) for f in KERNEL]
    out += [
        (spaces.IdealPoint, "null_vector", "spaces.ideal", always),
        (spaces.IdealPoint, "direction", "spaces.ideal", None),
        (spaces.IdealPoint, "end", "spaces.ideal", None),
        (spaces, "normalize_ideal", "spaces.ideal", None),
    ]
    out += [(trees.Tree, m, f"trees.{m}", None) for m in TREE_METHODS]
    out += [
        (barycenter, "center_of_mass", COM, top_level),
        (horosphere, "first_horosphere", "horosphere.sweep", None),
        (horosphere, "project_to_level", "horosphere.project", None),
        (horosphere, "classify_body", "horosphere.classify", None),
        (horosphere, "snap_singular", "horosphere.snap", None),
        (horosphere, "select", "horosphere.select", None),
        (lipschitz, "hausdorff", "lipschitz.hausdorff", None),
        (cli, "main", "cli.main", None),
    ]
    out += [
        (lipschitz, f, "lipschitz.scan", None)
        for f in ("point_shift_scan", "mass_shift_scan", "selector_scan")
    ]
    out += [(jsonio, f, "jsonio.parse", None) for f in PARSE]
    out += [(jsonio, f, "jsonio.emit", None) for f in EMIT]
    return out


def metrics(tracer, ops: int, scan_samples: int) -> dict:
    """Per-layer values from one traced pass over `ops` ops."""
    summary = tracer.summary()
    spans = summary["spans"]

    def get(name, key="outermost_s"):
        return spans.get(name, {}).get(key, 0.0)

    def under(parent, name):
        return spans.get(name, {}).get("by_parent", {}).get(parent, 0)

    def ms(seconds, per):
        return 1e3 * seconds / per if per else 0.0

    out = {}
    for f in KERNEL:
        out[f"spaces.{f}.calls_per_op"] = get(f"spaces.{f}", "calls") / ops
        out[f"spaces.{f}.ms_per_op"] = ms(get(f"spaces.{f}"), ops)
    out["spaces.ideal.ms_per_op"] = ms(get("spaces.ideal"), ops)
    built = [xi.vector for xi in tracer.results["spaces.ideal"]]
    hits = sum(geometry.null_defect(v) <= ON_TARGET for v in built)
    out["spaces.ideal.on_target_ratio"] = hits / len(built) if built else 0.0
    out["trees.distance.calls_per_op"] = get("trees.distance", "calls") / ops
    out["trees.ms_per_op"] = ms(summary["layer_outermost_s"].get("trees", 0.0), ops)
    tops = tracer.results[COM]
    out["barycenter.center_of_mass.calls_per_op"] = (
        get(COM, "calls") / len(tops) if tops else 0.0
    )
    out["barycenter.iterations_per_op"] = (
        sum(r.iterations for r in tops) / len(tops) if tops else 0.0
    )
    out["barycenter.self_ms_per_op"] = ms(get(COM, "self_s"), len(tops))
    for stage in ("sweep", "project", "classify", "snap"):
        out[f"horosphere.{stage}.ms_per_op"] = ms(get(f"horosphere.{stage}"), ops)
    out["horosphere.classify.probes_per_op"] = (
        under("horosphere.classify", "spaces.ray_separation") / ops
    )
    out["horosphere.center.calls_per_op"] = under("horosphere.select", COM) / ops
    out["lipschitz.sample_ms"] = ms(get("lipschitz.scan"), scan_samples)
    out["lipschitz.hausdorff.ms_per_op"] = ms(get("lipschitz.hausdorff"), ops)
    out["jsonio.parse_ms_per_op"] = ms(get("jsonio.parse"), ops)
    out["jsonio.emit_ms_per_op"] = ms(get("jsonio.emit"), ops)
    out["cli.main_ms_per_op"] = ms(get("cli.main"), ops)
    return out
