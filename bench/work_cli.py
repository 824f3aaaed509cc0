"""`cli` workload: cold `python -m horocenter` invocations, one per op.

A round runs the invocations in `INVOCATIONS` one at a time, all six
subcommands, on documents written at setup.  Scans run only in E2 and on
the marked-end tree with two-point configurations (closed-form centers)
or four-point E2 configurations (one iteration), and their sample counts
keep each scan's compute small beside the interpreter and import start-up,
so every invocation costs about the same and scan cost does not depend on
which samples are drawn.

One invocation per round passes a NaN coordinate to `barycenter`.  It
must exit 1 and name the field (`points[k]`); until the program rejects
non-finite input, it is counted as failed.  Every round is whole, so the
failed share is the same in every run.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import geometry
from work_center import MARKED, TREE_EDGES

NAME = "cli"
TOL = 1e-8
SNAP_TOL = 1e-4
SHRINK_TOL = 1e-6  # classify --classify-tol default
EXACT = 1e-9
TIMEOUT_S = 60.0
TRACE_ROUNDS = 3
E2_POINTS = 5
BODY_GENERATORS = 4
# (kind, subcommand arguments; {name} is replaced by the document's path)
E2 = ["--space", "euclidean", "--dim", "2"]
TREE = ["--space-json", "{tree}"]
INVOCATIONS = (
    ("barycenter", ["barycenter", *E2, "--input", "{conf}"]),
    ("barycenter_csv", ["barycenter", *E2, "--input", "{conf}", "--format", "csv"]),
    ("nan", ["barycenter", *E2, "--input", "{nan}"]),
    ("select", ["select", *TREE, "--input", "{body}"]),
    ("classify", ["classify", *TREE, "--input", "{body}"]),
    ("shift_e2", ["scan-shift", *E2, "--n-points", "2", "--samples", "50", "--seed", "{seed0}"]),
    ("shift_tree", ["scan-shift", *TREE, "--n-points", "2", "--samples", "30", "--seed", "{seed1}"]),
    ("mass_e2", ["scan-mass", *E2, "--n-points", "4", "--samples", "15", "--seed", "{seed2}"]),
    (
        "selector_tree",
        ["scan-selector", *TREE, "--n-points", "2", "--samples", "8", "--seed", "{seed3}",
         "--no-smoothing"],
    ),
)


@dataclass
class Run:
    """One finished invocation."""

    code: int
    out: bytes
    err: bytes
    maxrss_kb: int


@dataclass
class State:
    horocenter_cli: object
    lipschitz: object
    spaces: object
    workdir: Path
    env: dict
    argvs: list  # per invocation: argv after `python -m horocenter`
    conf: list  # E2 configuration [(point, mass)]
    nan_index: int
    body: list  # tree generators as (edge, offset)
    leaf: str
    bench_tree: geometry.BenchTree
    digest: str


def setup(seed: int, seconds: int, workdir: Path) -> State:
    import numpy as np

    from horocenter import cli, lipschitz, spaces

    tree = geometry.BenchTree(TREE_EDGES, MARKED)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    conf = []
    for _ in range(E2_POINTS):
        angle, radius = 2.0 * math.pi * float(rng.random()), 2.0 * float(rng.random())
        point = (radius * math.cos(angle), radius * math.sin(angle))
        conf.append((point, float(rng.uniform(0.5, 2.0))))
    nan_index = int(rng.integers(E2_POINTS))
    edges = sorted(tree.edges)
    body = []
    for _ in range(BODY_GENERATORS):
        eid = edges[int(rng.integers(len(edges)))]
        body.append((eid, float(rng.uniform(0.0, tree.edges[eid][2]))))
    leaf = MARKED[int(rng.integers(len(MARKED)))]
    seeds = [int(s) for s in rng.integers(0, 2**31, 4)]

    docs = {
        "tree": {
            "space": "tree",
            "edges": [list(e) for e in TREE_EDGES],
            "ideal_leaves": list(MARKED),
        },
        "conf": {"points": [{"coords": list(p), "mass": m} for p, m in conf]},
        "body": {
            "generators": [{"edge": e, "offset": o} for e, o in body],
            "ideal": {"end_leaf": leaf},
        },
    }
    docs["nan"] = json.loads(json.dumps(docs["conf"]))
    docs["nan"]["points"][nan_index]["coords"][1] = float("nan")
    paths = {}
    for name, doc in docs.items():
        paths[name] = str(workdir / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(doc), encoding="utf-8")
    for i, s in enumerate(seeds):
        paths[f"seed{i}"] = str(s)
    argvs = [[a.format(**paths) for a in args] for _kind, args in INVOCATIONS]

    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    return State(
        horocenter_cli=cli,
        lipschitz=lipschitz,
        spaces=spaces,
        workdir=workdir,
        env=env,
        argvs=argvs,
        conf=conf,
        nan_index=nan_index,
        body=body,
        leaf=leaf,
        bench_tree=tree,
        digest=repr((conf, nan_index, body, leaf, seeds)),
    )


def spawn(argv, env, cwd, timeout=TIMEOUT_S) -> Run:
    """Run argv to completion; its own peak RSS comes from wait4."""
    with tempfile.TemporaryFile(dir=cwd) as out, tempfile.TemporaryFile(dir=cwd) as err:
        proc = subprocess.Popen(
            argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Run(proc.returncode, out.read(), err.read(), usage.ru_maxrss)


# Host-speed reference for this workload: a cold interpreter that only
# imports numpy, spawned at least every REF_EVERY_S.  It tracks the speed
# of process start-up, which most of an op is and which an in-process loop
# follows poorly (window-to-window ratio spread 25% against 8%).
REF_NOMINAL_S = 0.1
REF_EVERY_S = 0.75


def reference(state) -> float:
    start = perf_counter()
    run = spawn([sys.executable, "-c", "import numpy"], state.env, state.workdir)
    if run.code != 0:
        raise RuntimeError(f"reference start-up failed: {run.err.decode()}")
    return perf_counter() - start


def _op(state, argv):
    def op():
        return spawn(
            [sys.executable, "-m", "horocenter", *argv], state.env, state.workdir
        )

    return op


def _in_process(state, argv):
    def op():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = state.horocenter_cli.main(list(argv))
        return Run(code, out.getvalue().encode(), err.getvalue().encode(), 0)

    return op


def warmup(state) -> None:
    _op(state, state.argvs[0])()


def round_ops(state, r):
    return [_op(state, argv) for argv in state.argvs]


def trace_ops(state):
    return [
        (r, k, _in_process(state, argv))
        for r in range(TRACE_ROUNDS)
        for k, argv in enumerate(state.argvs)
    ]


def scan_samples(argv) -> int:
    return int(argv[argv.index("--samples") + 1]) if "--samples" in argv else 0


def peak_rss_mb(records) -> float:
    return max(run.maxrss_kb for _r, _k, run in records) / 1024.0


# -- checks ------------------------------------------------------------------


def _strict(text: bytes):
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text.decode("utf-8"), parse_constant=refuse)


def _point(doc):
    return SimpleNamespace(edge=doc["edge"], offset=doc["offset"])


def _nonincreasing(values):
    return all(b <= a for a, b in zip(values, values[1:]))


def _problems(state, kind, run):
    """Problems with one invocation's output (the NaN case is not checked)."""
    if run.code != 0:
        return [f"exit {run.code}: {run.err.decode(errors='replace').strip()[-300:]}"]
    if kind == "barycenter_csv":
        lines = run.out.decode().splitlines()
        trace = [float(line.split(",")[1]) for line in lines[1:]]
        if lines[0] != "iter,diameter" or not all(map(math.isfinite, trace)):
            return ["malformed trace CSV"]
        if not (_nonincreasing(trace) and trace[-1] < TOL):
            return [f"trace not nonincreasing to below tol: {trace}"]
        return []
    try:
        doc = _strict(run.out)
    except ValueError as exc:
        return [f"output is not strict JSON: {exc}"]
    out = []
    if kind == "barycenter":
        total = sum(m for _, m in state.conf)
        mean = [sum(m * p[j] for p, m in state.conf) / total for j in range(2)]
        err = max(abs(a - b) for a, b in zip(doc["center"]["coords"], mean))
        if not err <= EXACT:
            out.append(f"center is {err:.3e} from the weighted mean")
        trace = doc["diameter_trace"]
        if not (doc["converged"] and _nonincreasing(trace) and trace[-1] < TOL):
            out.append(f"not converged with a nonincreasing trace: {trace}")
    elif kind in ("select", "classify"):
        tree = state.bench_tree
        gens = [_point({"edge": e, "offset": o}) for e, o in state.body]
        depths = [tree.depth(g, state.leaf) for g in gens]
        if kind == "select":
            point = _point(doc["point"])
            level = tree.depth(point, state.leaf)
            diam = max(tree.distance(g, h) for g in gens for h in gens)
            reach = max(tree.distance(point, g) for g in gens)
            if not level <= min(depths) + SNAP_TOL:
                out.append(f"output level {level!r} above the lowest generator")
            if not reach <= diam + SNAP_TOL:
                out.append(f"a generator lies {reach!r} away, diameter {diam!r}")
        else:
            # rays toward one end merge in a tree: the limit separation of
            # two generators is the gap between their levels
            gap = max(depths) - min(depths)
            sep = doc["max_limit_separation"]
            verdict = "shrinking" if gap < SHRINK_TOL else "non-shrinking"
            if not abs(sep - gap) <= EXACT or doc["verdict"] != verdict:
                out.append(f"classify says {doc['verdict']} {sep!r}, levels span {gap!r}")
    else:
        summary = doc["summary"]
        if summary["failures"] != 0:
            out.append(f"scan reports {summary['failures']} failures")
        ratios = [r["ratio"] for r in doc["records"]]
        if not all(math.isfinite(x) and x >= 0.0 for x in ratios):
            out.append("a scan ratio is negative or not finite")
        if kind.startswith("shift") and not summary["max_ratio"] <= 1.0 + 1e-6:
            out.append(f"point-shift max ratio {summary['max_ratio']!r} exceeds 1 + 1e-6")
        if kind == "shift_e2":
            out += _two_point_ratios(state, doc)
        if kind == "selector_tree":
            straddle = doc.get("straddle_ratios") or []
            if len(straddle) < 2 or not all(b >= 2.0 * a for a, b in zip(straddle, straddle[1:])):
                out.append(f"straddle ratios do not double per halving: {straddle}")
    return out


def _two_point_ratios(state, doc):
    """Flat two-point closed form: shifting point k moves the center by m_k/M."""
    argv = state.argvs[[k for k, _ in INVOCATIONS].index("shift_e2")]
    params = state.lipschitz.ScanParams(
        space=state.spaces.Space.euclidean(2),
        n_points=2,
        samples=scan_samples(argv),
        seed=int(argv[argv.index("--seed") + 1]),
    )
    worst = 0.0
    for record in doc["records"]:
        config, k, _moved = state.lipschitz.shift_case(params, record["sample"])
        expected = config.items[k].mass / config.total_mass
        worst = max(worst, abs(record["ratio"] - expected))
    return [] if worst <= EXACT else [f"two-point ratio off m_k/M by {worst:.3e}"]


def _nan_ok(state, run) -> bool:
    return run.code == 1 and f"points[{state.nan_index}]".encode() in run.err


def check(state, records):
    problems, failed, first = [], 0, {}
    for r, k, run in records:
        kind = INVOCATIONS[k][0]
        if kind == "nan":
            failed += not _nan_ok(state, run)
            continue
        if k not in first:
            first[k] = run
            problems += [f"round {r} {kind}: {p}" for p in _problems(state, kind, run)]
        elif (run.code, run.out) != (first[k].code, first[k].out):
            problems.append(f"round {r} {kind}: output differs from round 0")
    return problems, failed, first


def planted(state, records, first):
    """Move the barycenter's center by 1e-6 in its output: it must fail."""
    k = [kind for kind, _ in INVOCATIONS].index("barycenter")
    run = first[k]
    doc = json.loads(run.out)
    doc["center"]["coords"][0] += 1e-6
    text = (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()
    wrong = Run(run.code, text, run.err, run.maxrss_kb)
    if _problems(state, "barycenter", wrong):
        return []
    return ["planted barycenter output shifted by 1e-6 passed"]
