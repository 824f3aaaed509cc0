"""Benchmark for the horocenter library: three workloads, one command.

    python3 bench/run.py --workload {center,select,cli} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root.  The library is imported from `src/` of
this checkout; without it the command fails with exit code 2.

--trace 0 measures for S seconds with tracing off and reports the
end-to-end metrics: ops_per_s, op_ms_p50, op_ms_p90, setup_s and
peak_rss_mb.  --trace 1 runs a fixed op list of the workload once
untraced and once traced, and reports the per-layer metrics (see
layers.py); S does not apply, so call counts repeat exactly for a seed.

Every output is checked after the timed loop, against the benchmark's own
geometry (geometry.py), and a planted wrong answer must fail those
checks.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}};
the same object is written to bench/out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 5  # set-ups per run: this process's own and four fresh ones
PROBE_SAMPLES = 5
# Host-speed reference: a fixed pure-Python loop, run between ops at least
# every REF_EVERY_S.  Each op's time is scaled by REF_NOMINAL_S over the
# median of the REF_NEIGHBOURS reference runs nearest to it, which turns
# host-wide speed drift (25% between 5 s windows here) into a few percent.
REF_ITERS = 20_000
REF_NOMINAL_S = 0.002
REF_EVERY_S = 0.05
REF_NEIGHBOURS = 7
IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import numpy; "
    "t1 = time.perf_counter(); import horocenter; t2 = time.perf_counter(); "
    "print(t1 - t0, t2 - t1)"
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=["center", "select", "cli"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument(
        "--setup-only",
        action="store_true",
        help="time one set-up in this process, print it as JSON, and exit",
    )
    return p.parse_args(argv)


def reference() -> float:
    """Run the host-speed reference loop once; returns its seconds."""
    start = perf_counter()
    x = 0.0
    for i in range(REF_ITERS):
        x += (i * 0.5) ** 0.5
    return perf_counter() - start


def timed_setup(wl, args, workdir):
    """One set-up, in host-normalized seconds, and a digest of its inputs."""
    start = perf_counter()
    state = wl.setup(args.seed, args.seconds, workdir)
    elapsed = perf_counter() - start
    speed = REF_NOMINAL_S / statistics.median(reference() for _ in range(REF_NEIGHBOURS))
    digest = hashlib.sha256(state.digest.encode()).hexdigest()
    return state, elapsed, elapsed * speed, digest


def fresh_setups(args, env):
    """Set up again in fresh interpreters: (raw s, normalized s, digest) each."""
    import work_cli

    argv = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--setup-only",
    ]
    out = []
    for _ in range(SETUP_SAMPLES - 1):
        run = work_cli.spawn(argv, env, str(ROOT))
        if run.code != 0:
            raise RuntimeError(f"set-up in a fresh process failed: {run.err.decode()}")
        doc = json.loads(run.out.decode().splitlines()[-1])
        out.append((doc["raw_s"], doc["setup_s"], doc["digest"]))
    return out


def interpreter_probes(env):
    """Median start-up of a bare interpreter, and of the two imports."""
    import work_cli

    bare, numpy_s, horo_s = [], [], []
    for _ in range(PROBE_SAMPLES):
        start = perf_counter()
        run = work_cli.spawn([sys.executable, "-c", "pass"], env, str(ROOT))
        bare.append(perf_counter() - start)
        run = work_cli.spawn([sys.executable, "-c", IMPORT_PROBE], env, str(ROOT))
        if run.code != 0:
            raise RuntimeError(f"import probe failed: {run.err.decode()}")
        a, b = (float(x) for x in run.out.split())
        numpy_s.append(a)
        horo_s.append(b)
    return {
        "cli.interpreter_ms": 1e3 * statistics.median(bare),
        "cli.import_numpy_ms": 1e3 * statistics.median(numpy_s),
        "cli.import_ms": 1e3 * statistics.median(horo_s),
    }


def timed_loop(wl, state, seconds):
    """Whole rounds of ops until `seconds` have passed; ops timed one by one.

    Returns each op's raw seconds, its host-normalized seconds, the kept
    outputs, the peak RSS, and the raw time series for the side file."""
    wl.warmup(state)
    if hasattr(wl, "reference"):
        measure_ref, nominal, every = (lambda: wl.reference(state)), wl.REF_NOMINAL_S, wl.REF_EVERY_S
    else:
        measure_ref, nominal, every = reference, REF_NOMINAL_S, REF_EVERY_S
    raw, op_at, records, refs = [], [], [], []
    start = perf_counter()
    deadline = start + seconds
    last_ref = start - every
    r = 0
    while True:
        ops = wl.round_ops(state, r)
        if ops is None:  # input pool used up: stop rather than repeat inputs
            break
        for k, op in enumerate(ops):
            t0 = perf_counter()
            out = op()
            t1 = perf_counter()
            raw.append(t1 - t0)
            op_at.append(len(refs))
            records.append((r, k, wl.keep(r, out) if hasattr(wl, "keep") else out))
            if t1 - last_ref >= every:
                last_ref = t1
                refs.append(measure_ref())
        r += 1
        if perf_counter() >= deadline:
            break
    if hasattr(wl, "peak_rss_mb"):
        rss = wl.peak_rss_mb(records)
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    half = REF_NEIGHBOURS // 2
    normalized = []
    for t, j in zip(raw, op_at):
        lo = max(0, min(j - half, len(refs) - REF_NEIGHBOURS))
        local = statistics.median(refs[lo : lo + REF_NEIGHBOURS])
        normalized.append(t * nominal / local)
    return raw, normalized, records, rss, {"op_s": raw, "op_ref_index": op_at, "ref_s": refs}


def summary(times) -> dict:
    deciles = statistics.quantiles(times, n=10) if len(times) > 1 else times * 9
    return {
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_ms_p50": (1e3 * statistics.median(times), "ms"),
        "op_ms_p90": (1e3 * deciles[8], "ms"),
    }


def end_to_end(wl, state, args, setup_s):
    raw, normalized, records, rss, series = timed_loop(wl, state, args.seconds)
    problems, failed, aux = wl.check(state, records)
    problems += wl.planted(state, records, aux)
    metrics = summary(normalized)
    metrics["setup_s"] = (setup_s, "s")
    metrics["peak_rss_mb"] = (rss, "MB")
    return problems, len(raw), failed, metrics, summary(raw), series


def per_layer(wl, state, env):
    import layers
    from tracing import Tracer

    ops = wl.trace_ops(state)
    wl.warmup(state)
    start = perf_counter()
    for _r, _k, op in ops:
        op()
    plain = perf_counter() - start
    tracer = Tracer()
    tracer.install(layers.targets())
    try:
        start = perf_counter()
        records = [(r, k, op()) for r, k, op in ops]
        traced = perf_counter() - start
    finally:
        tracer.uninstall()
    problems, failed, aux = wl.check(state, records)
    problems += wl.planted(state, records, aux)
    samples = 0
    if hasattr(wl, "scan_samples"):
        samples = wl.TRACE_ROUNDS * sum(wl.scan_samples(a) for a in state.argvs)
    values = layers.metrics(tracer, len(ops), samples)
    values.update(interpreter_probes(env))
    values["trace.overhead_pct"] = 100.0 * (traced / plain - 1.0)
    metrics = {name: (values[name], unit) for name, unit in layers.METRICS.items()}
    return problems, len(ops), failed, metrics, tracer.summary()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "horocenter" / "__init__.py").is_file():
        print(f"error: library sources not found at {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    OUT.mkdir(exist_ok=True)
    wl = importlib.import_module(f"work_{args.workload}")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as workdir:
        state, own_raw, own_setup, digest = timed_setup(wl, args, Path(workdir))
        if args.setup_only:
            print(json.dumps({"raw_s": own_raw, "setup_s": own_setup, "digest": digest}))
            return 0
        fresh = fresh_setups(args, env)
        problems = [
            "inputs differ between set-ups of one seed"
            for _, _, d in fresh if d != digest
        ]
        setup_s = statistics.median([own_setup] + [s for _, s, _ in fresh])
        raw_setup_s = statistics.median([own_raw] + [s for s, _, _ in fresh])
        extra = {}
        if args.trace:
            found, attempted, failed, metrics, extra = per_layer(wl, state, env)
        else:
            found, attempted, failed, metrics, raw, series = end_to_end(
                wl, state, args, setup_s
            )
            raw["setup_s"] = (raw_setup_s, "s")
            extra = {"not_normalized": raw, "series": series}
        problems += found
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    if len(problems) > 20:
        print(f"... {len(problems) - 20} more check failures", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:>7} {name:<42} {value:14.6g} {unit}", file=sys.stderr)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    (OUT / f"{stem}-extra.json").write_text(json.dumps(extra, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
