"""`select` workload: one op is a fixed round of `select` calls.

A round selects two bodies per class below: 3-6 generators within distance
2 of the basepoint in H2 and H3, and 3-6 generators on the marked-end
tree (up to 1.0 past a marked leaf).  Inside the timed op each call first
builds its ideal point from raw form, the way the JSON reader and the CLI
do: `IdealPoint.null_vector` of (1, u/|u|) for a random direction u in H,
`IdealPoint.end` of a marked leaf in the tree.  Costs per call differ by
up to 10x between classes (the null-vector polish dominates in H3), so the
round, not the call, is the op.  Bodies come from a pool that the rounds
cycle through.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import geometry
from work_center import MARKED, TREE_EDGES

NAME = "select"
SNAP_TOL = 1e-4  # SelectOptions default; the level and reach checks allow it
SCALE = 2.0
GENERATORS = (3, 6)
EXTENSION = 1.0
# Each class appears twice per round, so that an op sums enough calls for
# its median to settle within a run.
CLASSES = (("H2", "hyperbolic", 2), ("H3", "hyperbolic", 3), ("tree", "tree", 0)) * 2
POOL = 1024
# On the first pass through the pool, every CHECK_STRIDE-th entry is also
# selected with its generators reversed; that costs one more select call.
# Later passes must repeat the first pass's outputs exactly.
CHECK_STRIDE = 4
TRACE_ROUNDS = 400
SAME_POINT = 1e-7
EXACT = 1e-9


@dataclass
class Case:
    space: object
    kind: str
    body: object  # ConvexBody
    reversed_body: object
    raw_ideal: object  # tuple (H) or leaf name (tree)


@dataclass
class State:
    horosphere: object
    ideal_point: type
    bench_tree: geometry.BenchTree
    pool: list  # per pool entry: one Case per class
    digest: str


def setup(seed: int, seconds: int, workdir) -> State:
    import numpy as np

    from horocenter import horosphere, spaces
    from horocenter.trees import TreePoint

    built = [
        spaces.Space.tree_space(TREE_EDGES, MARKED)
        if kind == "tree"
        else spaces.Space.hyperbolic(dim)
        for _label, kind, dim in CLASSES
    ]
    tree = geometry.BenchTree(TREE_EDGES, MARKED)
    edges = sorted(tree.edges)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    raw, pool = [], []
    for _ in range(POOL):
        entry = []
        for space, (_label, kind, dim) in zip(built, CLASSES):
            n = int(rng.integers(GENERATORS[0], GENERATORS[1] + 1))
            if kind == "tree":
                gens = []
                for _ in range(n):
                    eid = edges[int(rng.integers(len(edges)))]
                    _u, v, length = tree.edges[eid]
                    reach = length + (EXTENSION if v in tree.marked else 0.0)
                    gens.append((eid, float(rng.uniform(0.0, reach))))
                ideal = MARKED[int(rng.integers(len(MARKED)))]
                points = [TreePoint(*g) for g in gens]
            else:
                gens = [
                    geometry.hyp_point(SCALE * float(rng.random()), _unit(rng, dim))
                    for _ in range(n)
                ]
                ideal = (1.0,) + _unit(rng, dim)
                points = gens
            raw.append((gens, ideal))
            entry.append(
                Case(
                    space,
                    kind,
                    horosphere.ConvexBody.of(space, points),
                    horosphere.ConvexBody.of(space, points[::-1]),
                    ideal,
                )
            )
        pool.append(entry)
    return State(horosphere, spaces.IdealPoint, tree, pool, repr(raw))


def _unit(rng, dim):
    g = [float(c) for c in rng.normal(size=dim)]
    norm = math.sqrt(sum(c * c for c in g))
    return tuple(c / norm for c in g)


def _ideal(state, case):
    if case.kind == "tree":
        return state.ideal_point.end(case.raw_ideal)
    return state.ideal_point.null_vector(case.raw_ideal)


def _op(state, cases):
    def op():
        select = state.horosphere.select
        out = []
        for case in cases:
            xi = _ideal(state, case)
            out.append((xi, select(case.space, case.body, xi)))
        return out

    return op


def warmup(state) -> None:
    _op(state, state.pool[-1])()


def round_ops(state, r):
    return [_op(state, state.pool[r % POOL])]


def keep(r, out):
    """What the timed loop stores of an op's output.  Later passes keep only
    a hash, so that the memory the benchmark holds does not grow with the
    number of rounds run (peak_rss_mb would otherwise punish a faster
    program)."""
    return out if r < POOL else hash(tuple(point for _xi, point in out))


def trace_ops(state):
    return [(r, 0, _op(state, state.pool[r])) for r in range(TRACE_ROUNDS)]


# -- checks ------------------------------------------------------------------


def _distance(state, case, x, y):
    if case.kind == "tree":
        return state.bench_tree.distance(x, y)
    return geometry.hyp_distance(x, y)


def _level(state, case, x):
    if case.kind == "tree":
        return state.bench_tree.depth(x, case.raw_ideal)
    o = (1.0,) + (0.0,) * (len(x) - 1)
    return geometry.hyp_level(x, case.raw_ideal, o)


def _aux(state, entry, ideals, reverse: bool):
    """Selections of singletons {g0} and, if asked, of the reversed bodies."""
    sel = state.horosphere.select
    body_of = state.horosphere.ConvexBody
    out = []
    for case, xi in zip(entry, ideals):
        g0 = case.body.generators[0]
        aux = {"single": (g0, sel(case.space, body_of((g0,)), xi))}
        if reverse:
            aux["reversed"] = sel(case.space, case.reversed_body, xi)
        out.append(aux)
    return out


def _problems(state, where, case, point, aux):
    out = []
    gens = case.body.generators
    if case.kind == "hyperbolic":
        residual = abs(geometry.mink(point, point) + 1.0)
        if not (point[0] > 0.0 and residual <= EXACT):
            return [f"{where}: output off the sheet, |<x,x>+1| = {residual:.3e}"]
    lowest = min(_level(state, case, g) for g in gens)
    level = _level(state, case, point)
    if not level <= lowest + SNAP_TOL:
        out.append(f"{where}: output level {level!r} above the lowest generator {lowest!r}")
    diam = max(_distance(state, case, g, h) for g in gens for h in gens)
    reach = max(_distance(state, case, point, g) for g in gens)
    if not reach <= diam + SNAP_TOL:
        out.append(f"{where}: a generator lies {reach!r} away, body diameter {diam!r}")
    g0, single = aux["single"]
    if single != g0:
        out.append(f"{where}: select({{x}}) = {single!r}, not x = {g0!r}")
    if "reversed" in aux:
        gap = _distance(state, case, point, aux["reversed"])
        if not gap <= SAME_POINT:
            out.append(f"{where}: reversing the generators moves the output by {gap:.3e}")
    return out


def check(state, records):
    problems, auxes = [], {}
    for r, _k, results in records:
        if r >= POOL:
            if results != hash(tuple(p for _, p in records[r % POOL][2])):
                problems.append(f"round {r}: output differs from round {r % POOL}")
            continue
        entry = state.pool[r]
        ideals = [xi for xi, _ in results]
        aux = _aux(state, entry, ideals, r % CHECK_STRIDE == 0)
        if r % CHECK_STRIDE == 0:
            auxes[r] = aux
        for case, (_xi, point), a, (label, _, _) in zip(entry, results, aux, CLASSES):
            problems += _problems(state, f"round {r} {label}", case, point, a)
    return problems, 0, auxes


def planted(state, records, auxes):
    """Answer with the generator farthest from the output: each must fail."""
    out = []
    _r, _k, results = records[0]
    for case, (_xi, point), a, (label, _, _) in zip(state.pool[0], results, auxes[0], CLASSES):
        wrong = max(case.body.generators, key=lambda g: _distance(state, case, point, g))
        if not _problems(state, f"planted {label}", case, wrong, a):
            out.append(f"planted select output for {label} (a wrong generator) passed")
    return out
