"""`center` workload: one op is a fixed round of `center_of_mass` calls.

A round holds one fresh weighted configuration per class below, each at
tol 1e-8.  The classes differ in cost by up to 5x, so timing each call
as its own op would put class boundaries inside the percentiles; timing
the round keeps every op in one cost class.  No configuration repeats
within a run.

Tree configurations lie on the geodesic between two random leaves (and
up to 1.0 past a marked leaf), where the center takes exactly one
iteration.  Configurations spread over three branches at a vertex
converge linearly instead and can take seconds at n = 7; that cost cliff
is left out so that an op's cost does not depend on the draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import geometry

NAME = "center"
TOL = 1e-8
MAX_ITERS = 200
SCALE = 2.0
MASS_RANGE = (0.5, 2.0)
# (label, space kind, dimension, points per configuration)
CLASSES = (
    ("H2", "hyperbolic", 2, 5),
    ("H3", "hyperbolic", 3, 5),
    ("tree", "tree", 0, 7),
    ("E3", "euclidean", 3, 7),
)
TREE_EDGES = (
    ("A", "B", 2.0),
    ("B", "C", 3.0),
    ("B", "D", 1.5),
    ("A", "E", 1.0),
    ("B", "F", 2.5),
    ("A", "G", 1.2),
)
MARKED = ("C", "E")
EXTENSION = 1.0
# Inputs are generated for this many rounds per measured second (a round
# takes about 0.1 s on the reference host); a run stops early rather than
# repeat an input.
ROUNDS_PER_SECOND = 40
# Every CHECK_STRIDE-th round also gets the permutation and rotation checks,
# which cost a full center_of_mass call each.
CHECK_STRIDE = 8
TRACE_ROUNDS = 12
SAME_POINT = 1e-7  # two centers of one configuration at tol 1e-8 agree to this
EXACT = 1e-9


@dataclass
class State:
    barycenter: object
    tree_point: type
    spaces: list
    bench_tree: geometry.BenchTree
    rounds: list  # per round: one Configuration per class
    warm: list
    perms: dict  # round -> per class: permutation of the items
    rotations: dict  # round -> per class: orthogonal matrix or None
    digest: str


def setup(seed: int, seconds: int, workdir) -> State:
    import numpy as np

    from horocenter import barycenter, spaces
    from horocenter.trees import TreePoint

    built = []
    for label, kind, dim, _n in CLASSES:
        if kind == "hyperbolic":
            built.append(spaces.Space.hyperbolic(dim))
        elif kind == "euclidean":
            built.append(spaces.Space.euclidean(dim))
        else:
            built.append(spaces.Space.tree_space(TREE_EDGES, MARKED))
    tree = geometry.BenchTree(TREE_EDGES, MARKED)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    raw_rounds = [_draw_round(rng, tree) for _ in range(ROUNDS_PER_SECOND * seconds + 1)]

    def configuration(space, raw, kind):
        items = [
            (TreePoint(*p) if kind == "tree" else p, m) for p, m in raw
        ]
        return barycenter.Configuration.of(space, items)

    rounds = [
        [
            configuration(space, raw, cls[1])
            for space, raw, cls in zip(built, raw_round, CLASSES)
        ]
        for raw_round in raw_rounds
    ]
    perms, rotations = {}, {}
    for r in range(0, len(rounds) - 1, CHECK_STRIDE):
        perms[r] = [tuple(int(i) for i in rng.permutation(c[3])) for c in CLASSES]
        rotations[r] = [
            _rotation(rng, c[2]) if c[1] == "hyperbolic" else None for c in CLASSES
        ]
    return State(
        barycenter=barycenter,
        tree_point=TreePoint,
        spaces=built,
        bench_tree=tree,
        rounds=rounds[:-1],
        warm=rounds[-1],
        perms=perms,
        rotations=rotations,
        digest=repr((raw_rounds, perms, rotations)),
    )


def _draw_round(rng, tree):
    out = []
    for _label, kind, dim, n in CLASSES:
        masses = [float(m) for m in rng.uniform(*MASS_RANGE, n)]
        if kind == "tree":
            a, b = (str(x) for x in rng.choice(tree.leaves, 2, replace=False))
            if a in tree.marked and b not in tree.marked:
                a, b = b, a
            hops = tree.path(a, b)
            length = sum(tree.edges[eid][2] for eid, _, _ in hops)
            reach = length + (EXTENSION if b in tree.marked else 0.0)
            points = [tree.point_on_path(hops, float(s)) for s in rng.uniform(0.0, reach, n)]
        else:
            points = []
            for _ in range(n):
                unit = _unit(rng, dim)
                radius = SCALE * float(rng.random())
                if kind == "hyperbolic":
                    points.append(geometry.hyp_point(radius, unit))
                else:
                    points.append(tuple(radius * u for u in unit))
        out.append(list(zip(points, masses)))
    return out


def _unit(rng, dim):
    g = [float(c) for c in rng.normal(size=dim)]
    norm = math.sqrt(sum(c * c for c in g))
    return tuple(c / norm for c in g)


def _rotation(rng, dim):
    import numpy as np

    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    q = q * np.sign(np.diag(r))
    return [[float(v) for v in row] for row in q]


def _op(state, configs):
    def op():
        com = state.barycenter.center_of_mass
        return [com(space, cfg, TOL, MAX_ITERS) for space, cfg in zip(state.spaces, configs)]

    return op


def warmup(state) -> None:
    _op(state, state.warm)()


def round_ops(state, r):
    if r >= len(state.rounds):
        return None
    return [_op(state, state.rounds[r])]


def trace_ops(state):
    return [(r, 0, _op(state, state.rounds[r])) for r in range(TRACE_ROUNDS)]


# -- checks ------------------------------------------------------------------


def _distance(state, kind, x, y):
    if kind == "hyperbolic":
        return geometry.hyp_distance(x, y)
    if kind == "euclidean":
        return math.dist(x, y)
    return state.bench_tree.distance(x, y)


def _aux(state, r):
    """Centers of the permuted and (in H) rotated configurations of round r."""
    bc = state.barycenter
    out = []
    for c, space, cfg, perm, rot in zip(
        CLASSES, state.spaces, state.rounds[r], state.perms[r], state.rotations[r]
    ):
        permuted = bc.Configuration(tuple(cfg.items[i] for i in perm))
        entry = {"perm": bc.center_of_mass(space, permuted, TOL, MAX_ITERS).center}
        if rot is not None:
            turned = bc.Configuration.of(
                space, [(geometry.rotate(it.point, rot), it.mass) for it in cfg.items]
            )
            entry["rot"] = bc.center_of_mass(space, turned, TOL, MAX_ITERS).center
        out.append(entry)
    return out


def _problems(state, r, index, center, result, aux):
    label, kind, _dim, _n = CLASSES[index]
    cfg = state.rounds[r][index]
    where = f"round {r} {label}"
    out = []
    trace = result.diameter_trace
    if not result.converged or not trace[-1] < TOL:
        out.append(f"{where}: not converged below tol, trace ends {trace[-1]!r}")
    if any(b > a for a, b in zip(trace, trace[1:])):
        out.append(f"{where}: diameter trace increases: {trace}")
    if kind == "euclidean":
        total = sum(it.mass for it in cfg.items)
        mean = [
            sum(it.mass * it.point[j] for it in cfg.items) / total
            for j in range(len(center))
        ]
        err = max(abs(a - b) for a, b in zip(center, mean))
        if not err <= EXACT:
            out.append(f"{where}: center is {err:.3e} from the weighted mean")
    if kind == "hyperbolic":
        residual = abs(geometry.mink(center, center) + 1.0)
        if not (center[0] > 0.0 and residual <= EXACT):
            out.append(f"{where}: center off the sheet, |<c,c>+1| = {residual:.3e}")
    pts = [it.point for it in cfg.items]
    diam = max(_distance(state, kind, p, q) for p in pts for q in pts)
    reach = max(_distance(state, kind, center, p) for p in pts)
    if not reach <= diam + EXACT:
        out.append(f"{where}: a point lies {reach!r} from the center, diameter {diam!r}")
    if aux is not None:
        gap = _distance(state, kind, center, aux[index]["perm"])
        if not gap <= SAME_POINT:
            out.append(f"{where}: permuting the points moves the center by {gap:.3e}")
        if "rot" in aux[index]:
            turned = geometry.rotate(center, state.rotations[r][index])
            gap = _distance(state, kind, turned, aux[index]["rot"])
            if not gap <= SAME_POINT:
                out.append(f"{where}: rotation moves the center off by {gap:.3e}")
    return out


def check(state, records):
    problems, auxes = [], {}
    for r, _k, results in records:
        aux = None
        if r in state.perms:
            aux = auxes[r] = _aux(state, r)
        for index, result in enumerate(results):
            problems += _problems(state, r, index, result.center, result, aux)
    return problems, 0, auxes


def _shifted(state, kind, center):
    if kind == "euclidean":
        return (center[0] + 1e-6,) + center[1:]
    if kind == "hyperbolic":
        return geometry.hyp_step(center, 1, 1e-6)
    step = -1e-6 if center.offset > 1e-6 else 1e-6
    return state.tree_point(center.edge, center.offset + step)


def planted(state, records, auxes):
    """Shift each class's center in round 0 by 1e-6: every one must fail."""
    out = []
    _r, _k, results = records[0]
    for index, result in enumerate(results):
        wrong = _shifted(state, CLASSES[index][1], result.center)
        if not _problems(state, 0, index, wrong, result, auxes[0]):
            out.append(f"planted center for {CLASSES[index][0]} shifted by 1e-6 passed")
    return out
