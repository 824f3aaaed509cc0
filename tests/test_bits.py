"""Pinned sha256 digests of the center and selector families, bit for bit.

A fixed corpus of configurations is drawn from the library's own stream
(`spaces.sub_rng`, no numpy): in H^1, H^2, H^3, H^5, E^2 and the conftest
tree, n = 1 to 6 points, with unit, uniform, log-uniform and
near-overflow masses (a sum of at least 2**1023), each at a wide scale,
a middling one and a near-flat one.  Each family hashes the reprs of
what it gives on every configuration: a result, a `ConvergenceError`'s
message and partial result, or a refusal's message.

- `center_of_mass` at max_iters 0, 1 and 200;
- `leave_one_out_step` at the defaults.

A second corpus holds bodies built by `ConvexBody.of` from the same
stream, in H^1, H^2, H^3, E^2 and the conftest tree, with 1 to 6
generators at scales from 1e-9 to 300, each toward an ideal point drawn
with it, and a few named bodies: an exact level tie (a mirrored pair) in
H^2, H^3, E^2 and on the tree, and a lone contact just off the tree's
branch vertex.

- `select` at the default options, and on the tree with smoothing off;
- `classify_body` at the default tol.

A refactor of the recursion or the kernels must leave every digest as
it is.  A digest that moves is a change of output: update it here only
on purpose, and say which family moved, and why, in CHANGES.md.  The
digests are pinned on Linux only: hyperbolic centers go through libm's
sinh, asinh and hypot, whose last bits may differ on other platforms.
"""

import hashlib
import math
import sys
from functools import cache

import pytest

from conftest import TREE_EDGES, TREE_LEAVES
from horocenter import GeometryError, IdealPoint, Space, spaces
from horocenter.barycenter import (
    Configuration,
    ConvergenceError,
    center_of_mass,
    leave_one_out_step,
)
from horocenter.horosphere import (
    NON_SHRINKING,
    ConvexBody,
    SelectOptions,
    classify_body,
    first_horosphere,
    select,
)

pytestmark = pytest.mark.skipif(
    sys.platform != "linux",
    reason="pinned on Linux: other platforms' libm may round sinh and asinh differently",
)

SPACES = {
    "H1": Space.hyperbolic(1),
    "H2": Space.hyperbolic(2),
    "H3": Space.hyperbolic(3),
    "H5": Space.hyperbolic(5),
    "E2": Space.euclidean(2),
    "tree": Space.tree_space(TREE_EDGES, TREE_LEAVES),
}
# the wider scales take the recursion; the near-flat one, below tol**(1/3),
# closes at once (or in closed form in E^2 and on one tree geodesic)
SCALES = (5.0, 1.0, 1e-3)


def _masses(kind: str, rng, n: int) -> list:
    if kind == "unit":
        return [1.0] * n
    if kind == "uniform":
        return [rng.uniform(0.5, 2.0) for _ in range(n)]
    if kind == "log-uniform":
        return [10.0 ** rng.uniform(-6.0, 6.0) for _ in range(n)]
    # each at least 2**1023 / n, so the sum reaches 2**1023
    return [math.ldexp(rng.uniform(1.0, 1.9), 1023) / n for _ in range(n)]


@cache
def corpus() -> list:
    """(space, configuration) pairs, 432 of them, in a fixed order."""
    out = []
    for s, space in enumerate(SPACES.values()):
        for n in range(1, 7):
            for k, kind in enumerate(("unit", "uniform", "log-uniform", "near-overflow")):
                rng = spaces.sub_rng(19, 100 * s + 10 * n + k)
                for scale in SCALES:
                    points = [spaces.draw_point(space, rng, scale) for _ in range(n)]
                    config = Configuration.of(space, zip(points, _masses(kind, rng, n)))
                    out.append((space, config))
    return out


def _outcome(call, *args) -> str:
    """The repr of what call(*args) returns or raises."""
    try:
        return repr(call(*args))
    except ConvergenceError as exc:
        return repr(("ConvergenceError", str(exc), exc.result))
    except GeometryError as exc:
        return repr((type(exc).__name__, str(exc)))


def _digest(outcomes) -> str:
    h = hashlib.sha256()
    for outcome in outcomes:
        h.update(outcome.encode() + b"\n")
    return h.hexdigest()


DIGESTS = {
    "center_of_mass": "6c3680e8e94403328c39b6dc700675aec9280923ed8c09de5e66a05642eefd96",
    "leave_one_out_step": "49296baf29dd802e6932a46e6a9e240864dcc061136fa91950ec66e28deb6738",
    "select": "02a3e7598f87f400d70b0ab919a7818b1ce7860e515668664e207eb4dfd88fc1",
    "classify_body": "400d11c19678a2771a9668f530eeddffaee867a7c8e78e149d325db125008cd3",
}


def test_center_of_mass_bits():
    outcomes = (
        _outcome(center_of_mass, space, config, 1e-8, max_iters)
        for space, config in corpus()
        for max_iters in (0, 1, 200)
    )
    assert _digest(outcomes) == DIGESTS["center_of_mass"]


def test_leave_one_out_step_bits():
    outcomes = (_outcome(leave_one_out_step, space, config) for space, config in corpus())
    assert _digest(outcomes) == DIGESTS["leave_one_out_step"]


BODY_SPACES = {name: SPACES[name] for name in ("H1", "H2", "H3", "E2", "tree")}
BODY_SCALES = (300.0, 5.0, 1.0, 1e-9)


def _lifted(*spatial) -> tuple:
    return (math.hypot(1.0, *spatial), *spatial)


def _named_bodies() -> list:
    """(space, body, ideal point): exact level ties from mirrored pairs,
    and a lone contact within the snap band of the tree's branch vertex B."""
    h2, h3, e2, tree = (SPACES[name] for name in ("H2", "H3", "E2", "tree"))
    toward_h2 = IdealPoint.null_vector((1.0, 1.0, 0.0))
    toward_h3 = IdealPoint.null_vector((1.0, 1.0, 0.0, 0.0))
    toward_c = IdealPoint.end("C")
    at = tree.tree.point_toward  # edges 0 (A-B) and 2 (B-D) meet at B, away from C
    return [
        (h2, ConvexBody.of(h2, [_lifted(0.3, 1.0), _lifted(0.3, -1.0)]), toward_h2),
        (h2, ConvexBody.of(h2, [_lifted(0.3, 1.0), _lifted(0.3, -1.0), _lifted(-0.5, 0.2)]), toward_h2),
        (h3, ConvexBody.of(h3, [_lifted(0.3, 0.5, 0.7), _lifted(0.3, 0.5, -0.7)]), toward_h3),
        (e2, ConvexBody.of(e2, [(0.5, 1.0), (0.5, -1.0), (2.0, 0.25)]), IdealPoint.direction((-1.0, 0.0))),
        (tree, ConvexBody.of(tree, [at("B", 0, 3e-5), at("B", 2, 3e-5)]), toward_c),
        (tree, ConvexBody.of(tree, [at("B", 0, 0.4), at("B", 2, 0.4)]), toward_c),
        (tree, ConvexBody.of(tree, [at("B", 2, 5e-5), at("A", 3, 0.5)]), toward_c),
    ]


@cache
def bodies() -> list:
    """(space, body, ideal point) triples, 247 of them, in a fixed order."""
    out = []
    for s, space in enumerate(BODY_SPACES.values()):
        for n in range(1, 7):
            for k, scale in enumerate(BODY_SCALES):
                rng = spaces.sub_rng(42, 100 * s + 10 * n + k)
                for _ in range(2):
                    gens = [spaces.draw_point(space, rng, scale) for _ in range(n)]
                    out.append((space, ConvexBody.of(space, gens), spaces.draw_ideal(space, rng)))
    return out + _named_bodies()


NO_SMOOTHING = SelectOptions(smoothing=False)


def test_select_bits():
    def outcomes():
        for space, body, xi in bodies():
            yield _outcome(select, space, body, xi)
            if space.kind == "tree":
                yield _outcome(select, space, body, xi, NO_SMOOTHING)

    assert _digest(outcomes()) == DIGESTS["select"]


def test_classify_body_bits():
    outcomes = (_outcome(classify_body, space, body, xi) for space, body, xi in bodies())
    assert _digest(outcomes) == DIGESTS["classify_body"]


def test_the_body_corpus_covers_the_selector_cases():
    """Singletons, lone contacts, ties, E^2 non-shrinking bodies, and a
    tree body that smoothing moves."""
    contacts = [len(first_horosphere(space, body, xi)[1]) for space, body, xi in bodies()]
    sizes = [len(body) for _, body, _ in bodies()]
    assert sizes.count(1) >= 5 * 8
    assert sum(c == 1 and n > 1 for c, n in zip(contacts, sizes)) >= 100
    assert sum(c > 1 for c in contacts) >= 5
    e2 = [(body, xi) for space, body, xi in bodies() if space.kind == "euclidean"]
    verdicts = [classify_body(SPACES["E2"], body, xi).verdict for body, xi in e2]
    assert verdicts.count(NON_SHRINKING) >= 20
    tree = [(body, xi) for space, body, xi in bodies() if space.kind == "tree"]
    moved = [select(SPACES["tree"], b, xi) != select(SPACES["tree"], b, xi, NO_SMOOTHING) for b, xi in tree]
    assert any(moved)
