"""Pinned sha256 digests of the center families, bit for bit.

A fixed corpus of configurations is drawn from the library's own stream
(`spaces.sub_rng`, no numpy): in H^1, H^2, H^3, H^5, E^2 and the conftest
tree, n = 1 to 6 points, with unit, uniform, log-uniform and
near-overflow masses (a sum of at least 2**1023), each at a wide scale,
a middling one and a near-flat one.  Each family hashes the reprs of
what it gives on every configuration: a result, a `ConvergenceError`'s
message and partial result, or a refusal's message.

- `center_of_mass` at max_iters 0, 1 and 200;
- `leave_one_out_step` at the defaults.

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
from horocenter import GeometryError, Space, spaces
from horocenter.barycenter import (
    Configuration,
    ConvergenceError,
    center_of_mass,
    leave_one_out_step,
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
