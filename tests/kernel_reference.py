"""The generic hyperbolic kernels, one loop over the coordinates each, kept
as the reference that tests compare `spaces._hyperbolic`'s compiled
families against: the quadrance, the geodesic point, the level `alpha`,
the ray step and the sheet check of `spaces.canonical_point`.  They read
any H^n from the length of their arguments; only `_lift`, `_sinh`,
`_read_back` and the tolerances are shared with the library."""

import math

from horocenter import GeometryError
from horocenter.spaces import HYPERBOLOID_TOL, _lift, _mink, _read_back, _sinh

RAY_X0_MAX = 2.0**39  # spaces._RAY_X0_MAX, where ray points are read back


def quadrance(x, y) -> float:
    """<x-y, x-y> of two points of equal length, summed as _mink sums it,
    one difference at a time, so it does not cancel like <x,x> does."""
    d = x[0] - y[0]
    q = -d * d
    for i in range(1, len(x)):
        d = x[i] - y[i]
        q += d * d
    return q


def geodesic(x, y, t: float, d=None):
    """The point at arclength fraction t from x toward y, d their distance
    if given, in one frame."""
    n = len(x)
    if d is None:
        e = x[0] - y[0]
        q = -e * e
        for i in range(1, n):
            e = x[i] - y[i]
            q += e * e
        d = 0.0 if q <= 0.0 else 2.0 * math.asinh(0.5 * math.sqrt(q))
    if d < 1e-14:
        return x
    # (sinh((1-t)d) x + sinh(td) y) / sinh d, with weights in [0, 1]
    sh = math.sinh(d)
    a, b = math.sinh((1.0 - t) * d) / sh, math.sinh(t * d) / sh
    s = []
    for i in range(1, n):
        s.append(a * x[i] + b * y[i])
    x0 = math.hypot(1.0, *s)
    if not x0 * x0 < math.inf:
        raise GeometryError(f"distance = {d} overflows: the point's x0^2 = {x0 * x0}")
    return (x0, *s)


def alpha(x, v) -> float:
    """-<x, v> for a sheet point x and a null v with v0 in [1, 2), read
    without cancellation; an error unless it is positive."""
    x0, v0 = x[0], v[0]
    dot = 0.0
    for i in range(1, len(x)):
        dot += x[i] * v[i]
    if dot <= 0.0:  # no cancellation: x0 v0 and -dot share a sign
        level = x0 * v0 - dot
    else:
        t = dot / v0
        if x0 > 2.0**12:
            from fractions import Fraction
            y, w = [Fraction(a) for a in x[1:]], [Fraction(b) for b in v[1:]]
            c = sum(a * b for a, b in zip(y, w)) / Fraction(v0) ** 2
            q = float(sum((a - c * b) ** 2 for a, b in zip(y, w)))
        else:
            c, q = t / v0, 0.0
            for i in range(1, len(x)):
                d = x[i] - c * v[i]
                q += d * d
        level = v0 * (1.0 + q) / (x0 + t)
    if not level > 0.0:
        raise GeometryError(f"point {tuple(x)} is off the hyperboloid sheet")
    return level


def ray(v, x, s: float):
    """The ray point at arclength s from x toward the null vector v; x
    itself at s = 0."""
    if not s:
        return x
    sh = _sinh(s, "s", s)
    level = alpha(x, v)
    decay, grow = math.exp(-s), sh / level
    r = _lift([decay * a + grow * n for a, n in zip(x[1:], v[1:])], "s", s)
    return _read_back(alpha, r, v, level * decay, s) if r[0] > RAY_X0_MAX else r


def on_sheet(p) -> bool:
    """Whether p, of the right length, is a plain point that
    canonical_point takes as it is."""
    if not (all(type(c) is float for c in p) and p[0] > 0.0):
        return False
    return abs(_mink(p, p) + 1.0) <= HYPERBOLOID_TOL * p[0] * p[0] < math.inf
