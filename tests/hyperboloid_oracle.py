"""A 40-digit decimal oracle for the hyperboloid model of H^n.

A point is read as the sheet point over its spatial coordinates,
(sqrt(1 + |y|^2), y), so a float point that is slightly off the sheet
still names one exact point.  sinh and asinh are built from exp, ln and
sqrt, which `decimal` rounds correctly, so the oracle needs nothing
beyond the standard library.  Inputs are floats or Decimals; outputs are
Decimals.

`level` reads a null vector's components as exact, as the library does,
and `ray_separation` is the closed form that the library evaluates.
`center` runs the leave-one-out construction to a diameter of about
1e-30, and `projected_mean` is the sheet projection of an ambient
weighted mean.
"""

from decimal import Decimal, localcontext
from functools import wraps
from itertools import combinations

DIGITS = 40
LIMIT = Decimal("1e-30")  # the diameter at which `center` stops
_MAX_STEPS = 30


def _digits(f):
    @wraps(f)
    def run(*args):
        with localcontext() as ctx:
            ctx.prec = DIGITS
            return f(*args)

    return run


def _sinh(z: Decimal) -> Decimal:
    """(e^z - e^-z) / 2, with the digits that the difference cancels for
    small z carried as extra working precision."""
    with localcontext() as ctx:
        ctx.prec += max(0, -z.adjusted())
        s = (z.exp() - (-z).exp()) / 2
    return +s


def _asinh(z: Decimal) -> Decimal:
    return (z + (z * z + 1).sqrt()).ln()


@_digits
def lift(spatial) -> tuple:
    """The sheet point over spatial coordinates `spatial`."""
    y = [Decimal(c) for c in spatial]
    return (sum(c * c for c in y) + 1).sqrt(), *y


@_digits
def distance(x, y) -> Decimal:
    """d(x, y) = 2 asinh(sqrt(<x-y, x-y>) / 2), with x, y read by `lift`."""
    x, y = lift(x[1:]), lift(y[1:])
    q = sum((a - b) ** 2 for a, b in zip(x[1:], y[1:])) - (x[0] - y[0]) ** 2
    return 2 * _asinh(max(q, Decimal(0)).sqrt() / 2)


@_digits
def level(x, v) -> Decimal:
    """log(-<x, v>) - log(v0), the horofunction level toward the null
    vector v, with x read as `lift` reads it.  Far toward v the product
    cancels by up to x0^2, so it is taken with twice the digits."""
    with localcontext() as ctx:
        ctx.prec = 2 * DIGITS
        y, v = [Decimal(c) for c in x[1:]], [Decimal(c) for c in v]
        x0 = (sum(c * c for c in y) + 1).sqrt()
        alpha = x0 * v[0] - sum(a * b for a, b in zip(y, v[1:]))
    return +(alpha.ln() - v[0].ln())


@_digits
def ray_separation(x, y, v, s) -> Decimal:
    """d(s) between the rays from x and y toward the null vector v, from
    cosh d(s) - 1 = 2 sinh^2(g/2) + 2 (sinh^2(d0/2) - sinh^2(g/2)) e^{-2s},
    with d0 = distance(x, y) and g the level gap level(x, v) - level(y, v)."""
    a2 = _sinh(distance(x, y) / 2) ** 2
    g2 = _sinh((level(x, v) - level(y, v)) / 2) ** 2
    cm1 = 2 * (g2 + (a2 - g2) * (-2 * Decimal(s)).exp())
    return 2 * _asinh(max(cm1 / 2, Decimal(0)).sqrt())


@_digits
def geodesic_point(x, y, t) -> tuple:
    """(sinh((1-t)d) x + sinh(td) y) / sinh d, on the spatial parts, lifted."""
    d, t = distance(x, y), Decimal(t)
    if d == 0:
        return lift(x[1:])
    wx, wy = _sinh((1 - t) * d) / _sinh(d), _sinh(t * d) / _sinh(d)
    return lift(wx * Decimal(a) + wy * Decimal(b) for a, b in zip(x[1:], y[1:]))


@_digits
def projected_mean(points, masses) -> tuple:
    """v / sqrt(-<v,v>) for v the mass-weighted mean of the lifted points."""
    points, masses = [lift(p[1:]) for p in points], [Decimal(m) for m in masses]
    total = sum(masses)
    v = [sum(m * p[k] for p, m in zip(points, masses)) / total for k in range(len(points[0]))]
    s = (v[0] * v[0] - sum(c * c for c in v[1:])).sqrt()
    return lift(c / s for c in v[1:])


@_digits
def center(points, masses) -> tuple:
    """The limit of the leave-one-out construction: each point moves to
    its two-point center with the center of the others, which carry mass
    M - m_i, and the masses become (M - m_i)/(n - 1), until the diameter
    is below LIMIT."""
    points, masses = [lift(p[1:]) for p in points], [Decimal(m) for m in masses]
    n = len(points)
    if n == 2:
        return geodesic_point(points[0], points[1], masses[1] / (masses[0] + masses[1]))
    for _ in range(_MAX_STEPS):
        if max(distance(x, y) for x, y in combinations(points, 2)) < LIMIT:
            return points[0]
        total = sum(masses)
        points = [
            geodesic_point(
                x, center(points[:i] + points[i + 1 :], masses[:i] + masses[i + 1 :]),
                (total - m) / total,
            )
            for i, (x, m) in enumerate(zip(points, masses))
        ]
        masses = [(total - m) / (n - 1) for m in masses]
    raise ArithmeticError(f"no convergence to {LIMIT} in {_MAX_STEPS} steps")
