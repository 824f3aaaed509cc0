"""A 40-digit decimal oracle for the hyperboloid model of H^n.

A point is read as the sheet point over its spatial coordinates,
(sqrt(1 + |y|^2), y), so a float point that is slightly off the sheet
still names one exact point.  sinh and asinh are built from exp, ln and
sqrt, which `decimal` rounds correctly, so the oracle needs nothing
beyond the standard library.  Inputs are floats or Decimals; outputs are
Decimals.
"""

from decimal import Decimal, localcontext
from functools import wraps

DIGITS = 40


def _digits(f):
    @wraps(f)
    def run(*args):
        with localcontext() as ctx:
            ctx.prec = DIGITS
            return f(*args)

    return run


def _sinh(z: Decimal) -> Decimal:
    return (z.exp() - (-z).exp()) / 2


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
def geodesic_point(x, y, t) -> tuple:
    """(sinh((1-t)d) x + sinh(td) y) / sinh d, on the spatial parts, lifted."""
    d, t = distance(x, y), Decimal(t)
    if d == 0:
        return lift(x[1:])
    wx, wy = _sinh((1 - t) * d) / _sinh(d), _sinh(t * d) / _sinh(d)
    return lift(wx * Decimal(a) + wy * Decimal(b) for a, b in zip(x[1:], y[1:]))
