"""Geometry the benchmark computes on its own to check the program's outputs.

Nothing here calls horocenter: the Minkowski product, hyperbolic distance
and horofunction level, the exact null defect and the tree metric are
written out again from their definitions, so a fault in the program's
kernel cannot hide itself by also appearing in the check.
"""

from __future__ import annotations

import math
from fractions import Fraction


def mink(x, y) -> float:
    """Minkowski product with signature (-, +, ..., +)."""
    return -x[0] * y[0] + sum(a * b for a, b in zip(x[1:], y[1:]))


def null_defect(v) -> float:
    """|<v, v>| computed exactly in rationals, then rounded once."""
    f = [Fraction(c) for c in v]
    return abs(float(-f[0] * f[0] + sum(c * c for c in f[1:])))


def hyp_point(radius: float, unit) -> tuple:
    """Point at distance `radius` from (1, 0, ..., 0) in direction `unit`."""
    s = math.sinh(radius)
    return (math.cosh(radius),) + tuple(s * u for u in unit)


def hyp_distance(x, y) -> float:
    d = [a - b for a, b in zip(x, y)]
    q = mink(d, d)
    return 0.0 if q <= 0.0 else 2.0 * math.asinh(0.5 * math.sqrt(q))


def hyp_level(x, xi, o) -> float:
    """Horofunction level log(-<x,xi>) - log(-<o,xi>)."""
    return math.log(-mink(x, xi)) - math.log(-mink(o, xi))


def hyp_step(x, axis: int, eps: float) -> tuple:
    """Move x by geodesic distance eps toward spatial axis `axis`."""
    e = [0.0] * len(x)
    e[axis] = 1.0
    ex = mink(e, x)
    w = [a + ex * b for a, b in zip(e, x)]
    norm = math.sqrt(mink(w, w))
    c, s = math.cosh(eps), math.sinh(eps)
    return tuple(c * a + s * b / norm for a, b in zip(x, w))


def rotate(x, matrix) -> tuple:
    """Apply an orthogonal matrix to the spatial part of a hyperboloid point."""
    spatial = x[1:]
    return (x[0],) + tuple(
        sum(row[j] * spatial[j] for j in range(len(spatial))) for row in matrix
    )


class BenchTree:
    """Metric tree with marked ends, from an edge list [(u, v, length)].

    Points are any objects with `.edge` ("u-v") and `.offset` attributes.
    Offsets past a marked leaf lie on the unbounded extension of its edge.
    """

    def __init__(self, edges, marked):
        self.edges = {f"{u}-{v}": (u, v, float(length)) for u, v, length in edges}
        self.marked = frozenset(marked)
        adj: dict[str, list[tuple[str, float]]] = {}
        for u, v, length in edges:
            adj.setdefault(u, []).append((v, float(length)))
            adj.setdefault(v, []).append((u, float(length)))
        self.adj = adj
        self.leaves = sorted(x for x, nbrs in adj.items() if len(nbrs) == 1)
        self.dist = {a: self._from(a) for a in adj}

    def _from(self, source):
        dist, todo = {source: 0.0}, [source]
        while todo:
            here = todo.pop()
            for other, length in self.adj[here]:
                if other not in dist:
                    dist[other] = dist[here] + length
                    todo.append(other)
        return dist

    def _legs(self, p):
        u, v, length = self.edges[p.edge]
        return ((u, abs(p.offset)), (v, abs(length - p.offset)))

    def distance(self, p, q) -> float:
        if p.edge == q.edge:
            return abs(p.offset - q.offset)
        return min(
            lp + self.dist[a][b] + lq
            for a, lp in self._legs(p)
            for b, lq in self._legs(q)
        )

    def to_vertex(self, p, vertex: str) -> float:
        return min(leg + self.dist[a][vertex] for a, leg in self._legs(p))

    def depth(self, p, leaf: str) -> float:
        """Signed distance to the marked leaf: negative on its extension."""
        u, v, length = self.edges[p.edge]
        if leaf == v and p.offset > length:
            return length - p.offset
        if leaf == u and p.offset < 0.0:
            return p.offset
        return self.to_vertex(p, leaf)

    def path(self, a: str, b: str) -> list[tuple[str, str, str]]:
        """Edges (edge id, from, to) along the vertex path from a to b."""
        prev, todo = {a: None}, [a]
        while todo:
            here = todo.pop()
            for other, _ in self.adj[here]:
                if other not in prev:
                    prev[other] = here
                    todo.append(other)
        hops, here = [], b
        while prev[here] is not None:
            hops.append((prev[here], here))
            here = prev[here]
        hops.reverse()
        out = []
        for x, y in hops:
            eid = f"{x}-{y}" if f"{x}-{y}" in self.edges else f"{y}-{x}"
            out.append((eid, x, y))
        return out

    def point_on_path(self, hops, s: float):
        """(edge id, offset) at arclength s along `hops`; s past the path's
        end continues along its last edge, onto a marked leaf's extension."""
        for eid, x, _y in hops:
            u, _v, length = self.edges[eid]
            if s <= length or eid == hops[-1][0]:
                return eid, (s if u == x else length - s)
            s -= length
        raise ValueError("empty path")
