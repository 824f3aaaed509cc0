"""Finite metric trees with marked ends.

A tree space is a connected acyclic graph with strictly positive edge
lengths.  Points live on edges as (edge id, offset), the offset measured
from the edge's first vertex.  Degree-1 vertices may be marked as ideal
leaves: the edge of a marked leaf extends past the leaf without bound,
so offsets outside the physical range are legal there, and rays to
infinity, hence horofunctions, exist on a finite topology.  Each end's
frame and each vertex's point are derived once, when the tree is built.

Distances between arbitrary edge points reduce to leg-to-endpoint plus
vertex-to-vertex terms; both legs use |offset - endpoint offset|, which
stays correct on extended edges (the path simply runs through the leaf).
Every route adds its two legs before the vertex distance, and the vertex
table holds one sum per vertex pair, so distances are symmetric to the
bit: d(p, q) == d(q, p).
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import GeometryError

# Offsets this close to a vertex are canonicalized onto it, so point
# equality across incident edges is well defined.
VERTEX_SNAP = 1e-12


class TreeError(GeometryError):
    """Invalid tree topology or tree point."""


class TreePoint(namedtuple("TreePoint", "edge offset")):
    """Position on a tree edge: offset from the edge's first vertex."""

    __slots__ = ()


TreeEdge = namedtuple("TreeEdge", "u v length eid index")


class Tree:
    """Immutable tree topology with precomputed vertex metrics.

    Construction validates connectivity, acyclicity and the ideal-leaf
    marks, and derives once all-pairs vertex distances, per-source
    predecessor tables (trees here are desk sized, so quadratic tables
    are the simplest), vertex points and end frames (``ends``, by leaf).
    """

    def __init__(self, edges, ideal_leaves=(), basepoint=None):
        if not edges:
            raise TreeError("a tree needs at least one edge")
        self.edges: list[TreeEdge] = []
        self._by_id: dict[str, TreeEdge] = {}
        adjacency: dict[str, list[tuple[str, int]]] = {}
        for i, (u, v, length) in enumerate(edges):
            u, v = str(u), str(v)
            if "-" in u or "-" in v:
                raise TreeError(f"vertex names must not contain '-': {u!r}, {v!r}")
            if u == v:
                raise TreeError(f"self-loop at vertex {u!r}")
            length = float(length)
            if not math.isfinite(length) or length <= 0.0:
                raise TreeError(f"edge {u}-{v} must have positive length, got {length}")
            eid = f"{u}-{v}"
            if eid in self._by_id or f"{v}-{u}" in self._by_id:
                raise TreeError(f"duplicate edge {eid}")
            edge = TreeEdge(u, v, length, eid, i)
            self.edges.append(edge)
            self._by_id[eid] = edge
            adjacency.setdefault(u, []).append((v, i))
            adjacency.setdefault(v, []).append((u, i))
        self.vertices: list[str] = sorted(adjacency)
        if len(self.edges) != len(self.vertices) - 1:
            raise TreeError("edge count must equal vertex count minus one")
        self.adjacency = adjacency
        # a vertex's first neighbour lies along its lowest-index edge
        self._vertex_points = {v: self.point_toward(v, n[0][1], 0.0) for v, n in adjacency.items()}

        self._dist: dict[str, dict[str, float]] = {}
        self._prev: dict[str, dict[str, int]] = {}
        for source in self.vertices:
            dist, prev = self._scan_from(source)
            if len(dist) != len(self.vertices):
                raise TreeError("tree is not connected")
            # one scan per vertex pair, so the table is symmetric to the bit
            for other, row in self._dist.items():
                dist[other] = row[source]
            self._dist[source] = dist
            self._prev[source] = prev

        if isinstance(ideal_leaves, str):  # would mark its characters
            raise TreeError(f"ideal_leaves must be a collection of names, got {ideal_leaves!r}")
        self.ideal_leaves = frozenset(str(x) for x in ideal_leaves)
        self.ends: dict[str, tuple[TreeEdge, float, TreePoint]] = {}
        for leaf in sorted(self.ideal_leaves):
            if leaf not in adjacency:
                raise TreeError(f"unknown ideal leaf {leaf!r}")
            if len(adjacency[leaf]) != 1:
                raise TreeError(f"ideal leaf {leaf!r} must have degree 1")
            e = self.edges[adjacency[leaf][0][1]]
            self.ends[leaf] = (e, 1.0 if e.v == leaf else -1.0, self._vertex_points[leaf])
        self.branch_vertices = tuple(
            vert for vert in self.vertices if len(adjacency[vert]) >= 3
        )
        if basepoint is None:
            basepoint = TreePoint(self.edges[0].eid, 0.0)
        self.basepoint = base = self.canonical(basepoint)
        # each level toward an end subtracts the basepoint's depth: read it once
        self.base_depth = {x: self.depth_toward_end(base, x) for x in self.ideal_leaves}

    def _scan_from(self, source: str):
        dist = {source: 0.0}
        prev: dict[str, int] = {}
        stack = [source]
        while stack:
            here = stack.pop()
            for other, ei in self.adjacency[here]:
                if other not in dist:
                    dist[other] = dist[here] + self.edges[ei].length
                    prev[other] = ei
                    stack.append(other)
        return dist, prev

    # -- lookups ---------------------------------------------------------

    def edge(self, eid: str) -> TreeEdge:
        try:
            return self._by_id[eid]
        except KeyError:
            raise TreeError(f"unknown edge {eid!r}") from None

    def end(self, leaf: str) -> tuple[TreeEdge, float, TreePoint]:
        """(leaf edge, sign of offset steps outward, leaf point) of an end."""
        try:
            return self.ends[leaf]
        except KeyError:
            raise TreeError(f"{leaf!r} is not a marked ideal leaf") from None

    def vertex_path(self, a: str, b: str) -> list[int]:
        """Edge indices along the unique vertex path from a to b."""
        prev = self._prev[a]
        path = []
        here = b
        while here != a:
            ei = prev[here]
            path.append(ei)
            e = self.edges[ei]
            here = e.u if e.v == here else e.v
        path.reverse()
        return path

    # -- points ----------------------------------------------------------

    def vertex_point(self, vertex: str) -> TreePoint:
        """Canonical point at a vertex: on its lowest-index incident edge."""
        if vertex not in self._vertex_points:
            raise TreeError(f"unknown vertex {vertex!r}")
        return self._vertex_points[vertex]

    def canonical(self, p: TreePoint) -> TreePoint:
        """p as the aggregates store it, or an error naming its edge or
        offset: the vertex's point within VERTEX_SNAP of a vertex, else p
        itself if it is a plain TreePoint of a str and a float, so that
        every aggregate that holds it shares it, else a copy of that form.
        An offset of type float inside its edge, farther than VERTEX_SNAP
        from both vertices, passes every check below at once."""
        try:
            e = self._by_id[p.edge]
        except (KeyError, TypeError):  # TypeError: an unhashable id
            raise TreeError(f"unknown edge {p.edge!r}") from None
        off = p.offset
        inside = type(off) is float and VERTEX_SNAP < off and VERTEX_SNAP < e.length - off
        if not inside:
            try:
                finite = math.isfinite(off)
            except TypeError:
                raise TreeError(f"offset on edge {e.eid} must be a number, got {off!r}") from None
            except OverflowError:  # an int past the double range
                finite = False
            if not finite:
                raise TreeError(f"non-finite offset on edge {e.eid}")
            if off < -VERTEX_SNAP and e.u not in self.ideal_leaves:
                raise TreeError(f"offset {off} below edge {e.eid}")
            if off > e.length + VERTEX_SNAP and e.v not in self.ideal_leaves:
                raise TreeError(f"offset {off} beyond edge {e.eid} of length {e.length}")
            if abs(off) <= VERTEX_SNAP:
                return self._vertex_points[e.u]
            if abs(off - e.length) <= VERTEX_SNAP:
                return self._vertex_points[e.v]
        if type(p) is TreePoint and type(p.edge) is str and type(off) is float:
            return p
        return TreePoint(e.eid, float(off))

    # -- metric ----------------------------------------------------------

    def _route(self, p: TreePoint, q: TreePoint):
        """The geodesic from p to q as (length, exit, exit_off, entry, entry_off).

        It leaves p's edge at vertex `exit` (offset `exit_off` there),
        follows the vertex path to `entry` and enters q's edge at offset
        `entry_off`; on a shared edge exit and entry are None and both
        offsets are p's.
        """
        ep, eq = self.edge(p.edge), self.edge(q.edge)
        if ep.index == eq.index:
            return abs(p.offset - q.offset), None, p.offset, None, p.offset
        best = None
        for a, a_off in ((ep.u, 0.0), (ep.v, ep.length)):
            leg_p, row = abs(p.offset - a_off), self._dist[a]
            for b, b_off in ((eq.u, 0.0), (eq.v, eq.length)):
                total = row[b] + (leg_p + abs(q.offset - b_off))
                if best is None or total < best[0]:
                    best = (total, a, a_off, b, b_off)
        return best

    def distance(self, p: TreePoint, q: TreePoint) -> float:
        return self._route(p, q)[0]

    def walk(self, p: TreePoint, q: TreePoint, s: float) -> TreePoint:
        """Point at arclength s from p along the unique geodesic toward q."""
        return self._follow(p, q, self._route(p, q), s)

    def _follow(self, p: TreePoint, q: TreePoint, route, s: float) -> TreePoint:
        """Point at arclength s from p along `route`, which is _route(p, q)."""
        if s <= 0.0:
            return p
        _, exit_, exit_off, entry, entry_off = route
        if exit_ is not None:
            leg = abs(p.offset - exit_off)
            if s <= leg:
                return TreePoint(p.edge, p.offset + (s if exit_off >= p.offset else -s))
            s -= leg
            here = exit_
            for ei in self.vertex_path(exit_, entry):
                e = self.edges[ei]
                if s <= e.length:
                    return TreePoint(e.eid, s if e.u == here else e.length - s)
                s -= e.length
                here = e.v if e.u == here else e.u
        return TreePoint(q.edge, entry_off + (s if q.offset >= entry_off else -s))

    def runs(self, p: TreePoint, q: TreePoint) -> list[tuple[int, float, float]]:
        """The geodesic from p to q as (edge index, start, end) offset runs.

        The runs follow the route that `distance` and `walk` take, in
        order from p; each covers its edge from offset `start` to `end`.
        `_follow` walks the same route without building the list, which
        keeps the recursion's tree geodesic points cheap.
        """
        _, exit_, exit_off, entry, entry_off = self._route(p, q)
        ep, eq = self.edge(p.edge), self.edge(q.edge)
        if exit_ is None:
            return [(ep.index, p.offset, q.offset)]
        out = [(ep.index, p.offset, exit_off)]
        here = exit_
        for ei in self.vertex_path(exit_, entry):
            e = self.edges[ei]
            forward = e.u == here
            out.append((ei, 0.0, e.length) if forward else (ei, e.length, 0.0))
            here = e.v if forward else e.u
        out.append((eq.index, entry_off, q.offset))
        return out

    def placements(self, p: TreePoint) -> list[tuple[int, float]]:
        """Every (edge index, offset) that names p.

        A point inside an edge has one; a vertex has one per incident
        edge, whichever edge its canonical form picked.
        """
        e = self.edge(p.edge)
        if p.offset == 0.0:
            vertex = e.u
        elif p.offset == e.length:
            vertex = e.v
        else:
            return [(e.index, p.offset)]
        return [
            (ei, 0.0 if self.edges[ei].u == vertex else self.edges[ei].length)
            for _, ei in self.adjacency[vertex]
        ]

    # -- rays to a marked end ---------------------------------------------

    def ray(self, p: TreePoint, leaf: str, s: float) -> TreePoint:
        """Point at arclength s from p along the ray toward the end at leaf."""
        e, outward, anchor = self.end(leaf)
        if p.edge == e.eid:
            return TreePoint(e.eid, p.offset + outward * s)
        route = self._route(p, anchor)
        if s <= route[0]:
            return self._follow(p, anchor, route, s)
        return TreePoint(e.eid, anchor.offset + outward * (s - route[0]))

    def depth_toward_end(self, p: TreePoint, leaf: str) -> float:
        """Signed distance to the leaf anchor; negative past the leaf."""
        e, outward, anchor = self.end(leaf)
        if p.edge == e.eid:
            return -outward * (p.offset - anchor.offset)
        return self.distance(p, anchor)

    # -- assorted helpers --------------------------------------------------

    def point_toward(self, vertex: str, edge_index: int, depth: float) -> TreePoint:
        """Point at the given depth from a vertex into one incident edge."""
        e = self.edges[edge_index]
        if e.u == vertex:
            return TreePoint(e.eid, depth)
        if e.v == vertex:
            return TreePoint(e.eid, e.length - depth)
        raise TreeError(f"edge {e.eid} is not incident to {vertex!r}")

    def nearest_branch_vertex(self, p: TreePoint) -> tuple[str | None, float]:
        best, best_d = None, math.inf
        for vert in self.branch_vertices:
            d = self.distance(p, self.vertex_point(vert))
            if d < best_d:
                best, best_d = vert, d
        return best, best_d

    def random_physical_point(self, rng) -> TreePoint:
        e = self.edges[int(rng.integers(len(self.edges)))]
        return TreePoint(e.eid, float(rng.uniform(0.0, e.length)))

    def random_walk_shift(self, p: TreePoint, step: float, rng) -> TreePoint:
        """Walk distance `step` from p, branching uniformly at vertices.

        Dead ends at unmarked leaves stop the walk short; marked leaves
        continue onto the ideal extension.
        """
        e = self.edge(p.edge)
        off = p.offset
        heading_v = bool(rng.integers(2))
        remaining = step
        while remaining > 0.0:
            stop_vertex, boundary = (e.v, e.length) if heading_v else (e.u, 0.0)
            gap = math.inf if stop_vertex in self.ideal_leaves else abs(boundary - off)
            if remaining <= gap:
                return TreePoint(e.eid, off + (remaining if heading_v else -remaining))
            remaining -= gap
            choices = [ei for _, ei in self.adjacency[stop_vertex] if ei != e.index]
            if not choices:
                return self.vertex_point(stop_vertex)
            e = self.edges[choices[int(rng.integers(len(choices)))]]
            heading_v = e.u == stop_vertex
            off = 0.0 if heading_v else e.length
        return TreePoint(e.eid, off)
