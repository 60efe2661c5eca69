"""Metric graphs with exact rational edge lengths.

A metric graph is a finite connected multigraph whose edges carry positive
rational lengths.  Every edge is a continuum of points: a point is either a
vertex or an interior position on an edge, addressed by an offset from the
edge's first declared endpoint.  All arithmetic is done with
``fractions.Fraction``; no floating point enters any distance computation.
"""

from __future__ import annotations

import heapq
import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence, Union

from .errors import (
    InvalidGraphError,
    InvalidMetricError,
    InvalidPointError,
    PreconditionError,
)

RationalLike = Union[int, str, Fraction]

_RATIONAL_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")


def as_rational(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or ``"p/q"`` string to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InvalidPointError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not _RATIONAL_RE.match(value):
            raise InvalidPointError(f"not a rational literal: {value!r}")
        return Fraction(value)
    raise InvalidPointError(f"not a rational: {value!r}")


def format_rational(value: Fraction) -> str:
    """Render a Fraction as ``"p"`` or ``"p/q"``."""
    return str(value)


# ---------------------------------------------------------------------------
# graph and point model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Edge:
    """One edge of a metric graph.  Parallel edges and self-loops are legal."""

    id: str
    ends: tuple[str, str]
    length: Fraction


@dataclass(frozen=True)
class Vertex:
    """A point sitting exactly at a vertex."""

    vertex: str


@dataclass(frozen=True)
class EdgePoint:
    """An interior point of an edge, ``offset`` away from ``ends[0]``."""

    edge: str
    offset: Fraction


Point = Union[Vertex, EdgePoint]


@dataclass(frozen=True)
class MetricGraph:
    """Immutable connected multigraph with positive rational edge lengths."""

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        seen_v: set[str] = set()
        for v in self.vertices:
            if not isinstance(v, str) or not v:
                raise InvalidGraphError(f"bad vertex id: {v!r}")
            if v in seen_v:
                raise InvalidGraphError(f"duplicate vertex id: {v!r}")
            seen_v.add(v)
        if not seen_v:
            raise InvalidGraphError("graph needs at least one vertex")
        seen_e: set[str] = set()
        for e in self.edges:
            if not isinstance(e.id, str) or not e.id:
                raise InvalidGraphError(f"bad edge id: {e.id!r}")
            if e.id in seen_e:
                raise InvalidGraphError(f"duplicate edge id: {e.id!r}")
            seen_e.add(e.id)
            for end in e.ends:
                if end not in seen_v:
                    raise InvalidGraphError(f"edge {e.id} has unknown endpoint {end!r}")
            if not isinstance(e.length, Fraction) or e.length <= 0:
                raise InvalidGraphError(f"edge {e.id} needs a positive rational length")
        self._check_connected()

    def _check_connected(self) -> None:
        reached = {self.vertices[0]}
        frontier = [self.vertices[0]]
        adj: dict[str, list[str]] = {v: [] for v in self.vertices}
        for e in self.edges:
            adj[e.ends[0]].append(e.ends[1])
            adj[e.ends[1]].append(e.ends[0])
        while frontier:
            v = frontier.pop()
            for w in adj[v]:
                if w not in reached:
                    reached.add(w)
                    frontier.append(w)
        if len(reached) != len(self.vertices):
            raise InvalidGraphError("graph is not connected")

    @cached_property
    def _edge_by_id(self) -> Mapping[str, Edge]:
        return {e.id: e for e in self.edges}

    @cached_property
    def _adjacency(self) -> Mapping[str, tuple[tuple[str, str, Fraction], ...]]:
        # Self-loops are omitted: with positive lengths they never shorten a
        # route between vertices.  Points on a self-loop are reached after
        # refinement splits the loop.
        adj: dict[str, list[tuple[str, str, Fraction]]] = {v: [] for v in self.vertices}
        for e in self.edges:
            a, b = e.ends
            if a == b:
                continue
            adj[a].append((e.id, b, e.length))
            adj[b].append((e.id, a, e.length))
        return {v: tuple(items) for v, items in adj.items()}

    def edge(self, edge_id: str) -> Edge:
        try:
            return self._edge_by_id[edge_id]
        except KeyError:
            raise InvalidPointError(f"unknown edge id: {edge_id!r}") from None

    def has_vertex(self, vertex_id: str) -> bool:
        return vertex_id in self._vertex_set

    @cached_property
    def _vertex_set(self) -> frozenset[str]:
        return frozenset(self.vertices)

    def degree(self, vertex_id: str) -> int:
        """Number of edge ends at the vertex; a self-loop counts twice."""
        if vertex_id not in self._vertex_set:
            raise InvalidPointError(f"unknown vertex id: {vertex_id!r}")
        deg = 0
        for e in self.edges:
            deg += (e.ends[0] == vertex_id) + (e.ends[1] == vertex_id)
        return deg


def build_graph(
    vertices: Iterable[str],
    edges: Iterable[tuple[str, str, str, RationalLike]],
) -> MetricGraph:
    """Build a validated MetricGraph from ``(edge_id, u, v, length)`` rows."""
    edge_recs = tuple(
        Edge(id=eid, ends=(a, b), length=as_rational(length))
        for eid, a, b, length in edges
    )
    return MetricGraph(vertices=tuple(vertices), edges=edge_recs)


def canonical_point(g: MetricGraph, p: Point) -> Point:
    """Validate a point and normalize boundary offsets to Vertex form."""
    if isinstance(p, Vertex):
        if not g.has_vertex(p.vertex):
            raise InvalidPointError(f"unknown vertex id: {p.vertex!r}")
        return p
    if isinstance(p, EdgePoint):
        e = g.edge(p.edge)
        off = as_rational(p.offset)
        if off < 0 or off > e.length:
            raise InvalidPointError(
                f"offset {off} outside [0, {e.length}] on edge {p.edge}"
            )
        if off == 0:
            return Vertex(e.ends[0])
        if off == e.length:
            return Vertex(e.ends[1])
        return EdgePoint(p.edge, off)
    raise InvalidPointError(f"not a point: {p!r}")


def point_label(p: Point) -> str:
    """Readable label: the vertex id, or ``edge@offset`` for interior points."""
    if isinstance(p, Vertex):
        return p.vertex
    return f"{p.edge}@{format_rational(p.offset)}"


# ---------------------------------------------------------------------------
# refinement: turning a set of points into vertices of a finer graph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Refinement:
    """A graph isometric to the original in which chosen points are vertices.

    ``edge_origin`` maps each refined edge to ``(original edge, lo, hi)``:
    walking the refined edge from its first to its second endpoint sweeps the
    original offsets from lo to hi (lo < hi always; orientation preserved).
    """

    graph: MetricGraph
    vertex_of: Mapping[Point, str]
    edge_origin: Mapping[str, tuple[str, Fraction, Fraction]]


def _fresh_id(candidate: str, used: set[str]) -> str:
    while candidate in used:
        candidate = "_" + candidate
    used.add(candidate)
    return candidate


def _refine(g: MetricGraph, points: Sequence[Point]) -> _Refinement:
    canon = [canonical_point(g, p) for p in points]
    by_edge: dict[str, set[Fraction]] = {}
    for p in canon:
        if isinstance(p, EdgePoint):
            by_edge.setdefault(p.edge, set()).add(p.offset)

    used_v: set[str] = set(g.vertices)
    used_e: set[str] = set(e.id for e in g.edges)
    new_vertices: list[str] = list(g.vertices)
    new_edges: list[Edge] = []
    vertex_of: dict[Point, str] = {}
    edge_origin: dict[str, tuple[str, Fraction, Fraction]] = {}

    split_names: dict[tuple[str, Fraction], str] = {}
    for e in g.edges:
        offsets = sorted(by_edge.get(e.id, ()))
        if not offsets:
            new_edges.append(e)
            edge_origin[e.id] = (e.id, Fraction(0), e.length)
            continue
        cut_ids = []
        for off in offsets:
            vid = _fresh_id(f"{e.id}@{format_rational(off)}", used_v)
            cut_ids.append(vid)
            new_vertices.append(vid)
            split_names[(e.id, off)] = vid
        bounds = [Fraction(0), *offsets, e.length]
        stops = [e.ends[0], *cut_ids, e.ends[1]]
        for i in range(len(bounds) - 1):
            eid = _fresh_id(f"{e.id}:{i}", used_e)
            new_edges.append(
                Edge(id=eid, ends=(stops[i], stops[i + 1]), length=bounds[i + 1] - bounds[i])
            )
            edge_origin[eid] = (e.id, bounds[i], bounds[i + 1])

    for p in canon:
        if isinstance(p, Vertex):
            vertex_of[p] = p.vertex
        else:
            vertex_of[p] = split_names[(p.edge, p.offset)]

    refined = MetricGraph(vertices=tuple(new_vertices), edges=tuple(new_edges))
    return _Refinement(
        graph=refined,
        vertex_of=vertex_of,
        edge_origin=edge_origin,
    )


def insert_points(
    g: MetricGraph, points: Sequence[Point]
) -> tuple[MetricGraph, dict[Point, str]]:
    """Return an isometric graph in which every given point is a vertex.

    The mapping is keyed by canonical points; coincident inputs share a key.
    """
    ref = _refine(g, points)
    return ref.graph, dict(ref.vertex_of)


# ---------------------------------------------------------------------------
# shortest paths
# ---------------------------------------------------------------------------


def single_source_distances(
    g: MetricGraph, source: str
) -> dict[str, Fraction]:
    """Exact Dijkstra from a vertex.  All vertices are reachable."""
    if not g.has_vertex(source):
        raise InvalidPointError(f"unknown vertex id: {source!r}")
    dist: dict[str, Fraction] = {source: Fraction(0)}
    done: set[str] = set()
    heap: list[tuple[Fraction, str]] = [(Fraction(0), source)]
    adj = g._adjacency
    while heap:
        d, v = heapq.heappop(heap)
        if v in done:
            continue
        done.add(v)
        for _eid, w, length in adj[v]:
            nd = d + length
            if w not in dist or nd < dist[w]:
                dist[w] = nd
                heapq.heappush(heap, (nd, w))
    return dist


def _dijkstra_with_predecessors(
    g: MetricGraph, source: str
) -> tuple[dict[str, Fraction], dict[str, tuple[str, str]]]:
    """Distances plus a deterministic predecessor map ``v -> (prev, edge)``."""
    dist: dict[str, Fraction] = {source: Fraction(0)}
    pred: dict[str, tuple[str, str]] = {}
    done: set[str] = set()
    heap: list[tuple[Fraction, str]] = [(Fraction(0), source)]
    adj = g._adjacency
    while heap:
        d, v = heapq.heappop(heap)
        if v in done:
            continue
        done.add(v)
        for eid, w, length in adj[v]:
            if w in done:
                continue
            nd = d + length
            better = w not in dist or nd < dist[w]
            tie = w in dist and nd == dist[w] and (v, eid) < pred[w]
            if better or tie:
                dist[w] = nd
                pred[w] = (v, eid)
                if better:
                    heapq.heappush(heap, (nd, w))
    return dist, pred


def distance(g: MetricGraph, p: Point, q: Point) -> Fraction:
    """Exact length of a shortest route between two points."""
    cp = canonical_point(g, p)
    cq = canonical_point(g, q)
    if cp == cq:
        return Fraction(0)
    ref = _refine(g, [cp, cq])
    dist = single_source_distances(ref.graph, ref.vertex_of[cp])
    return dist[ref.vertex_of[cq]]


@dataclass(frozen=True)
class FiniteMetric:
    """A finite metric space given by labels and an exact distance matrix."""

    labels: tuple[str, ...]
    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.labels)
        if len(self.rows) != n or any(len(r) != n for r in self.rows):
            raise InvalidMetricError("distance matrix shape does not match labels")
        for i in range(n):
            if self.rows[i][i] != 0:
                raise InvalidMetricError(f"nonzero diagonal at {i}")
            for j in range(n):
                d = self.rows[i][j]
                if not isinstance(d, Fraction) or d < 0:
                    raise InvalidMetricError(f"bad entry at ({i}, {j}): {d!r}")
                if d != self.rows[j][i]:
                    raise InvalidMetricError(f"asymmetry at ({i}, {j})")
                if i != j and d == 0 and self.labels[i] != self.labels[j]:
                    raise InvalidMetricError(
                        f"zero distance between distinct points {i} and {j}"
                    )
        for i, j, k in itertools.permutations(range(n), 3):
            if self.rows[i][k] > self.rows[i][j] + self.rows[j][k]:
                raise InvalidMetricError(f"triangle violation at ({i}, {j}, {k})")

    @classmethod
    def from_rows(
        cls, labels: Sequence[str], rows: Sequence[Sequence[RationalLike]]
    ) -> "FiniteMetric":
        return cls(
            labels=tuple(labels),
            rows=tuple(tuple(as_rational(x) for x in row) for row in rows),
        )

    @property
    def size(self) -> int:
        return len(self.labels)

    def distance(self, i: int, j: int) -> Fraction:
        return self.rows[i][j]

    def diameter(self) -> Fraction:
        return max((d for row in self.rows for d in row), default=Fraction(0))


def distance_matrix(g: MetricGraph, points: Sequence[Point]) -> FiniteMetric:
    """Exact pairwise distances between the given points, in the given order."""
    canon = [canonical_point(g, p) for p in points]
    ref = _refine(g, canon)
    ids = [ref.vertex_of[p] for p in canon]
    per_source: dict[str, dict[str, Fraction]] = {}
    for vid in ids:
        if vid not in per_source:
            per_source[vid] = single_source_distances(ref.graph, vid)
    rows = tuple(
        tuple(per_source[a][b] for b in ids) for a in ids
    )
    return FiniteMetric(labels=tuple(point_label(p) for p in canon), rows=rows)


@dataclass(frozen=True)
class PathSegment:
    """A maximal stretch of a route along one original edge.

    ``forward`` means original offsets increase from ``start`` to ``end``.
    """

    edge: str
    forward: bool
    start: Fraction
    end: Fraction

    @property
    def length(self) -> Fraction:
        return abs(self.end - self.start)


@dataclass(frozen=True)
class PathResult:
    """A shortest route: alternating points and edge segments."""

    points: tuple[Point, ...]
    segments: tuple[PathSegment, ...]
    length: Fraction


def shortest_path(g: MetricGraph, p: Point, q: Point) -> PathResult:
    """One shortest route between two points, with its geometry spelled out."""
    cp = canonical_point(g, p)
    cq = canonical_point(g, q)
    if cp == cq:
        return PathResult(points=(cp,), segments=(), length=Fraction(0))
    ref = _refine(g, [cp, cq])
    src = ref.vertex_of[cp]
    dst = ref.vertex_of[cq]
    dist, pred = _dijkstra_with_predecessors(ref.graph, src)
    chain: list[tuple[str, str]] = []  # (refined edge id, arriving vertex)
    v = dst
    while v != src:
        prev, eid = pred[v]
        chain.append((eid, v))
        v = prev
    chain.reverse()

    raw_segments: list[PathSegment] = []
    walk = src
    for eid, arrive in chain:
        orig, lo, hi = ref.edge_origin[eid]
        edge = ref.graph.edge(eid)
        forward = edge.ends[0] == walk and edge.ends[1] == arrive
        if forward:
            raw_segments.append(PathSegment(edge=orig, forward=True, start=lo, end=hi))
        else:
            raw_segments.append(PathSegment(edge=orig, forward=False, start=hi, end=lo))
        walk = arrive

    merged: list[PathSegment] = []
    for seg in raw_segments:
        if (
            merged
            and merged[-1].edge == seg.edge
            and merged[-1].forward == seg.forward
            and merged[-1].end == seg.start
        ):
            last = merged.pop()
            merged.append(
                PathSegment(edge=seg.edge, forward=seg.forward, start=last.start, end=seg.end)
            )
        else:
            merged.append(seg)

    pts: list[Point] = [cp]
    for seg in merged[:-1]:
        e = g.edge(seg.edge)
        off = seg.end
        pts.append(canonical_point(g, EdgePoint(seg.edge, off)))
    pts.append(cq)
    return PathResult(points=tuple(pts), segments=tuple(merged), length=dist[dst])


# ---------------------------------------------------------------------------
# graph surgery
# ---------------------------------------------------------------------------


def subdivide(g: MetricGraph, k: int) -> MetricGraph:
    """Replace every unit edge by a path of ``k + 1`` unit edges.

    Requires all edge lengths to equal 1 so the result is again a unit graph.
    New ids are deterministic functions of the original edge ids.
    """
    if not isinstance(k, int) or k < 1:
        raise PreconditionError(f"subdivision count must be a positive integer, got {k!r}")
    for e in g.edges:
        if e.length != 1:
            raise PreconditionError(f"subdivide needs unit edge lengths; edge {e.id} has {e.length}")
    used_v: set[str] = set(g.vertices)
    used_e: set[str] = set()
    vertices: list[str] = list(g.vertices)
    edges: list[Edge] = []
    one = Fraction(1)
    for e in g.edges:
        stops = [e.ends[0]]
        for i in range(1, k + 1):
            vid = _fresh_id(f"{e.id}.{i}", used_v)
            vertices.append(vid)
            stops.append(vid)
        stops.append(e.ends[1])
        for i in range(k + 1):
            eid = _fresh_id(f"{e.id}:{i}", used_e)
            edges.append(Edge(id=eid, ends=(stops[i], stops[i + 1]), length=one))
    return MetricGraph(vertices=tuple(vertices), edges=tuple(edges))


def scale(g: MetricGraph, t: RationalLike) -> MetricGraph:
    """Multiply every edge length by a positive rational factor."""
    factor = as_rational(t)
    if factor <= 0:
        raise PreconditionError(f"scale factor must be positive, got {factor}")
    return MetricGraph(
        vertices=g.vertices,
        edges=tuple(Edge(id=e.id, ends=e.ends, length=e.length * factor) for e in g.edges),
    )
