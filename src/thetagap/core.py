"""Metric graphs with exact rational edge lengths.

A metric graph is a finite connected multigraph whose edges carry positive
rational lengths.  Every edge is a continuum of points: a point is either a
vertex or an interior position on an edge, addressed by an offset from the
edge's first declared endpoint.  Lengths and distances are exact rationals:
``fractions.Fraction`` at the API, and inside, integers over one common
denominator (the LCM of the length and offset denominators for shortest
paths).  A ``FiniteMetric`` is its labels, an integer matrix ``D`` and a
denominator ``den`` in lowest terms; ``distance`` forms one Fraction.

Construction walks each graph once into its chain skeleton
(``_walk_chains``): the stops, its vertices of degree other than 2, and the
chains of degree-2 vertices between them, with integer lengths and the
place of every vertex and edge on its chain.  The connectivity check, the
point kernel and the contraction of a witness's subdivision read the
skeleton; the minimal theta's block chains come from the same walker
(``_degree_two_chains``).

Points become distances in one place, ``distance_matrix``; ``distance`` is
its two-point case.  The point kernel is built from the skeleton: its nodes
are the stops and the points, the chains that carry points are split at
them, non-point nodes of degree 1 are pruned, those of degree 2 are spliced
into one edge, and of parallel edges only the shortest is kept, so a fine
subdivision, almost all chain, gives a kernel of a few nodes.  One min-plus
closure of the kernel (``_closure``, Floyd's recurrence on numpy arrays)
gives every distance; it is the package's one shortest-path routine.  Its
result is proved by the optimality conditions of the kernel's arcs
(``_is_closure``), not by the triangle test that a metric given as rows
passes.  No floating point enters any distance computation.
"""

from __future__ import annotations

import itertools
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence, Union

import numpy as np

from .errors import (
    InternalCheckError,
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
        num, _, den = value.partition("/")
        try:
            return Fraction(int(num), int(den)) if den else Fraction(int(num))
        except ValueError:  # more digits than Python converts from a string
            raise InvalidPointError(
                f"rational literal of {len(value)} characters exceeds the "
                f"{sys.get_int_max_str_digits()}-digit integer conversion limit"
            ) from None
    raise InvalidPointError(f"not a rational: {value!r}")


def _literal_reader() -> Callable[[object], Fraction]:
    """``as_rational`` that parses each distinct string literal once.

    Values are read in order, so the first bad literal still raises
    first, with the message ``as_rational`` gives it."""
    parsed: dict[str, Fraction] = {}

    def read(value: object) -> Fraction:
        if not isinstance(value, str):
            return as_rational(value)
        x = parsed.get(value)
        if x is None:
            x = parsed[value] = as_rational(value)
        return x

    return read


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
    """Immutable connected multigraph with positive rational edge lengths.

    Construction walks the graph once into its chain skeleton
    (``_skeleton``, see ``_walk_chains``): the stops, the vertices whose
    degree is not 2 (a self-loop counts twice), or the least vertex when
    there is none; the chains of degree-2 vertices between stops, with
    integer lengths in 1/``_scale``; for each chain-interior vertex its
    (chain, offset); and for each edge its (chain, offset of its first end,
    direction).  The connectivity check, the point kernel and the
    contraction of a witness's subdivision read it.
    """

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        if not self._valid_in_bulk():
            self._check_items()
        self._check_connected()

    def _valid_in_bulk(self) -> bool:
        """Whether ids, endpoints and lengths are valid, tested on whole
        collections at once.  False when any test fails or cannot run;
        ``_check_items`` then names the first fault."""
        try:
            vertex_set = set(self.vertices)
            edge_ids = {e.id for e in self.edges}
            ends = {end for e in self.edges for end in e.ends}
            lengths = [e.length for e in self.edges]
        except (TypeError, AttributeError):  # an unhashable id or a non-edge
            return False
        return (
            0 < len(vertex_set) == len(self.vertices)
            and len(edge_ids) == len(self.edges)
            and set(map(type, vertex_set | edge_ids)) <= {str}
            and "" not in vertex_set
            and "" not in edge_ids
            and ends <= vertex_set
            and set(map(type, lengths)) <= {Fraction}
            and min((x.numerator for x in lengths), default=1) > 0
        )

    def _check_items(self) -> None:
        """The item-by-item checks, raising ``InvalidGraphError`` at the
        first bad vertex or edge."""
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
                if not isinstance(end, str) or end not in seen_v:
                    raise InvalidGraphError(f"edge {e.id} has unknown endpoint {end!r}")
            if not isinstance(e.length, Fraction) or e.length <= 0:
                raise InvalidGraphError(f"edge {e.id} needs a positive rational length")

    def _check_connected(self) -> None:
        """Every vertex is a stop or lies on a chain, and the chains
        connect the stops."""
        stops, chains, at, _ = self._skeleton
        links: dict[str, list[str]] = {s: [] for s in stops}
        for a, b, _, _ in chains:
            links[a].append(b)
            links[b].append(a)
        reached = {stops[0]}
        frontier = [stops[0]]
        while frontier:
            for w in links[frontier.pop()]:
                if w not in reached:
                    reached.add(w)
                    frontier.append(w)
        if len(reached) + len(at) != len(self.vertices):
            raise InvalidGraphError("graph is not connected")

    @cached_property
    def _edge_by_id(self) -> Mapping[str, Edge]:
        return {e.id: e for e in self.edges}

    @cached_property
    def _scale(self) -> int:
        """LCM of the edge-length denominators: it makes every length an integer."""
        return math.lcm(*(e.length.denominator for e in self.edges))

    @cached_property
    def _adjacency(self) -> Mapping[str, list[tuple[str, str, int, bool]]]:
        # The one adjacency of the graph: the chain walker and the block
        # search read it.  Each vertex lists (edge id, neighbour, length,
        # whether the vertex is the edge's first end) for each edge end it
        # holds, so a self-loop twice and the list is as long as the degree;
        # the block search skips loops, which join no two vertices.  Lengths
        # are in units of 1/_scale, an exact rescaling that keeps every
        # comparison and tie.
        scale = self._scale
        adj: dict[str, list[tuple[str, str, int, bool]]] = {v: [] for v in self.vertices}
        for e in self.edges:
            a, b = e.ends
            x = e.length
            length = x.numerator if scale == 1 else x.numerator * (scale // x.denominator)
            adj[a].append((e.id, b, length, True))
            adj[b].append((e.id, a, length, a == b))
        return adj

    @cached_property
    def _skeleton(self) -> "_Skeleton":
        return _walk_chains(self._adjacency)

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


# A chain: its start and end stop, its walk from the start as ((edge id,
# forward), ...), forward when the walk enters the edge at its first end,
# and its length in 1 / g._scale.
_Chain = tuple[str, str, tuple[tuple[str, bool], ...], int]


class _Skeleton(NamedTuple):
    """The stops and chains of a graph, as ``_walk_chains`` finds them."""

    stops: list[str]
    chains: list[_Chain]
    # chain-interior vertex -> (chain index, offset from the chain's start)
    at: dict[str, tuple[int, int]]
    # edge id -> (chain index, offset of its first end, forward)
    on: dict[str, tuple[int, int, bool]]


def _walk_chains(
    incidence: Mapping[str, Sequence[tuple[str, str, int, bool]]]
) -> _Skeleton:
    """The chains of degree-2 vertices of the graph whose vertices list
    their edges in ``incidence`` as ``MetricGraph._adjacency`` does: (edge
    id, neighbour, length in 1 / g._scale, first end), a self-loop twice.

    The stops are the vertices whose degree is not 2, sorted, or the least
    vertex when every degree is 2.  Each chain is a walk from a stop
    through degree-2 vertices to the next stop; a chain may end where it
    started, and parallel chains are kept apart.  Chains are listed by
    start stop, then by the sorted (edge id, neighbour) pairs there, and
    each edge lies on exactly one chain.  Offsets and lengths are sums of
    the listed integer lengths.
    """
    stops = sorted(v for v, items in incidence.items() if len(items) != 2) or [min(incidence)]
    stop_set = set(stops)
    chains: list[_Chain] = []
    at: dict[str, tuple[int, int]] = {}
    on: dict[str, tuple[int, int, bool]] = {}
    for start in stops:
        for eid, nxt, length, forward in sorted(incidence[start]):
            if eid in on:
                continue
            c = len(chains)
            walk: list[tuple[str, bool]] = []
            offset = 0
            while True:
                on[eid] = (c, offset if forward else offset + length, forward)
                walk.append((eid, forward))
                offset += length
                here = nxt
                if here in stop_set:
                    break
                at[here] = (c, offset)
                # a vertex of degree 2 that is not a stop has one other edge
                a, b = incidence[here]
                eid, nxt, length, forward = b if a[0] == eid else a
            chains.append((start, here, tuple(walk), offset))
    return _Skeleton(stops, chains, at, on)


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
# shortest paths
# ---------------------------------------------------------------------------


Node = Union[str, tuple[str, int]]


def _point_kernel(
    g: MetricGraph, points: Sequence[Point]
) -> tuple[dict[Node, dict[Node, int]], list[Node], int]:
    """A graph on which the distances between the canonical ``points`` are
    those of ``g``, as (adjacency, node of each point, scale): each node
    maps its neighbours to integer lengths in units of ``1 / scale``.

    ``scale`` is the LCM of ``g._scale`` and the offsets' denominators, so
    every offset is an integer number of units.  The kernel is built from
    the chain skeleton of ``g`` (see ``MetricGraph``): its nodes are the
    stops, by id, and the points, a vertex by its id and an interior point
    as (edge id, offset in units).  Each point is placed on its chain by
    the skeleton's offsets; a chain that carries points is split at them,
    and any other chain is one edge between its stops.  Of parallel edges
    only the shortest is kept, and a chain from a stop back to itself
    without points is left out: it never shortens a route.  Then, until
    none is left, a node that is not a point with one neighbour is pruned,
    since no shortest route between other nodes enters it, and one with
    two neighbours is spliced into a single edge as long as its two.
    """
    scale = math.lcm(g._scale, *(p.offset.denominator for p in points if isinstance(p, EdgePoint)))
    factor = scale // g._scale
    stops, chains, at, on = g._skeleton
    nodes: list[Node] = []
    carried: dict[int, dict[int, Node]] = {}  # chain -> {position in units: node}
    for p in points:
        if isinstance(p, Vertex):
            node: Node = p.vertex
            place = at.get(node)
            if place is None:  # a stop
                nodes.append(node)
                continue
            c, position = place[0], place[1] * factor
        else:
            x = p.offset.numerator * (scale // p.offset.denominator)
            node = (p.edge, x)
            c, first, forward = on[p.edge]
            position = first * factor + (x if forward else -x)
        carried.setdefault(c, {})[position] = node
        nodes.append(node)
    adj: dict[Node, dict[Node, int]] = {v: {} for v in stops}

    def link(x: Node, y: Node, length: int) -> None:
        nx, ny = adj.setdefault(x, {}), adj.setdefault(y, {})
        if y not in nx or length < nx[y]:
            nx[y] = ny[x] = length

    for c, (a, b, _, length) in enumerate(chains):
        marks = carried.get(c)
        if marks is None:
            if a != b:
                link(a, b, length * factor)
            continue
        cuts = sorted(marks)
        seq = [a, *(marks[x] for x in cuts), b]
        ends = [0, *cuts, length * factor]
        for x, y, lo, hi in zip(seq, seq[1:], ends, ends[1:]):
            link(x, y, hi - lo)
    keep = set(nodes)
    stack = [v for v, nbrs in adj.items() if len(nbrs) <= 2]
    while stack:
        v = stack.pop()
        nbrs = adj.get(v)
        if nbrs is None or len(nbrs) > 2 or v in keep:
            continue
        del adj[v]
        for w in nbrs:
            del adj[w][v]
            stack.append(w)
        if len(nbrs) == 2:
            (a, la), (b, lb) = nbrs.items()
            length = la + lb
            if b not in adj[a] or length < adj[a][b]:
                adj[a][b] = adj[b][a] = length
    return adj, nodes, scale


# Integer kernels run in numpy int64 while every value they form stays below
# this bound, and on Python ints beyond it.  The triangle check needs every
# D[i][j] + D[j][k] to fit, and 3 * max(D) below the bound leaves room to
# spare; ``analysis`` scores gap candidates the same way.
_INT64_SAFE = 2**62


def _arcs(adj: Mapping[Node, Mapping[Node, int]]) -> tuple[list[int], list[int], list[int], int]:
    """The arcs of an adjacency as (tails, heads, lengths, total length),
    the nodes numbered in the order of the adjacency's keys; each edge is
    listed from both ends and counted once in the total."""
    index = {v: i for i, v in enumerate(adj)}
    tails, heads, lengths = [], [], []
    for v, nbrs in adj.items():
        for w, length in nbrs.items():
            tails.append(index[v])
            heads.append(index[w])
            lengths.append(length)
    return tails, heads, lengths, sum(lengths) // 2


def _closure(adj: Mapping[Node, Mapping[Node, int]]) -> np.ndarray:
    """All-pairs shortest-path lengths of a connected graph given as an
    adjacency of positive integer lengths, as a matrix in the order of the
    adjacency's keys.

    Floyd's min-plus recurrence: one ``np.minimum`` of the matrix with the
    routes through each node in turn.  No shortest route is longer than
    the graph's total length, so total + 1 stands for "no edge"; the
    matrix is int64 while the sum of two such entries stays below
    ``_INT64_SAFE``, and an object array of Python ints beyond it, under
    the same operations.
    """
    tails, heads, lengths, total = _arcs(adj)
    dtype = np.int64 if 2 * (total + 1) < _INT64_SAFE else object
    A = np.full((len(adj), len(adj)), total + 1, dtype=dtype)
    np.fill_diagonal(A, 0)
    A[tails, heads] = lengths
    for j in range(len(adj)):
        np.minimum(A, A[:, j, None] + A[None, j, :], out=A)
    return A


def _is_closure(adj: Mapping[Node, Mapping[Node, int]], A: np.ndarray) -> bool:
    """Whether ``A`` is exactly the shortest-path matrix of the connected,
    symmetric adjacency ``adj``, tested by the optimality conditions of its
    arcs (Ahuja, Magnanti & Orlin, *Network Flows*, 1993, ch. 5) in
    O(k * arcs) for k nodes.

    The tests: every entry at most the total length, and each A[s, v]
    equal to the least A[s, u] + w over the arcs (u, v, w) into v, or to 0
    when s = v.  Off the diagonal that is A[s, v] <= A[s, u] + w on every
    such arc, tight on one of them.  Along a shortest route from s the
    inequalities give A[s, v] <= d(s, v).  Walking tight arcs back from v
    lowers A[s, .] by a positive length at each step, so the walk repeats
    no node and can stop only at s: it is a route of length
    A[s, v] >= d(s, v).  The bound keeps every sum below 2 (total + 1),
    where ``_closure`` chose int64.  The adjacency is symmetric, so the
    arcs into v are those out of v reversed, and ``_arcs`` lists them
    together.
    """
    if len(A) <= 1:
        return not A.any()
    if not all(adj.values()):  # a node without arcs
        return False
    _, heads, lengths, total = _arcs(adj)
    if A.max() > total:
        return False
    starts = list(itertools.accumulate(map(len, adj.values()), initial=0))[:-1]
    via = A[:, heads] + np.array(lengths, dtype=A.dtype)
    best = np.minimum.reduceat(via, starts, axis=1)
    np.fill_diagonal(best, 0)
    return bool((best == A).all())


def _metric_by_int64(D: Sequence[Sequence[int]], labels: Sequence[str]) -> bool:
    """Whether the integer matrix ``D`` passes every metric axiom, tested as
    numpy int64 arrays: zero diagonal, nonnegative symmetric entries, zero
    only between equal labels and every triangle, one broadcast per middle
    index.

    False when a test fails or when 3 * max(D) reaches ``_INT64_SAFE``;
    ``_check_metric`` then runs on Python ints."""
    n = len(labels)
    if n == 0:
        return True
    try:
        A = np.array(D, dtype=np.int64)
    except OverflowError:  # an entry beyond int64
        return False
    if A.min() < 0 or 3 * int(A.max()) >= _INT64_SAFE:
        return False
    if A.diagonal().any() or not (A == A.T).all():
        return False
    zi, zj = np.nonzero(A == 0)
    if len(zi) > n and any(labels[i] != labels[j] for i, j in zip(zi.tolist(), zj.tolist())):
        return False
    return not any((A > A[:, j, None] + A[None, j, :]).any() for j in range(n))


def _check_metric(D: Sequence[Sequence[object]], labels: Sequence[str]) -> None:
    """The metric axioms entry by entry, raising ``InvalidMetricError`` at
    the first failure: per row the diagonal, then each entry's type (a
    Python int), sign, symmetry and zero distance, then every triangle in
    ``itertools.permutations`` order."""
    n = len(labels)
    for i in range(n):
        Di = D[i]
        if Di[i] != 0:
            raise InvalidMetricError(f"nonzero diagonal at {i}")
        for j in range(n):
            d = Di[j]
            if type(d) is not int or d < 0:
                raise InvalidMetricError(f"bad entry at ({i}, {j}): {d!r}")
            if d != D[j][i]:
                raise InvalidMetricError(f"asymmetry at ({i}, {j})")
            if i != j and d == 0 and labels[i] != labels[j]:
                raise InvalidMetricError(f"zero distance between distinct points {i} and {j}")
    for i, j, k in itertools.permutations(range(n), 3):
        if D[i][k] > D[i][j] + D[j][k]:
            raise InvalidMetricError(f"triangle violation at {(i, j, k)}")


@dataclass(frozen=True)
class FiniteMetric:
    """A finite metric space: labels and the distances ``D[i][j] / den``.

    ``D`` is a square matrix of Python ints and ``den`` a positive int.
    Construction checks the metric axioms on ``D`` and puts the pair in
    lowest terms, so equal metrics have equal fields; ``distance_matrix``
    builds its metrics by ``_of_closure``, whose rows its closure check has
    already proved.  The exact
    computations on a metric (``distance``, ``diameter``, ``analysis.gamma``,
    the Gram matrix) read these integers.
    """

    labels: tuple[str, ...]
    D: tuple[tuple[int, ...], ...]
    den: int

    def __post_init__(self) -> None:
        labels, D, den = self.labels, self.D, self.den
        n = len(labels)
        if len(D) != n or any(len(row) != n for row in D):
            raise InvalidMetricError("distance matrix shape does not match labels")
        if type(den) is not int or den <= 0:
            raise InvalidMetricError(f"bad denominator: {den!r}")
        # The int64 tests pass on every valid metric they can hold; a failure,
        # a matrix they cannot hold or an entry that is not an int is named
        # by the loop on Python ints.
        ints = set(map(type, itertools.chain.from_iterable(D))) <= {int}
        if not (ints and _metric_by_int64(D, labels)):
            _check_metric(D, labels)
        self._set_in_lowest_terms(labels, D, den)

    def _set_in_lowest_terms(
        self, labels: Sequence[str], D: Sequence[Sequence[int]], den: int
    ) -> None:
        g = math.gcd(den, *itertools.chain.from_iterable(D))
        if g > 1:
            D = [[x // g for x in row] for row in D]
            den //= g
        object.__setattr__(self, "labels", tuple(labels))
        object.__setattr__(self, "D", tuple(map(tuple, D)))
        object.__setattr__(self, "den", den)

    @classmethod
    def _of_closure(cls, labels: Sequence[str], D: np.ndarray, den: int) -> "FiniteMetric":
        """The metric of rows read from a closure that ``_is_closure``
        accepted, for ``distance_matrix`` alone.  Such rows are shortest-path
        distances, so they pass every axiom, and construction skips the
        triangle test: it keeps the test that every entry is an int, the
        test that only equal labels are at distance zero and the reduction
        to lowest terms."""
        rows = D.tolist()
        if D.dtype != np.int64 and not set(map(type, D.flat)) <= {int}:
            raise InvalidMetricError("closure entries are not all ints")
        zero = D == 0
        if np.count_nonzero(zero) > len(labels):  # more zeros than the diagonal's
            for i, j in zip(*np.nonzero(zero)):
                if labels[i] != labels[j]:
                    raise InvalidMetricError(f"zero distance between distinct points {i} and {j}")
        metric = object.__new__(cls)
        metric._set_in_lowest_terms(labels, rows, den)
        return metric

    @classmethod
    def from_rows(
        cls, labels: Sequence[str], rows: Sequence[Sequence[RationalLike]]
    ) -> "FiniteMetric":
        """The metric of a matrix of rationals, put over one denominator."""
        F = [[as_rational(x) for x in row] for row in rows]
        den = math.lcm(*(x.denominator for row in F for x in row))
        D = [[x.numerator * (den // x.denominator) for x in row] for row in F]
        return cls(labels, D, den)

    @property
    def size(self) -> int:
        return len(self.labels)

    def distance(self, i: int, j: int) -> Fraction:
        return Fraction(self.D[i][j], self.den)

    def diameter(self) -> Fraction:
        return Fraction(max(map(max, self.D), default=0), self.den)


def distance_matrix(g: MetricGraph, points: Sequence[Point]) -> FiniteMetric:
    """Exact pairwise distances between the given points, in the given order.

    The points' kernel is built straight from the edges of ``g`` (see
    ``_point_kernel``), closed under shortest routes once (``_closure``)
    and the closure proved by its arcs (``_is_closure``), in place of the
    triangle test a metric given as rows passes.
    """
    canon = [canonical_point(g, p) for p in points]
    adj, nodes, scale = _point_kernel(g, canon)
    A = _closure(adj)
    if not _is_closure(adj, A):
        raise InternalCheckError("the shortest-path closure fails its arc conditions")
    index = {v: i for i, v in enumerate(adj)}
    ids = [index[v] for v in nodes]
    D = A[np.ix_(ids, ids)]
    return FiniteMetric._of_closure([point_label(p) for p in canon], D, scale)


def distance(g: MetricGraph, p: Point, q: Point) -> Fraction:
    """Exact length of a shortest route between two points."""
    return distance_matrix(g, [p, q]).distance(0, 1)


# ---------------------------------------------------------------------------
# graph surgery
# ---------------------------------------------------------------------------


def _fresh_id(candidate: str, used: set[str]) -> str:
    while candidate in used:
        candidate = "_" + candidate
    used.add(candidate)
    return candidate


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


def _degree_two_chains(
    g: MetricGraph, vertices: Iterable[str], edge_ids: Iterable[str]
) -> tuple[list[str], list[_Chain]]:
    """The stops and chains of the subgraph of ``g`` on ``vertices`` and
    the edges ``edge_ids``, walked by ``_walk_chains`` as the graph's own
    skeleton is: a self-loop counts twice, the stops are the vertices whose
    degree is not 2, sorted, or the least vertex when every degree is 2,
    and chains are listed by start stop, then by the sorted (edge id,
    neighbour) pairs there.  Each chain is (start, end, ((edge id,
    forward), ...), length in 1 / g._scale)."""
    keep = set(edge_ids)
    adj = g._adjacency
    skeleton = _walk_chains({v: [item for item in adj[v] if item[0] in keep] for v in vertices})
    return skeleton.stops, skeleton.chains


def scale(g: MetricGraph, t: RationalLike) -> MetricGraph:
    """Multiply every edge length by a positive rational factor."""
    factor = as_rational(t)
    if factor <= 0:
        raise PreconditionError(f"scale factor must be positive, got {factor}")
    return MetricGraph(
        vertices=g.vertices,
        edges=tuple(Edge(id=e.id, ends=e.ends, length=e.length * factor) for e in g.edges),
    )
