"""Theta subgraphs: detection, minimization, and points along their paths.

A theta consists of two branch vertices joined by three paths that are
internally vertex-disjoint and pairwise edge-disjoint.  Existence is decided
from the biconnected block structure (a block contains a theta exactly when
its cycle rank is at least 2; self-loops never contribute), found on the
graph's chain skeleton: its stops are the nodes and its chains the edges, so
the search never visits a degree-2 vertex.  Each block's chains between
branch candidates are the skeleton chains joined through its stops of block
degree 2, with integer lengths in units of 1 / g._scale, an exact rescaling.
That one chain graph serves two steps.  The
shortest theta through a given branch pair is a minimum-cost flow of value
3 in the chain graph with each candidate split in two, solved by successive
shortest paths; every theta path runs whole chains.  And three distinct
chains leave each branch vertex of a theta, so the three cheapest first
chains, each followed by a shortest route to the other branch vertex, bound
the sorted path lengths of every theta through a pair from below, term by
term.  The bounds on the total, the shortest and the middle path, then the
pair, bound the key the search minimizes.  Pairs are visited in order of
that bound, and the search stops at the first bound above the best key
found.

A point on a theta is a path and an integer position along it.  Each path
keeps its vertices' positions from the first branch vertex as integers in
1 / g._scale, and ``_point_on_path`` turns a position in any multiple of
that unit into a point of the graph by bisection, forming a ``Fraction``
only for the offset of an interior point.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

import numpy as np

from .core import (
    _INT64_SAFE,
    EdgePoint,
    MetricGraph,
    Point,
    Vertex,
    _Chain,
    _closure,
)
from .errors import InternalCheckError, PreconditionError


# ---------------------------------------------------------------------------
# theta data model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThetaPath:
    """One branch-to-branch path: edges with directions, visited vertices,
    and each vertex's position from the first branch vertex, an integer in
    units of 1 / ``scale``, the graph's ``_scale``."""

    edges: tuple[tuple[str, bool], ...]
    vertices: tuple[str, ...]
    positions: tuple[int, ...]
    scale: int

    @property
    def length(self) -> Fraction:
        return Fraction(self.positions[-1], self.scale)

    @property
    def interior_vertices(self) -> tuple[str, ...]:
        return self.vertices[1:-1]


@dataclass(frozen=True)
class Theta:
    """Branch vertices plus three disjoint paths, sorted by length."""

    u: str
    v: str
    paths: tuple[ThetaPath, ThetaPath, ThetaPath]

    def __post_init__(self) -> None:
        if self.u == self.v:
            raise PreconditionError("theta branch vertices must differ")
        for p in self.paths:
            if p.vertices[0] != self.u or p.vertices[-1] != self.v:
                raise PreconditionError("theta path does not run between the branch vertices")
            if p.length <= 0:
                raise PreconditionError("theta path has nonpositive length")
            if len(p.vertices) != len(p.edges) + 1 or len(p.positions) != len(p.vertices):
                raise PreconditionError("inconsistent theta path description")
            interior = set(p.interior_vertices)
            if len(interior) != len(p.interior_vertices) or self.u in interior or self.v in interior:
                raise PreconditionError("theta path revisits a vertex")
        for a, b in itertools.combinations(self.paths, 2):
            if set(a.interior_vertices) & set(b.interior_vertices):
                raise PreconditionError("theta paths share an interior vertex")
            if {e for e, _ in a.edges} & {e for e, _ in b.edges}:
                raise PreconditionError("theta paths share an edge")
        lengths = [p.length for p in self.paths]
        if lengths != sorted(lengths):
            raise PreconditionError("theta paths must be sorted by length")

    @property
    def lengths(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.paths[0].length, self.paths[1].length, self.paths[2].length)

    @property
    def total_length(self) -> Fraction:
        return sum(self.lengths, Fraction(0))


def _point_on_path(path: ThetaPath, x: int, unit: int) -> Point:
    """The canonical point of the graph at position x / unit along ``path``,
    for 0 <= x / unit <= its length, where ``unit`` is a multiple of
    ``path.scale``.

    The positions strictly increase, so bisection finds the first edge i
    whose far end lies at x or beyond; a point at either end of it is that
    vertex.  Only a point inside the edge forms a ``Fraction``, its
    offset."""
    m = unit // path.scale
    i = bisect.bisect_left(path.positions, -(-x // m), 1) - 1
    start = path.positions[i] * m
    local, step = x - start, path.positions[i + 1] * m - start
    if local == 0:
        return Vertex(path.vertices[i])
    if local == step:
        return Vertex(path.vertices[i + 1])
    eid, forward = path.edges[i]
    return EdgePoint(eid, Fraction(local if forward else step - local, unit))


# ---------------------------------------------------------------------------
# blocks of the chain skeleton
# ---------------------------------------------------------------------------


# A block's incidence: each of its stops -> (first edge id from the stop,
# chain index) for every chain of the block at the stop.
_Incidence = dict[str, list[tuple[str, int]]]


def _skeleton_blocks(g: MetricGraph) -> list[list[int]]:
    """The blocks of the chain multigraph, each as its chain indices.

    The multigraph's nodes are the stops of ``g._skeleton`` and its edges
    the chains, parallel chains kept apart.  A chain from a stop back to
    itself, a self-loop or a cycle hanging at one stop, is a block of cycle
    rank 1 on its own and is skipped.  Subdividing an edge does not change
    the blocks (Hopcroft & Tarjan, CACM 16(6), 1973), so the blocks of two
    or more chains are the other blocks of g that hold a cycle, with each
    run of degree-2 vertices taken as one edge; a block of one chain is a
    run of bridges.  Tarjan's search, iteratively, from each stop in
    order."""
    stops, chains, _, _ = g._skeleton
    links: dict[str, list[tuple[int, str]]] = {s: [] for s in stops}
    for c, (a, b, _, _) in enumerate(chains):
        if a != b:
            links[a].append((c, b))
            links[b].append((c, a))
    disc: dict[str, int] = {}
    low: dict[str, int] = {}
    blocks: list[list[int]] = []
    cstack: list[int] = []
    counter = itertools.count()
    for root in stops:
        if root in disc:
            continue
        disc[root] = low[root] = next(counter)
        stack: list[tuple[str, int, Iterator[tuple[int, str]]]] = []
        stack.append((root, -1, iter(links[root])))
        while stack:
            v, in_chain, it = stack[-1]
            advanced = False
            for c, w in it:
                if c == in_chain:
                    continue
                if w not in disc:
                    disc[w] = low[w] = next(counter)
                    cstack.append(c)
                    stack.append((w, c, iter(links[w])))
                    advanced = True
                    break
                if disc[w] < disc[v]:
                    cstack.append(c)
                    low[v] = min(low[v], disc[w])
            if advanced:
                continue
            stack.pop()
            if stack:
                parent = stack[-1][0]
                low[parent] = min(low[parent], low[v])
                if low[v] >= disc[parent]:
                    block: list[int] = []
                    while True:
                        c = cstack.pop()
                        block.append(c)
                        if c == in_chain:
                            break
                    blocks.append(block)
    return blocks


def _theta_blocks(g: MetricGraph) -> Iterator[_Incidence]:
    """The incidence of each block of cycle rank 2 or more: a block holds a
    theta exactly then.  Its rank, chains - stops + 1, is that of the block
    of g it stands for, since subdividing adds as many vertices as edges."""
    chains = g._skeleton.chains
    for block in _skeleton_blocks(g):
        incidence: _Incidence = {}
        for c in block:
            a, b, walk, _ = chains[c]
            incidence.setdefault(a, []).append((walk[0][0], c))
            incidence.setdefault(b, []).append((walk[-1][0], c))
        if len(block) - len(incidence) >= 1:
            yield incidence


def _block_chains(
    chains: Sequence[_Chain], incidence: _Incidence
) -> tuple[list[str], list[_Chain]]:
    """The candidates of a block of cycle rank 2 or more, its stops of
    block degree 3 or more, sorted, and the chains of its degree-2
    vertices between them, each as (start, end, ((edge id, forward), ...),
    length in 1 / g._scale).

    A block chain is one skeleton chain, or several joined through stops
    of block degree 2, cut vertices of g whose other edges lie in other
    blocks.  The list is the one the chain walker (``core._walk_chains``)
    gives on the block alone: by start candidate, then by the first edge id
    there; each block chain is walked once, from the first candidate that
    reaches it.  A loopless block has no edge twice at one stop, so the
    edge ids order its incidence items as the walker's sorted items do."""
    candidates = sorted(s for s, items in incidence.items() if len(items) >= 3)
    out: list[_Chain] = []
    used: set[int] = set()
    for start in candidates:
        for _, c in sorted(incidence[start]):
            if c in used:
                continue
            here, pieces, length = start, [], 0
            while True:
                used.add(c)
                a, b, walk, n = chains[c]
                if here == a:
                    pieces.append(walk)
                    here = b
                else:
                    pieces.append(_reverse_walk(walk))
                    here = a
                length += n
                items = incidence[here]
                if len(items) != 2:
                    break
                c = items[1][1] if items[0][1] == c else items[0][1]
            whole = pieces[0] if len(pieces) == 1 else tuple(itertools.chain.from_iterable(pieces))
            out.append((start, here, whole, length))
    return candidates, out


def contains_theta(g: MetricGraph) -> bool:
    """True when some block has cycle rank at least 2."""
    return next(_theta_blocks(g), None) is not None


# ---------------------------------------------------------------------------
# theta extraction (any theta, cheap)
# ---------------------------------------------------------------------------


def _make_path(g: MetricGraph, start: str, edge_walk: Sequence[tuple[str, bool]]) -> ThetaPath:
    """The path of an edge walk from ``start``, its positions summed on
    integers in 1 / g._scale."""
    scale = g._scale
    vertices = [start]
    positions = [0]
    here, total = start, 0
    for eid, forward in edge_walk:
        e = g.edge(eid)
        a, b = e.ends
        if (a if forward else b) != here:
            raise InternalCheckError(f"edge walk broken at {eid}")
        here = b if forward else a
        vertices.append(here)
        x = e.length
        total += x.numerator if scale == 1 else x.numerator * (scale // x.denominator)
        positions.append(total)
    return ThetaPath(
        edges=tuple(edge_walk), vertices=tuple(vertices), positions=tuple(positions), scale=scale
    )


def _reverse_walk(walk: Sequence[tuple[str, bool]]) -> tuple[tuple[str, bool], ...]:
    return tuple((eid, not fwd) for eid, fwd in reversed(walk))


def _assemble_theta(
    g: MetricGraph, u: str, v: str, walks: Sequence[Sequence[tuple[str, bool]]]
) -> Theta:
    if u > v:
        u, v = v, u
        walks = [_reverse_walk(w) for w in walks]
    paths = [_make_path(g, u, w) for w in walks]
    paths.sort(key=lambda p: (p.positions[-1], tuple(e for e, _ in p.edges)))
    return Theta(u=u, v=v, paths=(paths[0], paths[1], paths[2]))


# ---------------------------------------------------------------------------
# minimal theta via min-cost flow
# ---------------------------------------------------------------------------


class _FlowNet:
    """Unit-capacity digraph over the chain graph of one block.

    Candidate i (block degree 3 or more) is split into an in-node 2i and an
    out-node 2i + 1, joined by its split arc, arc 2i.  Each chain is one
    arc from the out-node of either end to the in-node of the other, tagged
    with its edge walk in that direction: every theta path runs whole
    chains, so no node stands for a degree-2 vertex.  Costs are the chain
    lengths in 1 / g._scale, Python ints; scaling every cost by one positive
    constant keeps every comparison and tie of the search.

    One net serves every branch pair of its block.  ``three_paths(u, v)``
    closes the split arcs of u and v for one solve, so that no path passes
    through a branch vertex, and reopens them after; the arcs and their
    order never change, so each pair gets the walks a net built for it
    alone would give.
    """

    def __init__(self, candidates: Sequence[str], chains: Sequence[_Chain]):
        self.node = {c: 2 * i for i, c in enumerate(candidates)}
        # residual pairs adjacent (i ^ 1); residual and split arcs walk ()
        self.arc_to, self.arc_cap, self.arc_cost, self.arc_walk = [], [], [], []
        self.adj: list[list[int]] = [[] for _ in range(2 * len(candidates))]
        for x in self.node.values():
            self._add(x, x + 1, 0, ())
        for a, b, walk, length in chains:
            self._add(self.node[a] + 1, self.node[b], length, walk)
            self._add(self.node[b] + 1, self.node[a], length, _reverse_walk(walk))
        self.source = self.sink = -1

    def three_paths(self, u: str, v: str) -> Optional[list[tuple[int, list[tuple[str, bool]]]]]:
        """``min_cost_three_paths`` from branch vertex u to branch vertex v."""
        iu, iv = self.node[u], self.node[v]
        self.arc_cap[iu] = self.arc_cap[iv] = 0
        self.source, self.sink = iu + 1, iv
        try:
            return self.min_cost_three_paths()
        finally:
            self.arc_cap[iu] = self.arc_cap[iv] = 1

    def _add(self, frm: int, to: int, cost: int, walk: tuple[tuple[str, bool], ...]) -> None:
        self.adj[frm].append(len(self.arc_to))
        self.arc_to.append(to)
        self.arc_cap.append(1)
        self.arc_cost.append(cost)
        self.arc_walk.append(walk)
        self.adj[to].append(len(self.arc_to))
        self.arc_to.append(frm)
        self.arc_cap.append(0)
        self.arc_cost.append(-cost)
        self.arc_walk.append(())

    def min_cost_three_paths(self) -> Optional[list[tuple[int, list[tuple[str, bool]]]]]:
        """Three disjoint source-sink paths of least total cost, each as
        (cost, edge walk), or None when there are not three."""
        n = len(self.adj)
        flow = [0] * len(self.arc_to)
        potential = [0] * n
        for _ in range(3):
            dist: list[Optional[int]] = [None] * n
            pre_arc: list[int] = [-1] * n
            dist[self.source] = 0
            heap: list[tuple[int, int]] = [(0, self.source)]
            done = [False] * n
            while heap:
                d, x = heapq.heappop(heap)
                if done[x]:
                    continue
                done[x] = True
                for ai in self.adj[x]:
                    if self.arc_cap[ai] - flow[ai] <= 0:
                        continue
                    y = self.arc_to[ai]
                    if done[y]:
                        continue
                    nd = d + self.arc_cost[ai] + potential[x] - potential[y]
                    if dist[y] is None or nd < dist[y]:
                        dist[y] = nd
                        pre_arc[y] = ai
                        heapq.heappush(heap, (nd, y))
            if dist[self.sink] is None:
                return None
            for x in range(n):
                if dist[x] is not None:
                    potential[x] += dist[x]
            x = self.sink
            while x != self.source:
                ai = pre_arc[x]
                flow[ai] += 1
                flow[ai ^ 1] -= 1
                x = self.arc_to[ai ^ 1]
        # decompose into three walks of whole chains
        paths: list[tuple[int, list[tuple[str, bool]]]] = []
        for _ in range(3):
            cost = 0
            walk: list[tuple[str, bool]] = []
            x = self.source
            steps = 0
            while x != self.sink:
                ai = next(a for a in self.adj[x] if flow[a] > 0 and self.arc_cap[a] > 0)
                flow[ai] -= 1
                cost += self.arc_cost[ai]
                walk.extend(self.arc_walk[ai])
                x = self.arc_to[ai]
                steps += 1
                if steps > len(self.arc_to):
                    raise InternalCheckError("flow decomposition looped")
            paths.append((cost, walk))
        return paths


def _pair_bounds(
    candidates: Sequence[str], chains: Sequence[_Chain]
) -> list[tuple[int, int, int, str, str]]:
    """(B, S, M, u, v) for every candidate pair u < v of a block of cycle
    rank 2 or more, sorted, from the block's chain graph; the chain lengths,
    B, S and M are lengths in 1 / g._scale.  The tuple is a lexicographic
    lower bound on the pair's key (total, shortest, middle, u, v) in
    ``minimal_theta``.

    Every vertex of such a block has block degree 2 or more, so the chains'
    stops are the candidates, the vertices of block degree 3 or more.  A
    shortest route between two vertices of a block stays inside it and runs
    whole chains, so the shortest-path closure of the chain graph
    (``core._closure``, the one routine ``distance_matrix`` also runs)
    gives the graph distances d of the candidates.  A theta path leaves its
    branch vertex u by its own block edge and runs that edge's whole chain,
    so the three path lengths of a theta through u and v, sorted, are at
    least c1 <= c2 <= c3 term by term, the three smallest L(chain) +
    d(chain end, v) over the chains at u; the same holds at v.  B is the
    larger sum c1 + c2 + c3 of the two ends, S the larger c1 and M the
    larger c2.  No chain of a block returns to its own start, which would
    then be a cut vertex.

    The bounds of all pairs are formed at once on k x k integer arrays: in
    int64 while 8 times the block's total length stays below
    ``_INT64_SAFE`` (every L + d is at most twice that total), and as
    Python ints in an object array beyond it, by the same operations.
    """
    index = {c: i for i, c in enumerate(candidates)}
    ends: list[list[int]] = [[] for _ in candidates]
    lengths: list[list[int]] = [[] for _ in candidates]
    adj: dict[str, dict[str, int]] = {c: {} for c in candidates}
    total = 0
    for a, b, _, length in chains:
        total += length
        for x, y in ((a, b), (b, a)):
            ends[index[x]].append(index[y])
            lengths[index[x]].append(length)
        if b not in adj[a] or length < adj[a][b]:
            adj[a][b] = adj[b][a] = length
    dtype = np.int64 if 8 * total < _INT64_SAFE else object
    dist = _closure(adj).astype(dtype, copy=False)
    # cheap[i, r, j]: the (r + 1)-th smallest L + d(chain end, candidate j)
    # over the chains at candidate i; each candidate has three chains or more
    cheap = np.stack(
        [
            np.sort(np.array(lengths[i], dtype=dtype)[:, None] + dist[ends[i]], axis=0)[:3]
            for i in range(len(candidates))
        ]
    )
    first, second = cheap[:, 0], cheap[:, 1]
    three = first + second + cheap[:, 2]
    iu, iv = np.triu_indices(len(candidates), 1)
    B = np.maximum(three, three.T)[iu, iv]
    S = np.maximum(first, first.T)[iu, iv]
    M = np.maximum(second, second.T)[iu, iv]
    # triu_indices lists the pairs in (u, v) order and lexsort is stable,
    # so pairs that tie on (B, S, M) stay in (u, v) order
    order = np.lexsort((M, S, B))
    names = np.array(candidates, dtype=object)
    return list(
        zip(
            B[order].tolist(),
            S[order].tolist(),
            M[order].tolist(),
            names[iu[order]].tolist(),
            names[iv[order]].tolist(),
        )
    )


def minimal_theta(g: MetricGraph) -> Optional[Theta]:
    """The globally shortest theta, with deterministic tie-breaking.

    The blocks are those of the chain skeleton (``_skeleton_blocks``).
    Each block of cycle rank 2 or more gives its chains of degree-2
    vertices between its candidates, the vertices of block degree 3 or
    more, by joining skeleton chains (``_block_chains``), with lengths in
    1 / g._scale.  That chain graph feeds both
    the pair bounds and the one flow net of the block.  Every pair of
    candidates is a candidate branch pair, solved as a min-cost flow on the
    chain graph (see ``_FlowNet``).  A solved pair's key (total, shortest,
    middle, u, v) is on integer lengths, and no two pairs share (u, v), so
    the least key picks one theta: least total length, then shortest and
    middle path, then branch pair.  Pairs are visited in order of their lower
    bound (B, S, M, u, v) on that key, from the three cheapest first chains
    at each branch vertex, each followed by a shortest route to the other
    branch vertex (see ``_pair_bounds``).  The search stops at the first
    bound above the best key, since every later pair's key is at least its
    bound; so of pairs that tie on the total, only those whose bound can
    still beat the best (shortest, middle, u, v) are solved.  Only a key
    below the best one is assembled into a ``Theta``.
    """
    best: Optional[Theta] = None
    best_key: Optional[tuple[int, int, int, str, str]] = None
    skeleton_chains = g._skeleton.chains
    for incidence in _theta_blocks(g):
        candidates, chains = _block_chains(skeleton_chains, incidence)
        net: Optional[_FlowNet] = None
        for bound in _pair_bounds(candidates, chains):
            if best_key is not None and bound > best_key:
                break
            u, v = bound[3:]
            net = net or _FlowNet(candidates, chains)
            paths = net.three_paths(u, v)
            if paths is None:
                continue
            lengths = sorted(cost for cost, _ in paths)
            key = (sum(lengths), lengths[0], lengths[1], u, v)
            if best_key is None or key < best_key:
                best, best_key = _assemble_theta(g, u, v, [walk for _, walk in paths]), key
    return best
