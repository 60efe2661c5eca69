"""Theta subgraphs: detection, minimization, and the intrinsic theta metric.

A theta consists of two branch vertices joined by three paths that are
internally vertex-disjoint and pairwise edge-disjoint.  Existence is decided
from the biconnected block structure (a block contains a theta exactly when
its cycle rank is at least 2; self-loops never contribute).  The shortest
theta through a given branch pair is a minimum-cost flow of value 3 in the
vertex-split digraph of their common block, solved by successive shortest
paths.  The flow runs on integer costs: the block's edge lengths times the
least common multiple of their denominators, an exact rescaling.  Branch
pairs are visited in order of their graph distance d(u, v), and the search
stops once the lower bound 3·d(u, v) on a theta through them exceeds the
best total found.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Optional, Sequence

from .core import (
    EdgePoint,
    MetricGraph,
    Point,
    Vertex,
    as_rational,
    canonical_point,
    distance,
    single_source_distances,
)
from .errors import InternalCheckError, InvalidPointError, PreconditionError


# ---------------------------------------------------------------------------
# theta data model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThetaPath:
    """One branch-to-branch path: edges with directions, visited vertices,
    and cumulative arc positions measured from the first branch vertex."""

    edges: tuple[tuple[str, bool], ...]
    vertices: tuple[str, ...]
    arcs: tuple[Fraction, ...]

    @property
    def length(self) -> Fraction:
        return self.arcs[-1]

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
            if len(p.vertices) != len(p.edges) + 1 or len(p.arcs) != len(p.vertices):
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

    @cached_property
    def _sort_key(self):
        edge_seqs = tuple(tuple(e for e, _ in p.edges) for p in self.paths)
        return (
            self.total_length,
            self.lengths[0],
            self.lengths[1],
            (self.u, self.v),
            edge_seqs,
        )


@dataclass(frozen=True)
class ThetaPoint:
    """A point of a theta: a branch tag, or an arc position along one path.

    ``path`` is 1-based; ``arc`` measures from the first branch vertex.
    """

    kind: str  # "u", "v", or "path"
    path: int = 0
    arc: Fraction = Fraction(0)

    @classmethod
    def branch_u(cls) -> "ThetaPoint":
        return cls(kind="u")

    @classmethod
    def branch_v(cls) -> "ThetaPoint":
        return cls(kind="v")

    @classmethod
    def on_path(cls, path: int, arc) -> "ThetaPoint":
        return cls(kind="path", path=path, arc=as_rational(arc))


def canonical_theta_point(t: Theta, p: ThetaPoint) -> ThetaPoint:
    """Validate against a theta; arc 0 becomes the u tag, full length the v tag."""
    if p.kind in ("u", "v"):
        return ThetaPoint(kind=p.kind)
    if p.kind != "path" or p.path not in (1, 2, 3):
        raise InvalidPointError(f"bad theta point: {p!r}")
    length = t.paths[p.path - 1].length
    arc = as_rational(p.arc)
    if arc < 0 or arc > length:
        raise InvalidPointError(f"arc {arc} outside [0, {length}] on path {p.path}")
    if arc == 0:
        return ThetaPoint(kind="u")
    if arc == length:
        return ThetaPoint(kind="v")
    return ThetaPoint(kind="path", path=p.path, arc=arc)


def theta_point_to_point(g: MetricGraph, t: Theta, p: ThetaPoint) -> Point:
    """Locate a theta point inside the ambient graph."""
    cp = canonical_theta_point(t, p)
    if cp.kind == "u":
        return Vertex(t.u)
    if cp.kind == "v":
        return Vertex(t.v)
    path = t.paths[cp.path - 1]
    for i, (eid, forward) in enumerate(path.edges):
        lo, hi = path.arcs[i], path.arcs[i + 1]
        if lo <= cp.arc <= hi:
            e = g.edge(eid)
            off = cp.arc - lo if forward else e.length - (cp.arc - lo)
            return canonical_point(g, EdgePoint(eid, off))
    raise InternalCheckError("theta arc fell outside its path")


def theta_distance(t: Theta, a: ThetaPoint, b: ThetaPoint) -> Fraction:
    """Distance measured inside the theta only (no ambient shortcuts)."""
    ca = canonical_theta_point(t, a)
    cb = canonical_theta_point(t, b)
    lens = t.lengths

    def as_pair(p: ThetaPoint) -> tuple[int, Fraction]:
        # Branch tags live on path 1 for uniformity.
        if p.kind == "u":
            return (1, Fraction(0))
        if p.kind == "v":
            return (1, lens[0])
        return (p.path, p.arc)

    ia, sa = as_pair(ca)
    ib, sb = as_pair(cb)
    if ia == ib:
        direct = abs(sa - sb)
        shortest_other = min(lens[k] for k in range(3) if k != ia - 1)
        around_u = sa + shortest_other + (lens[ia - 1] - sb)
        around_v = (lens[ia - 1] - sa) + shortest_other + sb
        return min(direct, around_u, around_v)
    third = next(k + 1 for k in range(3) if k + 1 not in (ia, ib))
    via_u = sa + sb
    via_v = (lens[ia - 1] - sa) + (lens[ib - 1] - sb)
    via_u_third_v = sa + lens[third - 1] + (lens[ib - 1] - sb)
    via_v_third_u = (lens[ia - 1] - sa) + lens[third - 1] + sb
    return min(via_u, via_v, via_u_third_v, via_v_third_u)


# ---------------------------------------------------------------------------
# biconnected blocks
# ---------------------------------------------------------------------------


def _biconnected_blocks(g: MetricGraph) -> list[tuple[str, ...]]:
    """Edge ids of each biconnected block, iteratively, self-loops excluded."""
    adj: dict[str, list[tuple[str, str]]] = {v: [] for v in g.vertices}
    for e in g.edges:
        a, b = e.ends
        if a == b:
            continue
        adj[a].append((e.id, b))
        adj[b].append((e.id, a))

    disc: dict[str, int] = {}
    low: dict[str, int] = {}
    blocks: list[tuple[str, ...]] = []
    estack: list[str] = []
    counter = itertools.count()

    for root in g.vertices:
        if root in disc:
            continue
        stack: list[tuple[str, Optional[str], Iterator[tuple[str, str]]]] = []
        disc[root] = low[root] = next(counter)
        stack.append((root, None, iter(adj[root])))
        while stack:
            v, in_edge, it = stack[-1]
            advanced = False
            for eid, w in it:
                if eid == in_edge:
                    continue
                if w not in disc:
                    disc[w] = low[w] = next(counter)
                    estack.append(eid)
                    stack.append((w, eid, iter(adj[w])))
                    advanced = True
                    break
                if disc[w] < disc[v]:
                    estack.append(eid)
                    low[v] = min(low[v], disc[w])
            if advanced:
                continue
            stack.pop()
            if stack:
                parent, parent_in, _ = stack[-1]
                low[parent] = min(low[parent], low[v])
                if low[v] >= disc[parent]:
                    block: list[str] = []
                    while True:
                        eid = estack.pop()
                        block.append(eid)
                        if eid == in_edge:
                            break
                    blocks.append(tuple(sorted(block)))
    return blocks


def _block_stats(g: MetricGraph, block: Sequence[str]) -> tuple[set[str], int]:
    verts: set[str] = set()
    for eid in block:
        verts.update(g.edge(eid).ends)
    rank = len(block) - len(verts) + 1
    return verts, rank


def contains_theta(g: MetricGraph) -> bool:
    """True when some biconnected block has cycle rank at least 2."""
    return any(_block_stats(g, blk)[1] >= 2 for blk in _biconnected_blocks(g))


# ---------------------------------------------------------------------------
# theta extraction (any theta, cheap)
# ---------------------------------------------------------------------------


def _make_path(g: MetricGraph, start: str, edge_walk: Sequence[tuple[str, bool]]) -> ThetaPath:
    vertices = [start]
    arcs = [Fraction(0)]
    here = start
    for eid, forward in edge_walk:
        e = g.edge(eid)
        nxt = e.ends[1] if forward else e.ends[0]
        if (e.ends[0] if forward else e.ends[1]) != here:
            raise InternalCheckError(f"edge walk broken at {eid}")
        vertices.append(nxt)
        arcs.append(arcs[-1] + e.length)
        here = nxt
    return ThetaPath(edges=tuple(edge_walk), vertices=tuple(vertices), arcs=tuple(arcs))


def _reverse_walk(g: MetricGraph, walk: Sequence[tuple[str, bool]]) -> list[tuple[str, bool]]:
    return [(eid, not fwd) for eid, fwd in reversed(walk)]


def _assemble_theta(
    g: MetricGraph, u: str, v: str, walks: Sequence[Sequence[tuple[str, bool]]]
) -> Theta:
    if u > v:
        u, v = v, u
        walks = [_reverse_walk(g, w) for w in walks]
    paths = [_make_path(g, u, w) for w in walks]
    paths.sort(key=lambda p: (p.length, tuple(e for e, _ in p.edges)))
    return Theta(u=u, v=v, paths=(paths[0], paths[1], paths[2]))


def _find_cycle_in_block(g: MetricGraph, block_edges: set[str]) -> tuple[list[str], list[tuple[str, bool]]]:
    """Some cycle inside the block: vertex list plus directed edge walk."""
    adj: dict[str, list[tuple[str, str]]] = {}
    for eid in sorted(block_edges):
        a, b = g.edge(eid).ends
        adj.setdefault(a, []).append((eid, b))
        adj.setdefault(b, []).append((eid, a))
    start = min(adj)
    parent: dict[str, tuple[str, str]] = {}
    order: dict[str, int] = {start: 0}
    stack = [(start, None)]
    while stack:
        v, in_edge = stack.pop()
        for eid, w in adj[v]:
            if eid == in_edge:
                continue
            if w not in order:
                order[w] = len(order)
                parent[w] = (v, eid)
                stack.append((w, eid))
            else:
                # Found a cycle: climb both endpoints to their common ancestor.
                path_v: list[str] = [v]
                seen = {v}
                x = v
                while x in parent:
                    x = parent[x][0]
                    path_v.append(x)
                    seen.add(x)
                x = w
                path_w = [w]
                while x not in seen:
                    x = parent[x][0]
                    path_w.append(x)
                meet = path_w[-1]
                cyc_vertices = path_v[: path_v.index(meet) + 1]
                walk: list[tuple[str, bool]] = []
                # climb v -> meet using parent edges, reversed orientation
                for i in range(len(cyc_vertices) - 1):
                    child = cyc_vertices[i]
                    par, eid2 = parent[child]
                    e = g.edge(eid2)
                    walk.append((eid2, e.ends[0] == par))
                walk.reverse()
                # walk currently goes meet -> v; append closing edge v -> w
                e = g.edge(eid)
                walk.append((eid, e.ends[0] == v))
                # then climb w -> meet
                x = w
                while x != meet:
                    par, eid2 = parent[x]
                    e2 = g.edge(eid2)
                    walk.append((eid2, e2.ends[0] == x))
                    x = par
                verts = [meet]
                here = meet
                for eid2, fwd in walk:
                    e2 = g.edge(eid2)
                    here = e2.ends[1] if fwd else e2.ends[0]
                    verts.append(here)
                return verts[:-1], walk
    raise InternalCheckError("block of rank >= 1 contains no cycle")


def _find_ear(
    g: MetricGraph, block_edges: set[str], cycle_vertices: list[str], cycle_edge_ids: set[str]
) -> tuple[str, str, list[tuple[str, bool]]]:
    """A path between two distinct cycle vertices, internally off the cycle."""
    on_cycle = set(cycle_vertices)
    adj: dict[str, list[tuple[str, str]]] = {}
    for eid in sorted(block_edges - cycle_edge_ids):
        a, b = g.edge(eid).ends
        adj.setdefault(a, []).append((eid, b))
        adj.setdefault(b, []).append((eid, a))
    for origin in sorted(on_cycle):
        if origin not in adj:
            continue
        prev: dict[str, tuple[str, str]] = {}
        queue = [origin]
        seen = {origin}
        while queue:
            x = queue.pop(0)
            for eid, w in adj.get(x, ()):
                if w in on_cycle and w != origin:
                    walk: list[tuple[str, bool]] = []
                    e = g.edge(eid)
                    walk.append((eid, e.ends[0] == x))
                    back = x
                    while back != origin:
                        pv, pe = prev[back]
                        e2 = g.edge(pe)
                        walk.append((pe, e2.ends[0] == pv))
                        back = pv
                    walk.reverse()
                    return origin, w, walk
                if w not in seen and w not in on_cycle:
                    seen.add(w)
                    prev[w] = (x, eid)
                    queue.append(w)
    raise InternalCheckError("2-connected block of rank >= 2 has no ear")


def find_theta(g: MetricGraph) -> Optional[Theta]:
    """Some theta subgraph, or None.  Decision comes from block ranks."""
    for block in _biconnected_blocks(g):
        verts, rank = _block_stats(g, block)
        if rank < 2:
            continue
        block_set = set(block)
        cyc_vertices, cyc_walk = _find_cycle_in_block(g, block_set)
        cyc_ids = {eid for eid, _ in cyc_walk}
        a, b, ear = _find_ear(g, block_set, cyc_vertices, cyc_ids)
        ia, ib = cyc_vertices.index(a), cyc_vertices.index(b)
        if ia > ib:
            ia, ib = ib, ia
            a, b = b, a
            ear = _reverse_walk(g, ear)
        # split the cycle walk at positions ia < ib into two arcs a -> b
        arc1 = cyc_walk[ia:ib]
        arc2 = _reverse_walk(g, cyc_walk[ib:] + cyc_walk[:ia])
        return _assemble_theta(g, a, b, [arc1, arc2, ear])
    return None


# ---------------------------------------------------------------------------
# minimal theta via min-cost flow
# ---------------------------------------------------------------------------


class _FlowNet:
    """Vertex-split digraph over one block with unit capacities.

    Arc costs are the edge lengths times the least common multiple of the
    block's length denominators, so they are Python ints.  Scaling every cost
    by one positive constant keeps every comparison and tie of the search,
    so the same walks come out as with the rational lengths.
    """

    def __init__(self, g: MetricGraph, block_edges: Sequence[str], u: str, v: str):
        self.nodes: list[tuple[str, str]] = []
        self.index: dict[tuple[str, str], int] = {}
        verts = sorted({end for eid in block_edges for end in g.edge(eid).ends})
        for w in verts:
            for side in ("in", "out"):
                self.index[(side, w)] = len(self.nodes)
                self.nodes.append((side, w))
        # arcs: [to, cap, cost, flow, tag]; residual pairs adjacent (i ^ 1)
        self.arc_to: list[int] = []
        self.arc_cap: list[int] = []
        self.arc_cost: list[int] = []
        self.arc_tag: list[Optional[tuple[str, bool]]] = []
        self.adj: list[list[int]] = [[] for _ in self.nodes]
        for w in verts:
            cap = 0 if w in (u, v) else 1
            self._add(("in", w), ("out", w), cap, 0, None)
        scale = math.lcm(*(g.edge(eid).length.denominator for eid in block_edges))
        for eid in sorted(block_edges):
            e = g.edge(eid)
            a, b = e.ends
            if a == b:
                continue
            cost = e.length.numerator * (scale // e.length.denominator)
            self._add(("out", a), ("in", b), 1, cost, (eid, True))
            self._add(("out", b), ("in", a), 1, cost, (eid, False))
        self.source = self.index[("out", u)]
        self.sink = self.index[("in", v)]

    def _add(self, frm, to, cap, cost, tag) -> None:
        i, j = self.index[frm], self.index[to]
        self.adj[i].append(len(self.arc_to))
        self.arc_to.append(j)
        self.arc_cap.append(cap)
        self.arc_cost.append(cost)
        self.arc_tag.append(tag)
        self.adj[j].append(len(self.arc_to))
        self.arc_to.append(i)
        self.arc_cap.append(0)
        self.arc_cost.append(-cost)
        self.arc_tag.append(None)

    def min_cost_three_paths(self) -> Optional[list[list[tuple[str, bool]]]]:
        n = len(self.nodes)
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
        # decompose into three edge walks
        walks: list[list[tuple[str, bool]]] = []
        for _ in range(3):
            walk: list[tuple[str, bool]] = []
            x = self.source
            steps = 0
            while x != self.sink:
                ai = next(a for a in self.adj[x] if flow[a] > 0 and self.arc_cap[a] > 0)
                flow[ai] -= 1
                if self.arc_tag[ai] is not None:
                    walk.append(self.arc_tag[ai])
                x = self.arc_to[ai]
                steps += 1
                if steps > len(self.arc_to):
                    raise InternalCheckError("flow decomposition looped")
            walks.append(walk)
        return walks


def minimal_theta(g: MetricGraph) -> Optional[Theta]:
    """The globally shortest theta, with deterministic tie-breaking.

    Every pair of block vertices of degree at least 3 is a candidate branch
    pair, solved as a min-cost flow on integer-scaled costs (see
    ``_FlowNet``).  Each path of a theta with branch vertices u, v is at
    least d(u, v) long, so its total is at least 3·d(u, v).  Pairs are
    visited in order of increasing d(u, v), and the search stops once
    3·d(u, v) exceeds the best total; the strict comparison lets pairs that
    could tie reach the tie-break.
    """
    best: Optional[Theta] = None
    for block in _biconnected_blocks(g):
        verts, rank = _block_stats(g, block)
        if rank < 2:
            continue
        degree: dict[str, int] = {}
        for eid in block:
            a, b = g.edge(eid).ends
            degree[a] = degree.get(a, 0) + 1
            degree[b] = degree.get(b, 0) + 1
        candidates = sorted(w for w, d in degree.items() if d >= 3)
        # A graph distance bounds every path, in the block or not; a shortest
        # route between two vertices of a block stays inside it, so the bound
        # is as tight as the block distance.
        dist = {w: single_source_distances(g, w) for w in candidates[:-1]}
        pairs = sorted((dist[u][v], u, v) for u, v in itertools.combinations(candidates, 2))
        for d_uv, u, v in pairs:
            if best is not None and 3 * d_uv > best.total_length:
                break
            net = _FlowNet(g, block, u, v)
            walks = net.min_cost_three_paths()
            if walks is None:
                continue
            t = _assemble_theta(g, u, v, walks)
            if best is None or t._sort_key < best._sort_key:
                best = t
    return best


# ---------------------------------------------------------------------------
# branch distance check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LemmaSample:
    x: ThetaPoint
    y: ThetaPoint
    ambient: Fraction
    intrinsic: Fraction

    @property
    def ok(self) -> bool:
        return self.ambient == self.intrinsic


@dataclass(frozen=True)
class LemmaReport:
    samples: tuple[LemmaSample, ...]

    @property
    def violations(self) -> tuple[LemmaSample, ...]:
        return tuple(s for s in self.samples if not s.ok)

    @property
    def passed(self) -> bool:
        return not self.violations


def _sample_theta_point(t: Theta, rng, near_branch: bool) -> ThetaPoint:
    path = rng.randint(1, 3)
    length = t.paths[path - 1].length
    den = rng.choice((4, 6, 8, 12, 24))
    if near_branch:
        hi = min(Fraction(1, 2), length)
        arc = hi * Fraction(rng.randint(0, den), den)
    else:
        arc = length * Fraction(rng.randint(0, den), den)
    return canonical_theta_point(t, ThetaPoint.on_path(path, arc))


def check_branch_distance_lemma(
    g: MetricGraph, t: Theta, samples: int = 20, seed: int = 0
) -> LemmaReport:
    """Near one branch vertex, ambient and intrinsic distances must agree.

    Samples x with intrinsic distance at most 1/2 from u and arbitrary y;
    requires every edge length to be at least 1, and t to be a minimal theta.
    """
    if any(e.length < 1 for e in g.edges):
        raise PreconditionError("branch distance check needs edge lengths >= 1")
    rng = random.Random(seed)
    out: list[LemmaSample] = []
    for _ in range(samples):
        x = _sample_theta_point(t, rng, near_branch=True)
        y = _sample_theta_point(t, rng, near_branch=False)
        ambient = distance(g, theta_point_to_point(g, t, x), theta_point_to_point(g, t, y))
        intrinsic = theta_distance(t, x, y)
        out.append(LemmaSample(x=x, y=y, ambient=ambient, intrinsic=intrinsic))
    return LemmaReport(samples=tuple(out))
