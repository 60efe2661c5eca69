"""Brute-force reference implementations used to validate the fast code.

Everything here favors obviousness over speed: Floyd-Warshall instead of
Dijkstra, exhaustive path and cycle enumeration instead of flow, raw grid
search instead of projected ascent, ``Fraction`` elimination and the
L D L^T product instead of integer elimination and replay, the Bareiss
elimination updating both triangles instead of the lower one, one ascent
per start scored over ``Weighting``s instead of the lockstep search scored
on integers, a Gray-code walk on Python ints instead of the limb-split int64
crossing sums, and a phase-1 simplex over ``Fraction``s priced by that walk
instead of the fraction-free one, a flow for every branch pair of a block
instead of the pruned branch-pair search, on the chain graph or on every
edge, Tarjan's search over every vertex and a walk of each block's own
adjacency instead of the blocks and block chains of the chain skeleton,
and a scan along a path's edges instead of bisection on its arcs.
All arithmetic outside the float ascent is exact.
"""

import itertools
import random
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterator, Optional, Sequence

import numpy as np

from thetagap import l1cut
from thetagap.analysis import _SNAP_DENOMINATORS, PSDTranscript, Weighting, gamma
from thetagap.core import (
    EdgePoint,
    FiniteMetric,
    MetricGraph,
    Point,
    Vertex,
    _walk_chains,
    canonical_point,
)
from thetagap.errors import InternalCheckError, PreconditionError
from thetagap.l1cut import Cut, CutDecomposition
from thetagap.theta import Theta, ThetaPath, _FlowNet, _assemble_theta


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------


def fraction_rows(m: FiniteMetric) -> list[list[Fraction]]:
    """A metric's distance matrix as Fractions, entry by entry."""
    return [[m.distance(i, j) for j in range(m.size)] for i in range(m.size)]


def vertex_distance_table(g: MetricGraph) -> dict[tuple[str, str], Fraction]:
    """All-pairs vertex distances by Floyd-Warshall over direct edges."""
    names = list(g.vertices)
    big = 2 * sum((e.length for e in g.edges), Fraction(0)) + 1
    dist = {(a, b): (Fraction(0) if a == b else big) for a in names for b in names}
    for e in g.edges:
        a, b = e.ends
        if a == b:
            continue
        if e.length < dist[(a, b)]:
            dist[(a, b)] = dist[(b, a)] = e.length
    for k in names:
        for i in names:
            for j in names:
                via = dist[(i, k)] + dist[(k, j)]
                if via < dist[(i, j)]:
                    dist[(i, j)] = via
    assert all(v < big for v in dist.values()), "graph must be connected"
    return dist


def _attachments(g: MetricGraph, p: Point) -> list[tuple[str, Fraction]]:
    if isinstance(p, Vertex):
        return [(p.vertex, Fraction(0))]
    edge = next(e for e in g.edges if e.id == p.edge)
    a, b = edge.ends
    if a == b:
        return [(a, min(p.offset, edge.length - p.offset))]
    return [(a, p.offset), (b, edge.length - p.offset)]


def _direct_arc(g: MetricGraph, p: Point, q: Point) -> Fraction | None:
    if not (isinstance(p, EdgePoint) and isinstance(q, EdgePoint)):
        return None
    if p.edge != q.edge:
        return None
    edge = next(e for e in g.edges if e.id == p.edge)
    delta = abs(p.offset - q.offset)
    if edge.ends[0] == edge.ends[1]:
        return min(delta, edge.length - delta)
    return delta


def oracle_distance(g: MetricGraph, p: Point, q: Point) -> Fraction:
    """Shortest-path distance by exhaustive routing through the vertex table."""
    return _routed_distance(g, vertex_distance_table(g), p, q)


def oracle_distance_matrix(g: MetricGraph, points: Sequence[Point]) -> list[list[Fraction]]:
    """All pairwise ``oracle_distance`` values, from one Floyd-Warshall table."""
    table = vertex_distance_table(g)
    return [[_routed_distance(g, table, p, q) for q in points] for p in points]


def _routed_distance(g: MetricGraph, table, p: Point, q: Point) -> Fraction:
    best = _direct_arc(g, p, q)
    for a, ca in _attachments(g, p):
        for b, cb in _attachments(g, q):
            candidate = ca + table[(a, b)] + cb
            if best is None or candidate < best:
                best = candidate
    assert best is not None
    return best


def oracle_metric_violation(labels, D):
    """The error message ``FiniteMetric`` must raise on the integer matrix
    ``D``, or None.

    The metric-axiom checks entry by entry on the entries themselves, in
    the order the validation reports them: shape, then per row the diagonal
    and each entry's type (a Python int, not a bool or a Fraction), sign,
    symmetry and zero distance, then every triangle in
    ``itertools.permutations`` order.
    """
    n = len(labels)
    if len(D) != n or any(len(r) != n for r in D):
        return "distance matrix shape does not match labels"
    for i in range(n):
        if D[i][i] != 0:
            return f"nonzero diagonal at {i}"
        for j in range(n):
            d = D[i][j]
            if not isinstance(d, int) or isinstance(d, bool) or d < 0:
                return f"bad entry at ({i}, {j}): {d!r}"
            if d != D[j][i]:
                return f"asymmetry at ({i}, {j})"
            if i != j and d == 0 and labels[i] != labels[j]:
                return f"zero distance between distinct points {i} and {j}"
    for i, j, k in itertools.permutations(range(n), 3):
        if D[i][k] > D[i][j] + D[j][k]:
            return f"triangle violation at ({i}, {j}, {k})"
    return None


# ---------------------------------------------------------------------------
# cycles and thetas
# ---------------------------------------------------------------------------


def simple_cycle_edge_sets(g: MetricGraph) -> set[frozenset]:
    """Every simple cycle, as a frozenset of edge ids."""
    out: set[frozenset] = set()
    by_pair: dict[frozenset, list[str]] = defaultdict(list)
    adj: dict[str, list[tuple[str, str]]] = defaultdict(list)
    for e in g.edges:
        a, b = e.ends
        if a == b:
            out.add(frozenset([e.id]))
            continue
        by_pair[frozenset((a, b))].append(e.id)
        adj[a].append((b, e.id))
        adj[b].append((a, e.id))
    for ids in by_pair.values():
        for first, second in itertools.combinations(ids, 2):
            out.add(frozenset([first, second]))
    order = {v: i for i, v in enumerate(g.vertices)}

    def walk(start: str, current: str, visited: frozenset, used: frozenset) -> None:
        for nxt, eid in adj[current]:
            if eid in used:
                continue
            if nxt == start:
                if len(used) >= 2:
                    out.add(used | {eid})
            elif nxt not in visited and order[nxt] > order[start]:
                walk(start, nxt, visited | {nxt}, used | {eid})

    for s in g.vertices:
        walk(s, s, frozenset([s]), frozenset())
    return out


def oracle_contains_theta(g: MetricGraph) -> bool:
    """Theta subgraph exists iff two distinct simple cycles share an edge."""
    cycles = list(simple_cycle_edge_sets(g))
    for c1, c2 in itertools.combinations(cycles, 2):
        if c1 & c2:
            return True
    return False


def _simple_paths(g: MetricGraph, u: str, v: str):
    """All simple u-v paths as (edge id set, internal vertex set, length)."""
    adj: dict[str, list[tuple[str, str, Fraction]]] = defaultdict(list)
    for e in g.edges:
        a, b = e.ends
        if a == b:
            continue
        adj[a].append((b, e.id, e.length))
        adj[b].append((a, e.id, e.length))
    results = []

    def walk(current, visited, used, total):
        for nxt, eid, length in adj[current]:
            if eid in used:
                continue
            if nxt == v:
                results.append((used | {eid}, visited - {u}, total + length))
            elif nxt not in visited and nxt != v:
                walk(nxt, visited | {nxt}, used | {eid}, total + length)

    walk(u, frozenset([u]), frozenset(), Fraction(0))
    return results


def oracle_blocks(g: MetricGraph) -> list[tuple[str, ...]]:
    """Edge ids of each biconnected block, self-loops excluded, by Tarjan's
    search over every vertex, iteratively."""
    adj = g._adjacency
    disc: dict[str, int] = {}
    low: dict[str, int] = {}
    blocks: list[tuple[str, ...]] = []
    estack: list[str] = []
    counter = itertools.count()

    for root in g.vertices:
        if root in disc:
            continue
        stack = []
        disc[root] = low[root] = next(counter)
        stack.append((root, None, iter(adj[root])))
        while stack:
            v, in_edge, it = stack[-1]
            advanced = False
            for eid, w, _, _ in it:
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
                parent, _, _ = stack[-1]
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


def block_rank(g: MetricGraph, block: Sequence[str]) -> int:
    """Cycle rank of a block: edges - vertices + 1."""
    verts = {end for eid in block for end in g.edge(eid).ends}
    return len(block) - len(verts) + 1


def oracle_degree_two_chains(g: MetricGraph, vertices, edge_ids):
    """The stops and chains of the subgraph of ``g`` on ``vertices`` and
    the edges ``edge_ids``, by the chain walker run on the graph's
    adjacency filtered to those edges."""
    keep = set(edge_ids)
    adj = g._adjacency
    skeleton = _walk_chains({v: [item for item in adj[v] if item[0] in keep] for v in vertices})
    return skeleton.stops, skeleton.chains


def oracle_theta_blocks(g: MetricGraph) -> dict[frozenset, tuple[list, list]]:
    """Each block of cycle rank >= 2, by its edge ids, with its candidates
    and chains walked on the block's own adjacency."""
    out = {}
    for block in oracle_blocks(g):
        if block_rank(g, block) >= 2:
            verts = {end for eid in block for end in g.edge(eid).ends}
            out[frozenset(block)] = oracle_degree_two_chains(g, verts, block)
    return out


def oracle_min_theta_total(g: MetricGraph) -> Fraction | None:
    """Minimum total length over all thetas, by exhaustive path triples."""
    best: Fraction | None = None
    for u, v in itertools.combinations(g.vertices, 2):
        paths = _simple_paths(g, u, v)
        for trio in itertools.combinations(paths, 3):
            edges_ok = all(
                not (a[0] & b[0]) for a, b in itertools.combinations(trio, 2)
            )
            inner_ok = all(
                not (a[1] & b[1]) for a, b in itertools.combinations(trio, 2)
            )
            if edges_ok and inner_ok:
                total = sum((p[2] for p in trio), Fraction(0))
                if best is None or total < best:
                    best = total
    return best


# ---------------------------------------------------------------------------
# quadratic-form grid search
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _grid_directions(n: int, max_denom: int) -> tuple:
    """Balanced weightings with a common denominator at most max_denom."""
    seen = set()
    out = []
    for head in itertools.product(range(-max_denom, max_denom + 1), repeat=n - 1):
        tail = -sum(head)
        ks = head + (tail,)
        mass = sum(abs(k) for k in ks)
        if mass == 0 or mass > max_denom:
            continue
        divisor = 0
        for k in ks:
            divisor = gcd(divisor, abs(k))
        key = tuple(k // divisor for k in ks)
        if key in seen:
            continue
        seen.add(key)
        out.append(tuple(Fraction(k, mass) for k in ks))
    return tuple(out)


def oracle_grid_gamma_max(m: FiniteMetric, max_denom: int = 24) -> Fraction:
    """Exact maximum of the weighting energy over the denominator grid.

    Floats prefilter the candidates; every near-maximal direction is then
    re-evaluated exactly, so the returned value is exact.
    """
    n = m.size
    pairs = list(itertools.combinations(range(n), 2))
    d_float = {p: float(m.distance(*p)) for p in pairs}

    def energy_float(w) -> float:
        return sum(float(w[i]) * float(w[j]) * d_float[(i, j)] for i, j in pairs)

    def energy_exact(w) -> Fraction:
        return sum(
            (w[i] * w[j] * m.distance(i, j) for i, j in pairs), Fraction(0)
        )

    directions = _grid_directions(n, max_denom)
    scores = [energy_float(w) for w in directions]
    cutoff = max(scores) - 1e-7
    finalists = [w for w, s in zip(directions, scores) if s >= cutoff]
    assert finalists
    return max(energy_exact(w) for w in finalists)


# ---------------------------------------------------------------------------
# cut-cone membership by exhaustive support enumeration
# ---------------------------------------------------------------------------


def _solve_exact(columns: list[list[Fraction]], target: list[Fraction]):
    """Solve sum x_c * column_c = target; None if inconsistent or dependent."""
    rows = len(target)
    cols = len(columns)
    aug = [[columns[c][r] for c in range(cols)] + [target[r]] for r in range(rows)]
    pivot_cols = []
    row = 0
    for col in range(cols):
        pivot = next((r for r in range(row, rows) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[row], aug[pivot] = aug[pivot], aug[row]
        lead = aug[row][col]
        aug[row] = [v / lead for v in aug[row]]
        for r in range(rows):
            if r != row and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[row])]
        pivot_cols.append(col)
        row += 1
    for r in range(row, rows):
        if aug[r][cols] != 0:
            return None
    return [aug[i][cols] for i in range(cols)]


def oracle_cut_cone_member(m: FiniteMetric) -> bool:
    """Exact membership test for at most four points, via Caratheodory."""
    n = m.size
    assert n <= 4, "exhaustive oracle is limited to four points"
    pairs = list(itertools.combinations(range(n), 2))
    target = [m.distance(i, j) for i, j in pairs]
    if all(v == 0 for v in target):
        return True
    columns = []
    for mask in range(2 ** (n - 1) - 1):
        members = {0} | {t + 1 for t in range(n - 1) if mask >> t & 1}
        columns.append(
            [Fraction(int((i in members) != (j in members))) for i, j in pairs]
        )
    for size in range(1, len(pairs) + 1):
        for subset in itertools.combinations(range(len(columns)), size):
            x = _solve_exact([columns[c] for c in subset], target)
            if x is not None and all(v >= 0 for v in x):
                return True
    return False


# ---------------------------------------------------------------------------
# rational LDL^T: elimination and product check over Fractions
# ---------------------------------------------------------------------------


def scaled(matrix) -> tuple[list[list[int]], int]:
    """A rational matrix as (integer matrix A, scale s > 0) with matrix = A / s."""
    F = [[Fraction(v) for v in row] for row in matrix]
    s = 1
    for row in F:
        for v in row:
            s = s * v.denominator // gcd(s, v.denominator)
    return [[v.numerator * (s // v.denominator) for v in row] for row in F], s


def gram_matrix(m: FiniteMetric, basepoint: Optional[int] = None) -> list[list[Fraction]]:
    """Basepoint Gram matrix G_jk = (d(j,b) + d(k,b) - d(j,k)) / 2 over
    ``Fraction``s, rows and columns the points other than b (default: the
    last point) in index order."""
    b = m.size - 1 if basepoint is None else basepoint
    others = [i for i in range(m.size) if i != b]
    d = m.distance
    return [[(d(j, b) + d(k, b) - d(j, k)) / 2 for k in others] for j in others]


def oracle_psd_decompose(matrix):
    """Semidefiniteness by elimination over ``Fraction`` with full diagonal
    pivoting: ``(True, transcript)`` or ``(False, x)`` with x^T A x < 0."""
    n = len(matrix)
    S = [[Fraction(v) for v in row] for row in matrix]
    for i in range(n):
        if len(S[i]) != n:
            raise PreconditionError("matrix is not square")
        for j in range(i):
            if S[i][j] != S[j][i]:
                raise PreconditionError("matrix is not symmetric")
    perm = list(range(n))
    lower = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    diag = [Fraction(0)] * n

    def violating(direction: dict[int, Fraction], k: int) -> tuple[Fraction, ...]:
        # Lift a bad direction of the trailing Schur block to full coordinates:
        # with B the permuted input, solve B11 u = -B12 y; x = (u, y) has
        # x^T B x = y^T S_trailing y < 0.
        y = [direction.get(i, Fraction(0)) for i in range(k, n)]
        rhs = [
            -sum(matrix[perm[i]][perm[k + t]] * y[t] for t in range(n - k))
            for i in range(k)
        ]
        u = _solve_from_factors(lower, diag, k, rhs)
        x = [Fraction(0)] * n
        for pos, val in enumerate(u + y):
            x[perm[pos]] = val
        value = sum(
            x[a] * x[b] * matrix[a][b] for a in range(n) for b in range(n) if x[a] and x[b]
        )
        if value >= 0:
            raise InternalCheckError("reconstructed direction is not violating")
        return tuple(x)

    for k in range(n):
        pivot_val, pivot_at = max((S[i][i], -i) for i in range(k, n))
        pivot_at = -pivot_at
        if pivot_val <= 0:
            negatives = [(S[i][i], i) for i in range(k, n) if S[i][i] < 0]
            if negatives:
                _, p = min(negatives)
                return False, violating({p: Fraction(1)}, k)
            off = next(
                (
                    (i, j)
                    for i in range(k, n)
                    for j in range(i + 1, n)
                    if S[i][j] != 0
                ),
                None,
            )
            if off is None:
                break
            p, q = off
            sign = Fraction(-1) if S[p][q] > 0 else Fraction(1)
            return False, violating({p: Fraction(1), q: sign}, k)
        if pivot_at != k:
            for i in range(n):
                S[i][k], S[i][pivot_at] = S[i][pivot_at], S[i][k]
            S[k], S[pivot_at] = S[pivot_at], S[k]
            for j in range(k):
                lower[k][j], lower[pivot_at][j] = lower[pivot_at][j], lower[k][j]
            perm[k], perm[pivot_at] = perm[pivot_at], perm[k]
        d = S[k][k]
        diag[k] = d
        for i in range(k + 1, n):
            lower[i][k] = S[i][k] / d
        for i in range(k + 1, n):
            fi = lower[i][k]
            if fi == 0:
                continue
            for j in range(k + 1, i + 1):
                S[i][j] -= fi * d * lower[j][k]
                S[j][i] = S[i][j]
    transcript = PSDTranscript(
        perm=tuple(perm),
        diag=tuple(diag),
        lower=tuple(tuple(row) for row in lower),
    )
    return True, transcript


def oracle_eliminate(A):
    """The fraction-free symmetric elimination on the whole matrix, both
    triangles updated and rows and columns swapped as lists: ``(perm,
    pivots, S, direction)`` at the point where it stops."""
    S = [list(row) for row in A]
    n = len(S)
    perm = list(range(n))
    pivots = []
    prev = 1
    for k in range(n):
        pivot_val, pivot_at = max((S[i][i], -i) for i in range(k, n))
        pivot_at = -pivot_at
        if pivot_val <= 0:
            negatives = [(S[i][i], i) for i in range(k, n) if S[i][i] < 0]
            if negatives:
                _, p = min(negatives)
                return perm, pivots, S, {p: 1}
            off = next(
                ((i, j) for i in range(k, n) for j in range(i + 1, n) if S[i][j] != 0),
                None,
            )
            if off is None:
                break
            p, q = off
            return perm, pivots, S, {p: 1, q: -1 if S[p][q] > 0 else 1}
        if pivot_at != k:
            for row in S:
                row[k], row[pivot_at] = row[pivot_at], row[k]
            S[k], S[pivot_at] = S[pivot_at], S[k]
            perm[k], perm[pivot_at] = perm[pivot_at], perm[k]
        p, pivot_row = S[k][k], S[k][k + 1 :]
        for i in range(k + 1, n):
            row = S[i]
            f = row[k]
            row[k + 1 :] = [(p * a - f * b) // prev for a, b in zip(row[k + 1 :], pivot_row)]
        prev = pivot_val
        pivots.append(pivot_val)
    return perm, pivots, S, None


def _solve_from_factors(lower, diag, k, rhs):
    # Solve (L11 D1 L11^T) u = rhs using the first k pivots.
    w = rhs[:]
    for i in range(k):
        for j in range(i):
            w[i] -= lower[i][j] * w[j]
    for i in range(k):
        w[i] /= diag[i]
    for i in range(k - 1, -1, -1):
        for j in range(i + 1, k):
            w[i] -= lower[j][i] * w[j]
    return w


def oracle_transcript_verify(transcript: PSDTranscript, matrix) -> bool:
    """The rational product check: P A P^T == L D L^T, entry by entry."""
    n = len(transcript.perm)
    if len(matrix) != n or any(d < 0 for d in transcript.diag):
        return False
    for i in range(n):
        row = transcript.lower[i]
        if len(row) != n or row[i] != 1 or any(row[j] != 0 for j in range(i + 1, n)):
            return False
    for i in range(n):
        for j in range(i + 1):
            lhs = matrix[transcript.perm[i]][transcript.perm[j]]
            rhs = sum(
                transcript.lower[i][k] * transcript.diag[k] * transcript.lower[j][k]
                for k in range(j + 1)
            )
            if lhs != rhs:
                return False
    return True


# ---------------------------------------------------------------------------
# gap-search candidates projected over Fractions
# ---------------------------------------------------------------------------


def _exact_project(values):
    n = len(values)
    mean = sum(values, Fraction(0)) / n
    centered = [v - mean for v in values]
    mass = sum(abs(v) for v in centered)
    if mass == 0:
        return None
    return Weighting.from_map({i: v / mass for i, v in enumerate(centered)})


def oracle_snap_candidates(v):
    """Centred, normalised weightings of the float vector and its snaps."""
    exact = [Fraction(float(x)) for x in v]
    w = _exact_project(exact)
    if w is not None:
        yield w
    for q in _SNAP_DENOMINATORS:
        snapped = [Fraction(round(float(x) * q), q) for x in v]
        w = _exact_project(snapped)
        if w is not None:
            yield w


# ---------------------------------------------------------------------------
# the gap search one start at a time, scored over Fractions
# ---------------------------------------------------------------------------


def _float_project(v):
    v = v - v.mean()
    mass = np.abs(v).sum()
    if mass < 1e-300:
        return None
    return v / mass


def oracle_ascend(d_norm, start, iters):
    """Projected gradient ascent from one start, as the search ran it alone."""
    w = _float_project(start)
    if w is None:
        return None

    def value(v):
        return float(v @ (d_norm @ v)) / 2

    best, best_val = w, value(w)
    step = 0.25
    for _ in range(iters):
        nxt = _float_project(w + step * (d_norm @ w))
        if nxt is None:
            break
        w = nxt
        got = value(w)
        if got > best_val:
            best, best_val = w, got
        else:
            step *= 0.9
    return best


def oracle_argmax(m: FiniteMetric, candidates) -> tuple[Fraction, Weighting]:
    """Largest gamma over Weightings, ties to the smaller ``entries``."""
    best = None
    for w in candidates:
        value = gamma(m, w)
        if best is None or value > best[0] or (value == best[0] and w.entries < best[1].entries):
            best = (value, w)
    assert best is not None
    return best


def oracle_gap_lower(m: FiniteMetric, starts=24, iters=200, seed=0):
    """The gap search's lower bound and weighting: every pair and the snaps
    of one ascent per start, scored one Weighting at a time."""
    n = m.size
    half = Fraction(1, 2)
    candidates = [
        Weighting.from_map({j: half, k: -half}) for j, k in itertools.combinations(range(n), 2)
    ]
    if m.diameter() > 0:
        top = max(map(max, m.D))
        d_norm = np.array([[x / top for x in row] for row in m.D])
        rng = random.Random(seed)
        for _ in range(starts):
            v = np.array([rng.uniform(-1, 1) for _ in range(n)])
            end = oracle_ascend(d_norm, v, iters)
            if end is not None:
                candidates.extend(oracle_snap_candidates(end))
    return oracle_argmax(m, candidates)


# ---------------------------------------------------------------------------
# one flow net per branch pair
# ---------------------------------------------------------------------------


def edge_graph(g: MetricGraph, block_edges):
    """A block as a chain graph with every vertex a stop and every edge,
    self-loops aside, its own one-edge chain: the vertex-split net that the
    chain net replaced.  Lengths are in 1 / g._scale."""
    stops = sorted({end for eid in block_edges for end in g.edge(eid).ends})
    chains = [
        (*g.edge(eid).ends, ((eid, True),), int(g.edge(eid).length * g._scale))
        for eid in sorted(block_edges)
        if g.edge(eid).ends[0] != g.edge(eid).ends[1]
    ]
    return stops, chains


def chain_graph(g: MetricGraph, block_edges):
    """A block's stops and chains as ``oracle_degree_two_chains`` walks them,
    each chain's length summed over ``Fraction``s, in 1 / g._scale."""
    verts = {end for eid in block_edges for end in g.edge(eid).ends}
    stops, walks = oracle_degree_two_chains(g, verts, block_edges)
    chains = [
        (a, b, walk, int(sum(g.edge(eid).length for eid, _ in walk) * g._scale))
        for a, b, walk, _ in walks
    ]
    return stops, chains


class OraclePairNet(_FlowNet):
    """The flow net built for one branch pair on the given stops and chains,
    its split arcs at u and v closed from the start; it shares the solver
    of the per-block net."""

    def __init__(self, stops, chains, u: str, v: str):
        node = {w: i for i, w in enumerate(stops)}
        self.arc_to, self.arc_cap, self.arc_cost, self.arc_walk = [], [], [], []
        self.adj = [[] for _ in range(2 * len(stops))]
        for w in stops:
            self._add(2 * node[w], 2 * node[w] + 1, 0, ())
            if w in (u, v):
                self.arc_cap[-2] = 0
        for a, b, walk, length in chains:
            self._add(2 * node[a] + 1, 2 * node[b], length, tuple(walk))
            back = tuple((eid, not forward) for eid, forward in reversed(walk))
            self._add(2 * node[b] + 1, 2 * node[a], length, back)
        self.source = 2 * node[u] + 1
        self.sink = 2 * node[v]


def oracle_point_on_path(g: MetricGraph, path: ThetaPath, arc: Fraction) -> Point:
    """The canonical point ``arc`` along ``path``: the first edge whose arc
    interval holds it, found by a scan."""
    for i, (eid, forward) in enumerate(path.edges):
        lo, hi = path.arcs[i], path.arcs[i + 1]
        if lo <= arc <= hi:
            off = arc - lo if forward else g.edge(eid).length - (arc - lo)
            return canonical_point(g, EdgePoint(eid, off))
    raise InternalCheckError("arc fell outside its path")


def branch_pairs(g: MetricGraph):
    """Each block of cycle rank >= 2, with the pairs of its vertices of
    degree at least 3 in the block."""
    for block in oracle_blocks(g):
        if block_rank(g, block) < 2:
            continue
        degree: dict[str, int] = {}
        for eid in block:
            for end in g.edge(eid).ends:
                degree[end] = degree.get(end, 0) + 1
        branch = sorted(w for w, d in degree.items() if d >= 3)
        yield block, list(itertools.combinations(branch, 2))


def theta_key(t: Theta) -> tuple:
    """The order ``minimal_theta`` breaks ties by: total length, shortest
    and middle path, branch pair, then the paths' edge sequences."""
    edge_seqs = tuple(tuple(e for e, _ in p.edges) for p in t.paths)
    return (t.total_length, t.lengths[0], t.lengths[1], (t.u, t.v), edge_seqs)


def oracle_minimal_theta(g: MetricGraph, edge_level: bool = False) -> Optional[Theta]:
    """The least ``theta_key`` over every branch pair of every block
    of cycle rank >= 2, each solved on its own ``OraclePairNet``, with no
    bound and no pruning: on the block's chain graph, or on its edge graph
    with ``edge_level``.  A pair with a vertex of block degree 2 would find
    no three paths, so only pairs of ``branch_pairs`` are solved."""
    best: Optional[Theta] = None
    for block, pairs in branch_pairs(g):
        stops, chains = (edge_graph if edge_level else chain_graph)(g, block)
        for u, v in pairs:
            paths = OraclePairNet(stops, chains, u, v).min_cost_three_paths()
            if paths is None:
                continue
            t = _assemble_theta(g, u, v, [walk for _, walk in paths])
            if best is None or theta_key(t) < theta_key(best):
                best = t
    return best


# ---------------------------------------------------------------------------
# every cut's crossing sum by a Gray-code walk on Python ints
# ---------------------------------------------------------------------------


def _crossing(mask: int, pairs: Sequence[tuple[int, int]]) -> list[int]:
    """Positions in ``pairs`` of the pairs that the cut of canonical ``mask``
    separates; bit t of the mask puts point t + 1 on point 0's side."""
    side = mask << 1 | 1  # bit v set: point v is on point 0's side
    return [k for k, (i, j) in enumerate(pairs) if (side >> i ^ side >> j) & 1]


def cut_mask(cut: Cut) -> int:
    """The canonical mask of a cut: bit t set puts point t + 1 on point 0's side."""
    return sum(1 << (i - 1) for i in cut.members[1:])


def oracle_decomposition_fault(m: FiniteMetric, entries) -> Optional[str]:
    """The message of the first pair, in ``itertools.combinations`` order,
    that the weighted cuts do not reproduce, adding each weight as a
    ``Fraction`` to every pair its cut crosses; None when every pair is
    reproduced.  Entries are assumed to be of the metric's size with
    positive weights."""
    pairs = list(itertools.combinations(range(m.size), 2))
    total = [Fraction(0)] * len(pairs)
    for cut, weight in entries:
        for k in _crossing(cut_mask(cut), pairs):
            total[k] += weight
    for (i, j), value in zip(pairs, total):
        if value != m.distance(i, j):
            return (
                f"decomposition reproduces {value} instead of "
                f"{m.distance(i, j)} on pair ({i}, {j})"
            )
    return None


def oracle_against_metric(m: FiniteMetric, pair_values) -> Fraction:
    """The pair weights' sum against the metric's distances, over Fractions."""
    pairs = itertools.combinations(range(m.size), 2)
    return sum((v * m.distance(i, j) for v, (i, j) in zip(pair_values, pairs)), Fraction(0))


def _pair_index(n: int) -> dict[tuple[int, int], int]:
    return {pair: k for k, pair in enumerate(itertools.combinations(range(n), 2))}


def gray_cut_values(n: int, pair_weights: Sequence[int]) -> Iterator[tuple[int, int]]:
    """Yield (mask, crossing sum) for every proper canonical cut.

    Walks masks in Gray-code order, updating the crossing sum by the one
    point that changes side per step.  ``pair_weights`` is indexed like
    itertools.combinations(range(n), 2).
    """
    idx = _pair_index(n)
    weight = [[0] * n for _ in range(n)]
    for (i, j), k in idx.items():
        weight[i][j] = weight[j][i] = pair_weights[k]
    bits = n - 1
    full = (1 << bits) - 1
    side = [1] + [0] * (bits)  # side[v] == 1 means point v on point 0's side
    cur = sum(weight[0][v] for v in range(1, n))
    yield 0, cur
    prev = 0
    for i in range(1, 1 << bits):
        mask = i ^ (i >> 1)
        flip = (mask ^ prev).bit_length() - 1
        v = flip + 1
        for w in range(n):
            if w == v:
                continue
            if side[w] == side[v]:
                cur += weight[v][w]
            else:
                cur -= weight[v][w]
        side[v] ^= 1
        prev = mask
        if mask != full:
            yield mask, cur


# ---------------------------------------------------------------------------
# the cut-cone simplex over Fractions
# ---------------------------------------------------------------------------


def _scale_to_integers(values):
    scale = 1
    for v in values:
        scale = scale * v.denominator // gcd(scale, v.denominator)
    return [int(v * scale) for v in values]


class OraclePhase1:
    """The phase-1 simplex over Fractions that the fraction-free one
    replaced, kept to pin its pivots; it reads the anti-cycling streak
    limit from ``l1cut`` so a patched limit applies to both.

    Revised phase-1 simplex for {lambda >= 0 : sum lambda_S d_S = d}.

    Starts from an all-artificial basis; cut columns price either from an
    explicit list or over all canonical cuts by Gray-code scan.  Pricing is
    steepest (largest positive crossing sum) until a run of degenerate pivots
    trips the anti-cycling switch to least-position pricing, which lasts
    until the next nondegenerate pivot.

    Each row of B^-1 is a dict from column to its nonzero Fraction entries:
    cut bases stay very sparse (685 nonzeros of 14 400 entries after the 12
    pivots of the 16-point K4 solve), so the dual, the entering direction and
    the pivot update touch only stored nonzeros, and entries that cancel are
    dropped.  ``pivots`` and ``degenerate_pivots`` count the work done.
    """

    def __init__(self, m: FiniteMetric, columns: Optional[Sequence[int]] = None):
        self.m = m
        self.n = m.size
        self.pairs = list(itertools.combinations(range(self.n), 2))
        self.rows = len(self.pairs)
        self.b = [m.distance(i, j) for i, j in self.pairs]
        self.full_mask = (1 << (self.n - 1)) - 1
        self.columns = None if columns is None else sorted(set(columns))
        if self.columns is not None:
            bad = [c for c in self.columns if not 0 <= c < self.full_mask]
            if bad:
                raise PreconditionError(f"bad cut masks {bad!r}")
        # variable ids: cut masks, then artificials at full_mask + row
        self.art0 = self.full_mask
        self.basis = [self.art0 + r for r in range(self.rows)]
        self.binv: list[dict[int, Fraction]] = [{r: Fraction(1)} for r in range(self.rows)]
        self.xb = list(self.b)
        self.bland = False
        self.streak = 0
        self.pivots = 0
        self.degenerate_pivots = 0
        self._rank_cache: dict[int, int] = {}

    # -- column geometry ----------------------------------------------------

    def _gray_rank(self, mask: int) -> int:
        # position of the mask in the Gray-code walk; the fixed variable
        # order used by the anti-cycling rule
        if mask not in self._rank_cache:
            inv = mask
            shift = 1
            while inv >> shift:
                inv ^= inv >> shift
                shift <<= 1
            self._rank_cache[mask] = inv
        return self._rank_cache[mask]

    def _var_rank(self, var: int) -> int:
        if var >= self.art0:
            return (1 << self.n) + (var - self.art0)
        return self._gray_rank(var)

    # -- pricing ------------------------------------------------------------

    def _dual(self) -> list[Fraction]:
        # y = c_B B^-1 with phase-1 costs: sum the rows of B^-1 at artificials
        y = [Fraction(0)] * self.rows
        for r, var in enumerate(self.basis):
            if var >= self.art0:
                for k, v in self.binv[r].items():
                    y[k] += v
        return y

    def _price(self, y: list[Fraction]) -> Optional[int]:
        basic = {v for v in self.basis if v < self.art0}
        if self.columns is not None:
            best: Optional[tuple] = None
            for mask in self.columns:
                if mask in basic:
                    continue
                score = sum((y[k] for k in _crossing(mask, self.pairs)), Fraction(0))
                if score <= 0:
                    continue
                rank = self._var_rank(mask)
                key = (rank,) if self.bland else (-score, rank)
                if best is None or key < best[0]:
                    best = (key, mask)
            return None if best is None else best[1]
        ints = _scale_to_integers(y)
        best_mask: Optional[int] = None
        best_key: Optional[tuple] = None
        for pos, (mask, value) in enumerate(gray_cut_values(self.n, ints)):
            if value <= 0 or mask in basic:
                continue
            if self.bland:
                return mask  # first positive in the fixed scan order
            key = (-value, pos)
            if best_key is None or key < best_key:
                best_key, best_mask = key, mask
        return best_mask

    # -- pivoting -----------------------------------------------------------

    def _ratio_test(self, direction: list[Fraction]) -> int:
        best_row = -1
        best: Optional[tuple[Fraction, int]] = None
        for r in range(self.rows):
            if direction[r] <= 0:
                continue
            ratio = self.xb[r] / direction[r]
            key = (ratio, self._var_rank(self.basis[r]))
            if best is None or key < best:
                best = key
                best_row = r
        if best_row < 0:
            raise InternalCheckError("phase-1 ratio test found no leaving row")
        return best_row

    def _pivot(self, row: int, entering: int, direction: list[Fraction]) -> None:
        piv = direction[row]
        brow = {k: v / piv for k, v in self.binv[row].items()}
        self.binv[row] = brow
        self.xb[row] /= piv
        for r, f in enumerate(direction):
            if r == row or f == 0:
                continue
            target = self.binv[r]
            for k, v in brow.items():
                value = target.get(k, 0) - f * v
                if value:
                    target[k] = value
                else:
                    target.pop(k, None)
            self.xb[r] -= f * self.xb[row]
        self.basis[row] = entering

    def objective(self) -> Fraction:
        return sum(
            (self.xb[r] for r, v in enumerate(self.basis) if v >= self.art0),
            Fraction(0),
        )

    def solve(self) -> tuple[Fraction, list[Fraction]]:
        """Run to optimality; returns (objective, dual y at optimum)."""
        while True:
            y = self._dual()
            entering = self._price(y)
            if entering is None:
                return self.objective(), y
            crossing = set(_crossing(entering, self.pairs))
            direction = [
                sum((v for k, v in brow.items() if k in crossing), Fraction(0))
                for brow in self.binv
            ]
            row = self._ratio_test(direction)
            degenerate = self.xb[row] == 0
            self._pivot(row, entering, direction)
            self.pivots += 1
            if degenerate:
                self.degenerate_pivots += 1
                self.streak += 1
                if self.streak >= l1cut._DEGENERATE_STREAK_LIMIT:
                    self.bland = True
            else:
                self.streak = 0
                self.bland = False

    def decomposition(self) -> CutDecomposition:
        weights: dict[int, Fraction] = {}
        for r, var in enumerate(self.basis):
            if var < self.art0 and self.xb[r] > 0:
                weights[var] = weights.get(var, Fraction(0)) + self.xb[r]
        entries = tuple(
            (Cut.from_mask(self.n, mask), weight)
            for mask, weight in sorted(weights.items())
        )
        return CutDecomposition(metric=self.m, entries=entries)
