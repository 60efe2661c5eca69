"""Independent re-checks of thetagap certificates.

Nothing in this file imports thetagap.  Distances come from this file's own
Dijkstra over integer-scaled edge lengths, and every certificate is checked
against them with exact rational arithmetic.  A check raises CheckFailure with
a one-line reason; it never compares against stored copies of earlier output.
"""

from __future__ import annotations

import heapq
import itertools
import math
from fractions import Fraction

TWELFTH = Fraction(1, 12)


class CheckFailure(Exception):
    """An output of the program disagrees with the independent computation."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


def rational(text) -> Fraction:
    require(isinstance(text, str), f"rational {text!r} is not a string")
    return Fraction(text)


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------


def point_key(doc: dict) -> tuple:
    """("v", vertex) or ("e", edge, offset) from a points-file entry."""
    if set(doc) == {"vertex"}:
        return ("v", doc["vertex"])
    require(set(doc) == {"edge", "offset"}, f"bad point entry {doc!r}")
    return ("e", doc["edge"], rational(doc["offset"]))


class Geometry:
    """Exact distances between points of one metric graph (a graph document)."""

    def __init__(self, graph: dict):
        self.edges = {
            e["id"]: (e["ends"][0], e["ends"][1], rational(e["length"])) for e in graph["edges"]
        }
        self.scale = math.lcm(*(length.denominator for _, _, length in self.edges.values()))
        self.adj: dict[str, list[tuple[str, int]]] = {v: [] for v in graph["vertices"]}
        for a, b, length in self.edges.values():
            if a != b:
                w = int(length * self.scale)
                self.adj[a].append((b, w))
                self.adj[b].append((a, w))
        self._sssp: dict[str, dict[str, int]] = {}

    def _from(self, source: str) -> dict[str, int]:
        if source not in self._sssp:
            dist = {source: 0}
            heap = [(0, source)]
            while heap:
                d, v = heapq.heappop(heap)
                if d > dist[v]:
                    continue
                for w, length in self.adj[v]:
                    nd = d + length
                    if nd < dist.get(w, nd + 1):
                        dist[w] = nd
                        heapq.heappush(heap, (nd, w))
            require(len(dist) == len(self.adj), "graph is not connected")
            self._sssp[source] = dist
        return self._sssp[source]

    def _anchors(self, p: tuple) -> list[tuple[str, Fraction]]:
        if p[0] == "v":
            return [(p[1], Fraction(0))]
        a, b, length = self.edges[p[1]]
        require(0 <= p[2] <= length, f"offset {p[2]} outside edge {p[1]}")
        return [(a, p[2]), (b, length - p[2])]

    def distance(self, p: tuple, q: tuple) -> Fraction:
        best = min(
            dp + Fraction(self._from(x)[y], self.scale) + dq
            for x, dp in self._anchors(p)
            for y, dq in self._anchors(q)
        )
        if p[0] == q[0] == "e" and p[1] == q[1]:
            best = min(best, abs(p[2] - q[2]))
        return best

    def matrix(self, points: list[tuple]) -> list[list[Fraction]]:
        n = len(points)
        d = [[Fraction(0)] * n for _ in range(n)]
        for i, j in itertools.combinations(range(n), 2):
            d[i][j] = d[j][i] = self.distance(points[i], points[j])
        return d


# ---------------------------------------------------------------------------
# weightings
# ---------------------------------------------------------------------------


def weighting(entries) -> dict[int, Fraction]:
    require(isinstance(entries, list), "weighting is not a list")
    out = {int(i): rational(v) for i, v in entries}
    require(len(out) == len(entries), "weighting repeats an index")
    return out


def require_balanced(w: dict[int, Fraction], what: str) -> None:
    require(sum(w.values(), Fraction(0)) == 0, f"{what} does not sum to zero")
    require(sum((abs(v) for v in w.values()), Fraction(0)) == 1, f"{what} mass is not one")


def gamma(d: list[list[Fraction]], w: dict[int, Fraction]) -> Fraction:
    """Sum of w_i w_j d(i, j) over unordered pairs of distinct indices."""
    items = sorted(w.items())
    require(all(0 <= i < len(d) for i, _ in items), "weighting index out of range")
    return sum(
        (wi * wj * d[i][j] for (i, wi), (j, wj) in itertools.combinations(items, 2)),
        Fraction(0),
    )


def balanced(values: list[int]) -> dict[int, Fraction]:
    """The zero-sum, mass-one weighting proportional to values minus their mean."""
    mean = Fraction(sum(values), len(values))
    centered = [v - mean for v in values]
    mass = sum(abs(v) for v in centered)
    return {i: v / mass for i, v in enumerate(centered) if v}


# ---------------------------------------------------------------------------
# certificate checks
# ---------------------------------------------------------------------------


def _check_theta(geo: Geometry, theta: dict) -> None:
    u, v = theta["u"], theta["v"]
    require(u != v, "theta branch vertices coincide")
    interiors, edge_sets, total = [], [], Fraction(0)
    for path in theta["paths"]:
        here, length, visited = u, Fraction(0), [u]
        for eid, forward in path["edges"]:
            require(eid in geo.edges, f"theta uses unknown edge {eid!r}")
            a, b, edge_length = geo.edges[eid]
            start, end = (a, b) if forward else (b, a)
            require(start == here, f"theta path is broken at edge {eid!r}")
            here = end
            length += edge_length
            visited.append(here)
        require(here == v, "theta path does not end at the second branch vertex")
        require(length == rational(path["length"]), "theta path length is misstated")
        inner = visited[1:-1]
        require(len(set(inner)) == len(inner), "theta path revisits a vertex")
        require(u not in inner and v not in inner, "theta path passes a branch vertex")
        interiors.append(set(inner))
        edge_sets.append({eid for eid, _ in path["edges"]})
        total += length
    require(len(interiors) == 3, "theta does not have three paths")
    for i, j in itertools.combinations(range(3), 2):
        require(not interiors[i] & interiors[j], "theta paths share an interior vertex")
        require(not edge_sets[i] & edge_sets[j], "theta paths share an edge")
    require(total == rational(theta["total_length"]), "theta total length is misstated")


def check_witness(geo: Geometry, cert: dict) -> None:
    """Gap from own distances, at least 1/12; omega balanced with energy gap/36."""
    pts = [point_key(p) for p in cert["b_points"] + cert["r_points"]]
    require(len(pts) == 6, "witness needs three B and three R points")
    d = geo.matrix(pts)
    stored = {(int(i), int(j)): rational(v) for i, j, v in cert["distances"]}
    for i, j in itertools.combinations(range(6), 2):
        require(stored.get((i, j)) == d[i][j], f"stored distance ({i},{j}) is wrong")
    within = sum((d[i][j] + d[i + 3][j + 3] for i, j in itertools.combinations(range(3), 2)), Fraction(0))
    cross = sum((d[i][j] for i in range(3) for j in range(3, 6)), Fraction(0))
    gap = within - cross
    require(gap == rational(cert["gap"]), f"stored gap {cert['gap']} != recomputed {gap}")
    require(gap >= TWELFTH, f"gap {gap} is below 1/12")
    omega = weighting(cert["omega"])
    require_balanced(omega, "omega")
    require(gamma(d, omega) == gap / 36, "omega energy is not gap/36")
    _check_theta(geo, cert["theta"])


def check_negtype(geo: Geometry, points: list[dict], cert: dict, expect) -> None:
    """Transcript re-multiplies to the own Gram matrix, or the violation has energy > 0."""
    require(cert["points"] == points, "certificate points differ from the input")
    if expect is not None:
        require(cert["verdict"] is expect, f"verdict {cert['verdict']} contradicts the known answer")
    d = geo.matrix([point_key(p) for p in points])
    n = len(points)
    if not cert["verdict"]:
        w = weighting(cert["violation"])
        require_balanced(w, "violation")
        value = gamma(d, w)
        require(value > 0, "violation energy is not positive")
        require(value == rational(cert["gamma"]), "stored gamma is wrong")
        return
    b = cert["basepoint"]
    require(isinstance(b, int) and 0 <= b < n, "basepoint out of range")
    others = [i for i in range(n) if i != b]
    gram = [[(d[j][b] + d[k][b] - d[j][k]) / 2 for k in others] for j in others]
    t = cert["transcript"]
    size = n - 1
    perm = [int(i) for i in t["perm"]]
    require(sorted(perm) == list(range(size)), "transcript perm is not a permutation")
    diag = [rational(v) for v in t["diag"]]
    lower = [[rational(v) for v in row] for row in t["lower"]]
    require(len(diag) == size and len(lower) == size, "transcript has the wrong size")
    require(all(v >= 0 for v in diag), "transcript has a negative pivot")
    for i, row in enumerate(lower):
        require(len(row) == size and row[i] == 1, "transcript lower factor is not unit diagonal")
        require(all(v == 0 for v in row[i + 1:]), "transcript lower factor is not triangular")
    scaled = [[lower[i][k] * diag[k] for k in range(i + 1)] for i in range(size)]
    for i in range(size):
        for j in range(i + 1):
            rhs = sum((scaled[i][k] * lower[j][k] for k in range(j + 1) if lower[j][k]), Fraction(0))
            require(gram[perm[i]][perm[j]] == rhs, f"L D L^T differs from the Gram matrix at ({i},{j})")


def check_gap(geo: Geometry, points: list[dict], cert: dict, probes: list[dict[int, Fraction]]) -> None:
    """lower = gamma(weighting), upper = min(spectral, diam/4), upper above every probe."""
    require(cert["points"] == points, "certificate points differ from the input")
    d = geo.matrix([point_key(p) for p in points])
    n = len(points)
    w = weighting(cert["weighting"])
    require_balanced(w, "weighting")
    lower, upper = rational(cert["lower"]), rational(cert["upper"])
    require(gamma(d, w) == lower, "weighting does not attain the lower bound")
    require(lower <= upper, "bracket is empty")
    diam = max(max(row) for row in d)
    require(rational(cert["upper_diameter"]) == diam / 4, "diameter bound is not diam/4")
    mu = rational(cert["spectral_mu"])
    spectral = mu / 2 if mu >= 0 else mu / (2 * n)
    require(rational(cert["upper_spectral"]) == spectral, "spectral bound does not follow from mu")
    require(upper == min(spectral, diam / 4), "upper is not min(spectral, diam/4)")
    closest = min(d[i][j] for i, j in itertools.combinations(range(n), 2))
    require(upper >= -closest / 4, "upper is below a two-point energy")
    for probe in probes:
        require(upper >= gamma(d, probe), "upper is below the energy of a probe weighting")


def _cut_sums_nonpositive(n: int, f: dict[tuple[int, int], Fraction]) -> bool:
    """True when every canonical cut's crossing sum of f is <= 0 (Gray-code walk)."""
    scale = math.lcm(*(v.denominator for v in f.values())) if f else 1
    weight = [[0] * n for _ in range(n)]
    for (i, j), v in f.items():
        weight[i][j] = weight[j][i] = int(v * scale)
    on_zero_side = [True] + [False] * (n - 1)
    cur = sum(weight[0][1:])  # cut {0}
    if cur > 0:
        return False
    full = (1 << (n - 1)) - 1
    prev = 0
    for step in range(1, 1 << (n - 1)):
        gray = step ^ (step >> 1)
        v = (gray ^ prev).bit_length()
        for w in range(n):
            if w != v:
                cur += weight[v][w] if on_zero_side[w] == on_zero_side[v] else -weight[v][w]
        on_zero_side[v] = not on_zero_side[v]
        prev = gray
        if gray != full and cur > 0:
            return False
    return True


def check_l1(geo: Geometry, points: list[dict], cert: dict, expect) -> None:
    """Re-expand the cuts against own distances, or check the Farkas vector on all cuts."""
    require(cert["points"] == points, "certificate points differ from the input")
    if expect is not None:
        require(cert["feasible"] is expect, f"verdict {cert['feasible']} contradicts the known answer")
    d = geo.matrix([point_key(p) for p in points])
    n = len(points)
    pairs = list(itertools.combinations(range(n), 2))
    if cert["feasible"]:
        total = {pair: Fraction(0) for pair in pairs}
        for cut in cert["cuts"]:
            side = set(cut["member_indices"])
            weight = rational(cut["weight"])
            require(weight > 0, "cut weight is not positive")
            require(side <= set(range(n)) and 0 < len(side) < n, "cut is not proper")
            for i, j in pairs:
                if (i in side) != (j in side):
                    total[(i, j)] += weight
        for i, j in pairs:
            require(total[(i, j)] == d[i][j], f"cuts give {total[(i, j)]} on pair ({i},{j}), not {d[i][j]}")
        return
    f = {(int(i), int(j)): rational(v) for i, j, v in cert["farkas"]}
    require(set(f) <= set(pairs), "Farkas vector names a bad pair")
    require(sum((v * d[i][j] for (i, j), v in f.items()), Fraction(0)) > 0, "Farkas vector does not cut off the metric")
    require(_cut_sums_nonpositive(n, f), "Farkas vector is positive on some cut")


# ---------------------------------------------------------------------------
# tampering
# ---------------------------------------------------------------------------


def tamper(cert: dict) -> dict:
    """A copy of the certificate with one checked value made false."""
    out = dict(cert)
    kind = cert["kind"]
    if kind == "witness":
        out["gap"] = str(rational(cert["gap"]) + 1)
    elif kind == "negative_type" and cert["verdict"]:
        t = dict(cert["transcript"])
        t["diag"] = [str(rational(t["diag"][0]) + 1)] + t["diag"][1:]
        out["transcript"] = t
    elif kind == "negative_type":
        out["gamma"] = str(rational(cert["gamma"]) + 1)
    elif kind == "gap_bracket":
        # upper no longer equals min(upper_spectral, upper_diameter)
        lower, upper = rational(cert["lower"]), rational(cert["upper"])
        out["upper"] = str(lower if lower != upper else upper + 1)
    elif kind == "l1" and cert["feasible"]:
        cuts = [dict(c) for c in cert["cuts"]]
        cuts[0]["weight"] = str(rational(cuts[0]["weight"]) + 1)
        out["cuts"] = cuts
    else:
        # A pair weight larger than the whole vector's mass makes every cut
        # separating that pair positive.
        mass = sum(abs(rational(v)) for _, _, v in cert["farkas"])
        i, j, v = cert["farkas"][0]
        out["farkas"] = [[i, j, str(rational(v) + mass + 1)]] + cert["farkas"][1:]
    return out
