"""Constructors for standard graphs and seeded random test graphs."""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .core import MetricGraph, RationalLike, as_rational, build_graph
from .errors import PreconditionError

FAMILY_TAGS = (
    "theta",
    "complete",
    "complete_bipartite",
    "cycle",
    "path",
    "random_connected",
    "random_cactus",
)


def make_theta(l1: RationalLike, l2: RationalLike, l3: RationalLike) -> MetricGraph:
    """Two vertices joined by three parallel edges of the given lengths."""
    lengths = [as_rational(x) for x in (l1, l2, l3)]
    if any(x <= 0 for x in lengths):
        raise PreconditionError("theta edge lengths must be positive")
    return build_graph(
        ["u", "v"],
        [("e1", "u", "v", lengths[0]), ("e2", "u", "v", lengths[1]), ("e3", "u", "v", lengths[2])],
    )


def _complete(n: int) -> MetricGraph:
    if n < 1:
        raise PreconditionError("complete graph needs n >= 1")
    vertices = [f"v{i}" for i in range(1, n + 1)]
    edges = [
        (f"e{i}_{j}", f"v{i}", f"v{j}", 1)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    ]
    return build_graph(vertices, edges)


def _complete_bipartite(a: int, b: int) -> MetricGraph:
    if a < 1 or b < 1:
        raise PreconditionError("complete bipartite graph needs both sides nonempty")
    vertices = [f"a{i}" for i in range(1, a + 1)] + [f"b{j}" for j in range(1, b + 1)]
    edges = [
        (f"e{i}_{j}", f"a{i}", f"b{j}", 1)
        for i in range(1, a + 1)
        for j in range(1, b + 1)
    ]
    return build_graph(vertices, edges)


def _cycle(n: int) -> MetricGraph:
    if n < 1:
        raise PreconditionError("cycle needs n >= 1")
    vertices = [f"v{i}" for i in range(1, n + 1)]
    if n == 1:
        return build_graph(vertices, [("e1", "v1", "v1", 1)])
    edges = [(f"e{i}", f"v{i}", f"v{i % n + 1}", 1) for i in range(1, n + 1)]
    return build_graph(vertices, edges)


def _path(n: int) -> MetricGraph:
    if n < 1:
        raise PreconditionError("path needs n >= 1")
    vertices = [f"v{i}" for i in range(1, n + 1)]
    edges = [(f"e{i}", f"v{i}", f"v{i + 1}", 1) for i in range(1, n)]
    return build_graph(vertices, edges)


# The unit-length families, by tag; each takes ``FamilySpec.sizes``.
_UNIT_FAMILIES: dict[str, Callable[..., MetricGraph]] = {
    "complete": _complete,
    "complete_bipartite": _complete_bipartite,
    "cycle": _cycle,
    "path": _path,
}


@dataclass(frozen=True)
class FamilySpec:
    """Which unit-length family to build, and its sizes: one for complete,
    cycle and path, two for complete_bipartite."""

    tag: str
    sizes: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.tag not in _UNIT_FAMILIES:
            raise PreconditionError(f"unknown family tag: {self.tag!r}")


def from_spec(spec: FamilySpec) -> MetricGraph:
    """The unit-length graph a spec names."""
    return _UNIT_FAMILIES[spec.tag](*spec.sizes)


# The largest cycle block ``make_random_cactus`` draws.
_MAX_CYCLE = 5


def _random_length(rng: random.Random) -> Fraction:
    # Uniform over the 61 grid points of [1, 2] with step 1/60, keeping
    # denominators bounded.
    return 1 + Fraction(rng.randint(0, 60), 60)


def _random_tree_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Uniform labeled tree on 0..n-1 decoded from a random Pruefer sequence."""
    if n == 1:
        return []
    if n == 2:
        return [(0, 1)]
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges: list[tuple[int, int]] = []
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return edges


def make_random_connected(n: int, m: int, seed: int = 0) -> MetricGraph:
    """Seeded random connected multigraph with n vertices and m edges.

    A uniform random spanning tree comes first, then ``m - (n - 1)`` extra
    edges with distinct endpoints drawn uniformly (parallel edges allowed, no
    self-loops).  Lengths are uniform grid rationals in [1, 2], which
    ``core.scale(g, L)`` moves to [L, 2L].  Deterministic in ``seed``.
    """
    if n < 1:
        raise PreconditionError("need at least one vertex")
    if m < n - 1:
        raise PreconditionError(f"{m} edges cannot connect {n} vertices")
    if n == 1 and m > 0:
        raise PreconditionError("edges without self-loops need at least two vertices")
    rng = random.Random(seed)
    names = [f"v{i}" for i in range(1, n + 1)]
    rows: list[tuple[str, str, str, Fraction]] = []
    counter = 0
    for a, b in _random_tree_edges(n, rng):
        counter += 1
        rows.append((f"e{counter}", names[a], names[b], _random_length(rng)))
    for _ in range(m - (n - 1)):
        counter += 1
        while True:
            a = rng.randrange(n)
            b = rng.randrange(n)
            if a != b:
                break
        rows.append((f"e{counter}", names[a], names[b], _random_length(rng)))
    return build_graph(names, rows)


def make_random_cactus(blocks: int, seed: int = 0) -> MetricGraph:
    """Seeded random cactus whose blocks are single cycles or bridges.

    Every block has cycle rank at most 1, so the result never contains a
    theta subgraph.  Useful as a negative-control generator.  Lengths are
    drawn as in ``make_random_connected``.
    """
    if blocks < 1:
        raise PreconditionError("need at least one block")
    rng = random.Random(seed)
    names = ["v1"]
    rows: list[tuple[str, str, str, Fraction]] = []
    ecount = 0
    for _ in range(blocks):
        anchor = names[rng.randrange(len(names))]
        kind = rng.choice(("cycle", "bridge"))
        if kind == "bridge":
            names.append(f"v{len(names) + 1}")
            ecount += 1
            rows.append((f"e{ecount}", anchor, names[-1], _random_length(rng)))
        else:
            size = rng.randint(2, _MAX_CYCLE)
            ring = [anchor]
            for _ in range(size - 1):
                names.append(f"v{len(names) + 1}")
                ring.append(names[-1])
            for i in range(size):
                ecount += 1
                rows.append(
                    (f"e{ecount}", ring[i], ring[(i + 1) % size], _random_length(rng))
                )
    return build_graph(names, rows)
