"""Constructors for standard graphs and seeded random test graphs."""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from fractions import Fraction

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


@dataclass(frozen=True)
class FamilySpec:
    """Which family to build, and its parameters."""

    tag: str
    sizes: tuple[int, ...] = ()
    lengths: tuple[Fraction, ...] = ()
    seed: int = 0
    extra_edges: int = 0
    min_len: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        if self.tag not in FAMILY_TAGS:
            raise PreconditionError(f"unknown family tag: {self.tag!r}")


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


def make_named(spec: FamilySpec) -> MetricGraph:
    """Unit-length named family: complete, complete_bipartite, cycle, or path."""
    if spec.tag == "complete":
        (n,) = spec.sizes
        return _complete(n)
    if spec.tag == "complete_bipartite":
        a, b = spec.sizes
        return _complete_bipartite(a, b)
    if spec.tag == "cycle":
        (n,) = spec.sizes
        return _cycle(n)
    if spec.tag == "path":
        (n,) = spec.sizes
        return _path(n)
    raise PreconditionError(f"make_named does not handle tag {spec.tag!r}")


def from_spec(spec: FamilySpec) -> MetricGraph:
    """Dispatch any family tag to its constructor."""
    if spec.tag == "theta":
        l1, l2, l3 = spec.lengths
        return make_theta(l1, l2, l3)
    if spec.tag == "random_connected":
        (n,) = spec.sizes
        return make_random_connected(
            n, n - 1 + spec.extra_edges, seed=spec.seed, min_len=spec.min_len
        )
    if spec.tag == "random_cactus":
        (blocks,) = spec.sizes
        return make_random_cactus(blocks, seed=spec.seed, min_len=spec.min_len)
    return make_named(spec)


def _random_length(rng: random.Random, min_len: Fraction) -> Fraction:
    # Uniform over the 61 grid points of [min_len, 2 * min_len] with step
    # min_len / 60, keeping denominators bounded.
    return min_len * (1 + Fraction(rng.randint(0, 60), 60))


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


def make_random_connected(
    n: int,
    m: int,
    seed: int = 0,
    min_len: RationalLike = 1,
    allow_self_loops: bool = False,
) -> MetricGraph:
    """Seeded random connected multigraph with n vertices and m edges.

    A uniform random spanning tree comes first, then ``m - (n - 1)`` extra
    edges with endpoints drawn uniformly (parallel edges allowed, self-loops
    only on request).  Lengths are uniform grid rationals in
    ``[min_len, 2 * min_len]``.  Deterministic in ``seed``.
    """
    if n < 1:
        raise PreconditionError("need at least one vertex")
    if m < n - 1:
        raise PreconditionError(f"{m} edges cannot connect {n} vertices")
    base = as_rational(min_len)
    if base <= 0:
        raise PreconditionError("min_len must be positive")
    rng = random.Random(seed)
    names = [f"v{i}" for i in range(1, n + 1)]
    rows: list[tuple[str, str, str, Fraction]] = []
    counter = 0
    for a, b in _random_tree_edges(n, rng):
        counter += 1
        rows.append((f"e{counter}", names[a], names[b], _random_length(rng, base)))
    for _ in range(m - (n - 1)):
        counter += 1
        while True:
            a = rng.randrange(n)
            b = rng.randrange(n)
            if a != b or allow_self_loops:
                break
        rows.append((f"e{counter}", names[a], names[b], _random_length(rng, base)))
    return build_graph(names, rows)


def make_random_cactus(
    blocks: int,
    seed: int = 0,
    min_len: RationalLike = 1,
    max_cycle: int = 5,
) -> MetricGraph:
    """Seeded random cactus whose blocks are single cycles or bridges.

    Every block has cycle rank at most 1, so the result never contains a
    theta subgraph.  Useful as a negative-control generator.
    """
    if blocks < 1:
        raise PreconditionError("need at least one block")
    base = as_rational(min_len)
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
            rows.append((f"e{ecount}", anchor, names[-1], _random_length(rng, base)))
        else:
            size = rng.randint(2, max_cycle)
            ring = [anchor]
            for _ in range(size - 1):
                names.append(f"v{len(names) + 1}")
                ring.append(names[-1])
            for i in range(size):
                ecount += 1
                rows.append(
                    (f"e{ecount}", ring[i], ring[(i + 1) % size], _random_length(rng, base))
                )
    return build_graph(names, rows)
