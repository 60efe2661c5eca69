"""Seeded inputs for the three workloads.

Graphs come from ``thetagap.families`` or are assembled here; points, the
known answers and the probe weightings are chosen here.  Everything is a
function of the workload name and the seed, written as JSON files in the
formats the CLI reads.  The program sees only those files.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional

from checks import Geometry, balanced, gamma, point_key

# Random witness graphs: (vertices, edges, flow-work target).  The target is
# the median of flow_work() over 400 seeds at that size; a graph is accepted
# only within WORK_WINDOW of it, so every seed asks minimal_theta for about
# the same number and size of min-cost flows.
RANDOM_WITNESS_GRAPHS = ((40, 52, 8063), (56, 73, 22869), (72, 94, 49869))
WORK_WINDOW = 0.03
# Unit subdivisions: (family tag, sizes, k), each edge a path of k + 1 edges.
SUBDIVISIONS = (("complete", (5,), 20), ("complete_bipartite", (3, 3), 25))
SUBDIVISION_COMPANION_HOST = "complete_bipartite33_k25.json"
WITNESS_COMPANIONS = (
    ("complete", (4,), 10),
    ("complete", (5,), 8),
    ("complete_bipartite", (2, 3), 20),
    ("complete_bipartite", (3, 3), 8),
)
# Cactus graphs: (blocks, vertices).  Only cacti with the modal vertex count
# for their block count are kept, so graph size does not vary with the seed.
CACTUS = (32, 56)
THETA_BASE_CACTUS = (28, 47)
SMALL_CACTUS = (6, 10)
THETA_PATH_EDGES = 3
NEGTYPE_POINTS, NEGTYPE_SETS = 40, 3  # per graph kind
GAP_POINTS, GAP_SETS = 24, 2  # per graph kind
GAP_ARGS = ("--starts", "8")
# Commands outside a workload's focus run on small fixed inputs, COMPANIONS
# of each, so that every timing has several samples per run.
COMPANIONS, COMPANION_POINTS = 4, 8
PROBES = 8


@dataclass
class Job:
    """One certificate-producing CLI call, and what its output must satisfy."""

    name: str
    command: str
    graph: str
    points: Optional[str] = None
    args: tuple[str, ...] = ()
    expect: Optional[bool] = None  # negtype verdict or l1 feasibility, when known
    probes: list = field(default_factory=list)  # gap: weightings the upper end must dominate


@dataclass
class Inputs:
    graphs: dict[str, dict] = field(default_factory=dict)
    points: dict[str, list[dict]] = field(default_factory=dict)
    jobs: list[Job] = field(default_factory=list)

    def write(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        for name, doc in self.graphs.items():
            (directory / name).write_text(json.dumps(doc) + "\n")
        for name, pts in self.points.items():
            (directory / name).write_text(json.dumps({"points": pts}) + "\n")


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------


def graph_doc(g) -> dict:
    """A graph file document from a thetagap MetricGraph."""
    return {
        "vertices": list(g.vertices),
        "edges": [
            {"id": e.id, "ends": list(e.ends), "length": str(e.length)} for e in g.edges
        ],
    }


def subdivided(doc: dict, k: int) -> dict:
    """Each unit edge becomes a path of k + 1 unit edges."""
    vertices = list(doc["vertices"])
    edges = []
    for e in doc["edges"]:
        stops = [e["ends"][0]] + [f"{e['id']}.{i}" for i in range(1, k + 1)] + [e["ends"][1]]
        vertices.extend(stops[1:-1])
        edges.extend(
            {"id": f"{e['id']}:{i}", "ends": [stops[i], stops[i + 1]], "length": "1"}
            for i in range(k + 1)
        )
    return {"vertices": vertices, "edges": edges}


def with_theta(doc: dict, anchor: str, path_edges: int) -> tuple[dict, list[dict]]:
    """Glue a theta of three unit paths at ``anchor``; return it and its witness.

    The theta is its own block, so distances between its points are those of
    the unit theta scaled by ``path_edges``.  The six points are the unit
    theta's witness B = {u, v, v}, R = {1/12 along path 1, 11/12 along paths
    2 and 3}, scaled the same way; their gap is path_edges / 12.
    """
    vertices = list(doc["vertices"]) + ["t0"]
    edges = list(doc["edges"])
    for p in (1, 2, 3):
        stops = [anchor] + [f"t{p}.{i}" for i in range(1, path_edges)] + ["t0"]
        vertices.extend(stops[1:-1])
        edges.extend(
            {"id": f"t{p}:{i}", "ends": [stops[i], stops[i + 1]], "length": "1"}
            for i in range(path_edges)
        )
    near = Fraction(path_edges, 12)
    far = Fraction(11 * path_edges, 12)
    witness = [
        {"vertex": anchor},
        {"vertex": "t0"},
        {"vertex": "t0"},
        {"edge": f"t1:{int(near)}", "offset": str(near - int(near))},
        {"edge": f"t2:{int(far)}", "offset": str(far - int(far))},
        {"edge": f"t3:{int(far)}", "offset": str(far - int(far))},
    ]
    return {"vertices": vertices, "edges": edges}, witness


def _blocks(doc: dict) -> list[tuple[set[str], int]]:
    """(vertices, edge count) of each biconnected block, self-loops ignored."""
    adj: dict[str, list[tuple[int, str]]] = {v: [] for v in doc["vertices"]}
    for k, e in enumerate(doc["edges"]):
        a, b = e["ends"]
        if a != b:
            adj[a].append((k, b))
            adj[b].append((k, a))
    ends = [tuple(e["ends"]) for e in doc["edges"]]
    disc: dict[str, int] = {}
    low: dict[str, int] = {}
    out, edge_stack = [], []
    for root in doc["vertices"]:
        if root in disc:
            continue
        disc[root] = low[root] = len(disc)
        stack = [(root, -1, iter(adj[root]))]
        while stack:
            v, in_edge, it = stack[-1]
            for k, w in it:
                if k == in_edge:
                    continue
                if w not in disc:
                    disc[w] = low[w] = len(disc)
                    edge_stack.append(k)
                    stack.append((w, k, iter(adj[w])))
                    break
                if disc[w] < disc[v]:
                    edge_stack.append(k)
                    low[v] = min(low[v], disc[w])
            else:
                stack.pop()
                if stack:
                    parent = stack[-1][0]
                    low[parent] = min(low[parent], low[v])
                    if low[v] >= disc[parent]:
                        block = []
                        while True:
                            k = edge_stack.pop()
                            block.append(k)
                            if k == in_edge:
                                break
                        out.append(({x for k in block for x in ends[k]}, len(block)))
    return out


def flow_work(doc: dict) -> int:
    """Sum over blocks of cycle rank >= 2 of (branch pairs) x (block size).

    minimal_theta solves one min-cost flow per pair of degree->=3 vertices
    of such a block, each over the whole block, so this predicts its work.
    """
    ends = [tuple(e["ends"]) for e in doc["edges"] if e["ends"][0] != e["ends"][1]]
    work = 0
    for verts, m in _blocks(doc):
        if m - len(verts) + 1 < 2:
            continue
        degree = {v: 0 for v in verts}
        for a, b in ends:
            if a in verts and b in verts:
                degree[a] += 1
                degree[b] += 1
        k = sum(1 for d in degree.values() if d >= 3)
        work += k * (k - 1) // 2 * (len(verts) + m)
    return work


def _cactus(rng: random.Random, size: tuple[int, int]) -> dict:
    from thetagap.families import make_random_cactus

    blocks, vertices = size
    while True:
        g = make_random_cactus(blocks, seed=rng.randrange(2**31))
        if len(g.vertices) == vertices:
            return graph_doc(g)


def _random_witness_graph(rng: random.Random, n: int, m: int, target: int) -> dict:
    from thetagap.families import make_random_connected

    while True:
        doc = graph_doc(make_random_connected(n, m, seed=rng.randrange(2**31)))
        if abs(flow_work(doc) - target) <= WORK_WINDOW * target:
            return doc


# ---------------------------------------------------------------------------
# points and weightings
# ---------------------------------------------------------------------------


def sample_points(rng: random.Random, doc: dict, vertices: int, interior: int, taken=()) -> list[dict]:
    """Distinct vertices and interior edge points (offsets j/q of the edge)."""
    seen = {tuple(sorted(p.items())) for p in taken}
    out = []
    for v in rng.sample(doc["vertices"], len(doc["vertices"])):
        if len(out) == vertices:
            break
        p = {"vertex": v}
        if tuple(sorted(p.items())) not in seen:
            seen.add(tuple(sorted(p.items())))
            out.append(p)
    while len(out) < vertices + interior:
        e = rng.choice(doc["edges"])
        q = rng.choice((2, 3, 4, 5, 6))
        off = Fraction(e["length"]) * Fraction(rng.randint(1, q - 1), q)
        p = {"edge": e["id"], "offset": str(off)}
        if tuple(sorted(p.items())) not in seen:
            seen.add(tuple(sorted(p.items())))
            out.append(p)
    return out


def probes(rng: random.Random, n: int, extra=()) -> list[dict[int, Fraction]]:
    """Seeded random balanced weightings, plus any given ones."""
    out = []
    while len(out) < PROBES:
        values = [rng.randint(-6, 6) for _ in range(n)]
        if len(set(values)) > 1:
            out.append(balanced(values))
    return out + list(extra)


def witness_weighting(b: list[int], r: list[int]) -> dict[int, Fraction]:
    w: dict[int, Fraction] = {}
    for i in b:
        w[i] = w.get(i, Fraction(0)) - Fraction(1, 6)
    for i in r:
        w[i] = w.get(i, Fraction(0)) + Fraction(1, 6)
    return {i: v for i, v in w.items() if v}


def _known_witness(doc: dict, pts: list[dict], slots: list[int], gap: Fraction) -> dict:
    """The weighting -1/6 on B, +1/6 on R, after checking its gap from own distances."""
    d = Geometry(doc).matrix([point_key(p) for p in pts])
    w = witness_weighting(slots[:3], slots[3:])
    if gamma(d, w) != gap / 36:
        raise RuntimeError("benchmark input: the glued theta witness has the wrong gap")
    return w


def _not_l1_but_negative_type(rng: random.Random, n: int, m: int) -> dict:
    """A unit graph whose vertex metric is strictly of negative type but violates
    a pentagonal or heptagonal hypermetric inequality, hence is not l1."""
    import numpy as np
    from thetagap.families import make_random_connected

    rows = hypermetric_rows(n)
    while True:
        g = make_random_connected(n, m, seed=rng.randrange(2**31))
        doc = graph_doc(g)
        for e in doc["edges"]:
            e["length"] = "1"
        pts = [{"vertex": v} for v in doc["vertices"]]
        d = Geometry(doc).matrix([point_key(p) for p in pts])
        df = np.array([[float(x) for x in row] for row in d])
        gram = (df[:-1, -1][:, None] + df[-1, :-1][None, :] - df[:-1, :-1]) / 2
        if np.linalg.eigvalsh(gram)[0] < 1e-6:
            continue
        if (rows @ df * rows).sum(axis=1).max() > 1:
            return doc


def hypermetric_rows(n: int):
    """Every b with three +1 and two -1, or four +1 and three -1, entries.

    sum_ij b_i b_j d(i, j) > 0 (twice the pair sum) refutes l1-embeddability.
    """
    rows = []
    for plus, minus in ((3, 2), (4, 3)):
        for chosen in itertools.combinations(range(n), plus + minus):
            for neg in itertools.combinations(chosen, minus):
                b = [0.0] * n
                for i in chosen:
                    b[i] = -1.0 if i in neg else 1.0
                rows.append(b)
    import numpy as np

    return np.array(rows)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _theta_points(rng: random.Random, theta: dict, witness: list[dict], count: int) -> tuple[list[dict], list[int]]:
    """count points of a glued-theta graph: the witness at seeded positions
    among half vertices, half interior points; returns them and the positions."""
    rest = count - len(witness)
    pts = sample_points(rng, theta, rest // 2, rest - rest // 2, taken=witness)
    slots = sorted(rng.sample(range(count), len(witness)))
    for slot, p in zip(slots, witness):
        pts.insert(slot, p)
    return pts, slots


def _companions(inp: Inputs, fixed: random.Random, host: str, commands: tuple[str, ...], expect=None) -> None:
    """COMPANIONS fixed point sets on graph ``host``, each run by ``commands``."""
    half = COMPANION_POINTS // 2
    for k in range(COMPANIONS):
        name = f"companion{k}.points.json"
        inp.points[name] = sample_points(fixed, inp.graphs[host], half, COMPANION_POINTS - half)
        for command in commands:
            job = Job(f"{command} companion{k}", command, host, name)
            if command == "gap":
                job.probes = probes(fixed, COMPANION_POINTS)
            else:
                job.expect = expect
            inp.jobs.append(job)


def _subdivisions(inp: Inputs, specs) -> list[str]:
    """Add the unit subdivisions (tag, sizes, k) as graph files; their names."""
    from thetagap.families import FamilySpec, from_spec

    names = []
    for tag, sizes, k in specs:
        name = f"{tag}{''.join(map(str, sizes))}_k{k}.json"
        inp.graphs[name] = subdivided(graph_doc(from_spec(FamilySpec(tag=tag, sizes=sizes))), k)
        names.append(name)
    return names


def _witness_companions(inp: Inputs) -> None:
    """witness on four fixed unit subdivisions of 64-125 vertices."""
    inp.jobs += [Job(f"witness {name}", "witness", name) for name in _subdivisions(inp, WITNESS_COMPANIONS)]


def witness_batch(rng: random.Random, fixed: random.Random) -> Inputs:
    inp = Inputs()
    for n, m, target in RANDOM_WITNESS_GRAPHS:
        inp.graphs[f"random{n}.json"] = _random_witness_graph(rng, n, m, target)
    _subdivisions(inp, SUBDIVISIONS)
    inp.jobs = [Job(f"witness {name}", "witness", name) for name in inp.graphs]
    _companions(inp, fixed, SUBDIVISION_COMPANION_HOST, ("negtype", "gap", "l1"))
    return inp


def metric_points(rng: random.Random, fixed: random.Random) -> Inputs:
    inp = Inputs()
    witness = {}
    for tag, r in (("", rng), ("fixed_", fixed)):
        inp.graphs[f"{tag}cactus.json"] = _cactus(r, CACTUS)
        base = _cactus(r, THETA_BASE_CACTUS)
        inp.graphs[f"{tag}theta.json"], witness[tag] = with_theta(base, r.choice(base["vertices"]), THETA_PATH_EDGES)
    gap = Fraction(THETA_PATH_EDGES, 12)
    half = NEGTYPE_POINTS // 2
    for k in range(NEGTYPE_SETS):
        inp.points[f"cactus{k}.points.json"] = sample_points(rng, inp.graphs["cactus.json"], half, half)
        pts, slots = _theta_points(rng, inp.graphs["theta.json"], witness[""], NEGTYPE_POINTS)
        _known_witness(inp.graphs["theta.json"], pts, slots, gap)
        inp.points[f"theta{k}.points.json"] = pts
        inp.jobs += [
            Job(f"negtype cactus{k}", "negtype", "cactus.json", f"cactus{k}.points.json", expect=True),
            Job(f"negtype theta{k}", "negtype", "theta.json", f"theta{k}.points.json", expect=False),
        ]
    # Fixed inputs: the certified-mu ladder in gap_bracket needs one or two
    # exact eliminations depending on the rounding of a float eigenvalue, a
    # coin flip per point set that makes seeded gap times bimodal.
    half = GAP_POINTS // 2
    for k in range(GAP_SETS):
        inp.points[f"gap_cactus{k}.points.json"] = sample_points(fixed, inp.graphs["fixed_cactus.json"], half, half)
        pts, slots = _theta_points(fixed, inp.graphs["fixed_theta.json"], witness["fixed_"], GAP_POINTS)
        known = _known_witness(inp.graphs["fixed_theta.json"], pts, slots, gap)
        inp.points[f"gap_theta{k}.points.json"] = pts
        inp.jobs += [
            Job(f"gap cactus{k}", "gap", "fixed_cactus.json", f"gap_cactus{k}.points.json", GAP_ARGS,
                probes=probes(fixed, GAP_POINTS)),
            Job(f"gap theta{k}", "gap", "fixed_theta.json", f"gap_theta{k}.points.json", GAP_ARGS,
                probes=probes(fixed, GAP_POINTS, [known])),
        ]
    _companions(inp, fixed, "fixed_cactus.json", ("l1",), expect=True)
    _witness_companions(inp)
    return inp


def l1_cuts(rng: random.Random, fixed: random.Random) -> Inputs:
    from thetagap.families import FamilySpec, from_spec, make_theta

    inp = Inputs()
    k4 = subdivided(graph_doc(from_spec(FamilySpec(tag="complete", sizes=(4,)))), 2)
    inp.graphs["k4_k2.json"] = k4
    inp.points["k4_k2.points.json"] = [{"vertex": v} for v in k4["vertices"]]
    inp.graphs["cactus.json"] = _cactus(rng, SMALL_CACTUS)
    inp.points["cactus.points.json"] = sample_points(rng, inp.graphs["cactus.json"], 7, 6)
    inp.graphs["theta.json"] = graph_doc(make_theta(1, 1, 1))
    witness = [
        {"vertex": "u"},
        {"vertex": "v"},
        {"vertex": "v"},
        {"edge": "e1", "offset": "1/12"},
        {"edge": "e2", "offset": "11/12"},
        {"edge": "e3", "offset": "11/12"},
    ]
    pts = witness + sample_points(rng, inp.graphs["theta.json"], 0, 5, taken=witness)
    _known_witness(inp.graphs["theta.json"], pts, [0, 1, 2, 3, 4, 5], Fraction(1, 12))
    inp.points["theta.points.json"] = pts
    inp.graphs["neg_not_l1.json"] = _not_l1_but_negative_type(rng, 10, 14)
    inp.points["neg_not_l1.points.json"] = [{"vertex": v} for v in inp.graphs["neg_not_l1.json"]["vertices"]]
    big = ("--max-cuts-n", "16")
    inp.jobs = [
        Job("l1 k4_k2", "l1", "k4_k2.json", "k4_k2.points.json", big, expect=True),
        Job("l1 cactus", "l1", "cactus.json", "cactus.points.json", big, expect=True),
        Job("l1 theta", "l1", "theta.json", "theta.points.json", big, expect=False),
        Job("l1 neg_not_l1", "l1", "neg_not_l1.json", "neg_not_l1.points.json", big, expect=False),
    ]
    # points of the K4 subdivision are l1, hence of negative type
    _companions(inp, fixed, "k4_k2.json", ("negtype", "gap"), expect=True)
    _witness_companions(inp)
    return inp


WORKLOADS = {
    "witness-batch": witness_batch,
    "metric-points": metric_points,
    "l1-cuts": l1_cuts,
}


def build(workload: str, seed: int) -> Inputs:
    """Inputs of one run; companions and fixed inputs ignore the seed."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), random.Random(f"{workload}:fixed"))
