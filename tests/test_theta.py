"""Theta detection, minimal theta extraction, intrinsic distances."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    OraclePairNet,
    ThetaPoint,
    branch_pairs,
    chain_graph,
    check_branch_distance_lemma,
    edge_graph,
    oracle_contains_theta,
    block_rank,
    oracle_blocks,
    oracle_min_theta_total,
    oracle_minimal_theta,
    oracle_theta_blocks,
    oracle_point_on_path,
    path_arcs,
    theta_distance,
    theta_key,
    theta_point_to_point,
    vertex_distance_table,
)
from test_core import _lengths, connected_graphs
from thetagap import theta as theta_module
from thetagap.core import Vertex, build_graph, distance, subdivide
from thetagap.errors import PreconditionError
from thetagap.families import (
    FamilySpec,
    from_spec,
    make_random_connected,
    make_theta,
)
from thetagap.theta import Theta, _point_on_path, contains_theta, minimal_theta

# ---------------------------------------------------------------------------
# detection
# ---------------------------------------------------------------------------


def test_three_parallel_edges_are_a_theta():
    assert contains_theta(make_theta(1, 1, 1))


def test_two_parallel_edges_are_not_a_theta():
    g = build_graph(["a", "b"], [("e1", "a", "b", 1), ("e2", "a", "b", 1)])
    assert not contains_theta(g)


def test_figure_eight_is_not_a_theta():
    # two triangles glued at one vertex: each block has cycle rank one
    g = build_graph(
        ["a", "b", "c", "d", "e"],
        [
            ("e1", "a", "b", 1),
            ("e2", "b", "c", 1),
            ("e3", "c", "a", 1),
            ("e4", "a", "d", 1),
            ("e5", "d", "e", 1),
            ("e6", "e", "a", 1),
        ],
    )
    assert not contains_theta(g)


def test_self_loops_never_create_thetas():
    g = build_graph(
        ["a", "b"],
        [("e1", "a", "b", 1), ("l1", "a", "a", 1), ("l2", "a", "a", 1)],
    )
    assert not contains_theta(g)


@settings(max_examples=150, deadline=None)
@given(connected_graphs(max_vertices=5, max_extra_edges=4))
def test_contains_theta_matches_brute_force(g):
    assert contains_theta(g) == oracle_contains_theta(g)


# ---------------------------------------------------------------------------
# blocks of the chain skeleton
# ---------------------------------------------------------------------------


@st.composite
def chain_graphs(draw):
    """A connected multigraph (self-loops and parallel edges allowed) with
    each edge cut into a path of one to three edges, then pendant edges,
    self-loops and two-edge cycles hung at random vertices: a degree-2
    vertex that takes one becomes a stop of block degree 2 in its block."""
    g = draw(connected_graphs(max_vertices=6, max_extra_edges=6))
    names, rows = list(g.vertices), []
    for e in g.edges:
        k = draw(st.integers(min_value=0, max_value=2))
        path = [e.ends[0], *(f"{e.id}.{i}" for i in range(1, k + 1)), e.ends[1]]
        names += path[1:-1]
        for i, (a, b) in enumerate(zip(path, path[1:])):
            rows.append((f"{e.id}:{i}", a, b, draw(_lengths)))
    for j in range(draw(st.integers(min_value=0, max_value=3))):
        at = draw(st.sampled_from(names))
        kind = draw(st.sampled_from(["edge", "loop", "cycle"]))
        if kind == "loop":
            rows.append((f"h{j}", at, at, draw(_lengths)))
            continue
        names.append(f"p{j}")
        rows.append((f"h{j}", at, f"p{j}", draw(_lengths)))
        if kind == "cycle":
            rows.append((f"h{j}'", f"p{j}", at, draw(_lengths)))
    return build_graph(names, rows)


def _skeleton_theta_blocks(g):
    """``oracle_theta_blocks`` as the theta search forms it on the skeleton."""
    out = {}
    for incidence in theta_module._theta_blocks(g):
        candidates, chains = theta_module._block_chains(g._skeleton.chains, incidence)
        out[frozenset(eid for *_, walk, _ in chains for eid, _ in walk)] = (candidates, chains)
    return out


def _assert_skeleton_blocks_match_the_oracle(g):
    stops, chains, _, _ = g._skeleton
    found = _skeleton_theta_blocks(g)
    assert found == oracle_theta_blocks(g)
    assert contains_theta(g) == bool(found)
    # every block of g with a cycle but the cycles hanging at one stop; a
    # bridge chain is one block of the skeleton and a bridge per edge in g
    loops = {frozenset(eid for eid, _ in walk) for a, b, walk, _ in chains if a == b}
    skeleton = {
        frozenset(eid for c in block for eid, _ in chains[c][2])
        for block in theta_module._skeleton_blocks(g)
        if len(block) > 1
    }
    cyclic = {frozenset(b) for b in oracle_blocks(g) if block_rank(g, b) >= 1}
    assert skeleton == cyclic - loops


@settings(max_examples=300, deadline=None)
@given(st.one_of(chain_graphs(), connected_graphs(max_vertices=6, max_extra_edges=6)))
def test_skeleton_blocks_give_the_oracle_blocks_and_chains(g):
    _assert_skeleton_blocks_match_the_oracle(g)


def _cut_stop_theta():
    # a theta on u, v whose paths run through the cut stops w1 and w2, which
    # carry a pendant edge and a hanging triangle; a self-loop at v and a
    # second, parallel path to the pendant vertex
    return build_graph(
        ["u", "v", "a", "w1", "b", "w2", "c", "p", "q", "r"],
        [
            ("e1", "u", "a", 1),
            ("e2", "a", "v", 1),
            ("e3", "u", "w1", 1),
            ("e4", "w1", "b", 1),
            ("e5", "b", "v", 1),
            ("e6", "v", "w2", 1),
            ("e7", "w2", "c", 1),
            ("e8", "c", "u", 1),
            ("f1", "w1", "p", 1),
            ("f2", "w1", "p", 2),
            ("f3", "w2", "q", 1),
            ("f4", "q", "r", 1),
            ("f5", "r", "w2", 1),
            ("l1", "v", "v", 1),
        ],
    )


def test_skeleton_blocks_join_chains_through_cut_stops():
    g = _cut_stop_theta()
    assert {"w1", "w2"} <= set(g._skeleton.stops)
    (candidates, chains), = _skeleton_theta_blocks(g).values()
    assert candidates == ["u", "v"]
    assert chains == [
        ("u", "v", (("e1", True), ("e2", True)), 2),
        ("u", "v", (("e3", True), ("e4", True), ("e5", True)), 3),
        ("u", "v", (("e8", False), ("e7", False), ("e6", False)), 3),
    ]
    _assert_skeleton_blocks_match_the_oracle(g)


@pytest.mark.parametrize(
    "rows",
    [
        [("e1", "a", "b", 1), ("e2", "b", "c", 1), ("e3", "c", "a", 1)],  # a stopless cycle
        [("e1", "a", "a", 1), ("e2", "a", "b", 1), ("e3", "b", "b", 2)],  # self-loops
        [("e1", "a", "b", 1), ("e2", "b", "c", 1), ("e3", "c", "a", 1), ("e4", "a", "a", 1)],
    ],
)
def test_skeleton_blocks_skip_loop_chains(rows):
    g = build_graph(sorted({x for _, a, b, _ in rows for x in (a, b)}), rows)
    assert any(a == b for a, b, _, _ in g._skeleton.chains)
    assert not contains_theta(g)
    _assert_skeleton_blocks_match_the_oracle(g)


def test_skeleton_blocks_keep_parallel_chains_apart():
    # three parallel chains of two edges each: one block of rank 2
    g = subdivide(make_theta(1, 1, 1), 1)
    assert len(g._skeleton.chains) == 3
    assert [len(b) for b in theta_module._skeleton_blocks(g)] == [3]
    _assert_skeleton_blocks_match_the_oracle(g)


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------


@st.composite
def graphs_with_coprime_denominators(draw):
    # Lengths over denominators up to 13, so flow costs scale by large LCMs.
    g = draw(connected_graphs(max_vertices=5, max_extra_edges=4))
    rows = []
    for e in g.edges:
        den = draw(st.sampled_from([1, 2, 3, 5, 7, 11, 13]))
        num = draw(st.integers(min_value=1, max_value=3 * den))
        rows.append((e.id, e.ends[0], e.ends[1], Fraction(num, den)))
    return build_graph(g.vertices, rows)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        connected_graphs(max_vertices=5, max_extra_edges=4),
        graphs_with_coprime_denominators(),
    )
)
def test_minimal_theta_total_matches_brute_force(g):
    t = minimal_theta(g)
    expected = oracle_min_theta_total(g)
    if expected is None:
        assert t is None
    else:
        assert t is not None
        assert t.total_length == expected


def test_minimal_theta_on_k4_frozen():
    t = minimal_theta(from_spec(FamilySpec(tag="complete", sizes=(4,))))
    assert t.lengths == (1, 2, 2)
    assert t.total_length == 5


def test_minimal_theta_on_k23_frozen():
    t = minimal_theta(from_spec(FamilySpec(tag="complete_bipartite", sizes=(2, 3))))
    assert t.lengths == (2, 2, 2)
    assert {t.u, t.v} == {"a1", "a2"}


def test_minimal_theta_prefers_short_parallel_edges():
    g = build_graph(
        ["a", "b"],
        [
            ("e1", "a", "b", 1),
            ("e2", "a", "b", 2),
            ("e3", "a", "b", 3),
            ("e4", "a", "b", 4),
        ],
    )
    t = minimal_theta(g)
    assert t.lengths == (1, 2, 3)


def test_minimal_theta_keeps_a_tie_met_at_the_bound():
    # Both thetas total exactly 3·d(u, v), and the c-d block is searched
    # first; the a-b theta wins the tie-break only if it is still solved.
    g = build_graph(
        ["a", "b", "c", "d"],
        [
            ("e1", "a", "b", 1),
            ("e2", "a", "b", 1),
            ("e3", "a", "b", 1),
            ("e4", "b", "c", 1),
            ("e5", "c", "d", 1),
            ("e6", "c", "d", 1),
            ("e7", "c", "d", 1),
        ],
    )
    t = minimal_theta(g)
    assert (t.u, t.v) == ("a", "b")


def _corner(first: str, second: str, k: int) -> list[tuple[str, bool]]:
    """Walk along subdivided edge ``first`` forwards, then ``second`` backwards."""
    there = [(f"{first}:{i}", True) for i in range(k + 1)]
    back = [(f"{second}:{i}", False) for i in reversed(range(k + 1))]
    return there + back


@pytest.mark.parametrize("k", [1, 2])
def test_minimal_theta_on_subdivided_k5_frozen(k):
    # Every branch pair ties on total length, so this pins the tie-break.
    g = subdivide(from_spec(FamilySpec(tag="complete", sizes=(5,))), k)
    t = minimal_theta(g)
    assert (t.u, t.v) == ("v1", "v2")
    assert [list(p.edges) for p in t.paths] == [
        [(f"e1_2:{i}", True) for i in range(k + 1)],
        _corner("e1_3", "e2_3", k),
        _corner("e1_4", "e2_4", k),
    ]
    assert t.lengths == (k + 1, 2 * k + 2, 2 * k + 2)


@pytest.mark.parametrize("k", [1, 2])
def test_minimal_theta_on_subdivided_k33_frozen(k):
    g = subdivide(from_spec(FamilySpec(tag="complete_bipartite", sizes=(3, 3))), k)
    t = minimal_theta(g)
    assert (t.u, t.v) == ("a1", "a2")
    assert [list(p.edges) for p in t.paths] == [
        _corner("e1_1", "e2_1", k),
        _corner("e1_2", "e2_2", k),
        _corner("e1_3", "e2_3", k),
    ]
    assert t.lengths == (2 * k + 2,) * 3


def _branch_pair_count(g) -> int:
    return sum(len(pairs) for _, pairs in branch_pairs(g))


def _assert_block_net_matches_pair_nets(g):
    # one net per block, solved for every pair in both directions in turn
    for block, pairs in branch_pairs(g):
        stops, chains = chain_graph(g, block)
        net = theta_module._FlowNet(stops, chains)
        for u, v in pairs + [(v, u) for u, v in reversed(pairs)]:
            want = OraclePairNet(stops, chains, u, v).min_cost_three_paths()
            assert net.three_paths(u, v) == want


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        connected_graphs(max_vertices=6, max_extra_edges=5),
        graphs_with_coprime_denominators(),
    )
)
def test_block_net_gives_the_walks_of_a_net_per_pair(g):
    _assert_block_net_matches_pair_nets(g)


@pytest.mark.parametrize(
    "g",
    [
        subdivide(from_spec(FamilySpec(tag="complete", sizes=(4,))), 2),
        subdivide(from_spec(FamilySpec(tag="complete", sizes=(5,))), 1),
        subdivide(from_spec(FamilySpec(tag="complete_bipartite", sizes=(3, 3))), 3),
        make_random_connected(16, 24, seed=3),
    ],
    ids=["k4_k2", "k5_k1", "k33_k3", "random16"],
)
def test_block_net_gives_the_walks_of_a_net_per_pair_on_larger_graphs(g):
    _assert_block_net_matches_pair_nets(g)


def test_minimal_theta_prunes_flows_and_keeps_the_theta(monkeypatch):
    flows = 0
    solve = theta_module._FlowNet.min_cost_three_paths

    def counted(net):
        nonlocal flows
        flows += 1
        return solve(net)

    monkeypatch.setattr(theta_module._FlowNet, "min_cost_three_paths", counted)
    g = make_random_connected(40, 52, seed=1)
    t = minimal_theta(g)
    assert 0 < flows < _branch_pair_count(g)
    # recorded from the unpruned search over rational costs
    assert (t.u, t.v) == ("v2", "v7")
    assert [p.edges for p in t.paths] == [
        (("e48", True), ("e22", True)),
        (("e24", False), ("e23", False)),
        (("e25", False), ("e45", True)),
    ]
    assert t.lengths == (Fraction(7, 3), Fraction(29, 10), Fraction(19, 6))


@pytest.mark.parametrize(
    "tag, sizes, k",
    [
        ("complete", (5,), 20),
        ("complete_bipartite", (3, 3), 25),
        ("complete", (4,), 10),
        ("complete", (5,), 8),
        ("complete_bipartite", (2, 3), 20),
        ("complete_bipartite", (3, 3), 8),
    ],
)
def test_minimal_theta_solves_one_flow_on_a_tied_subdivision(monkeypatch, tag, sizes, k):
    # the pairs that tie on the least total tie on the bound of (shortest,
    # middle) too, so the first of them in (u, v) order wins and stops the
    # search; the sum bound alone solved 10, 6, 6, 10, 1 and 6 flows here
    flows = []
    solve = theta_module._FlowNet.min_cost_three_paths
    monkeypatch.setattr(
        theta_module._FlowNet, "min_cost_three_paths", lambda net: flows.append(1) or solve(net)
    )
    t = minimal_theta(subdivide(from_spec(FamilySpec(tag=tag, sizes=sizes)), k))
    assert len(flows) == 1
    assert (t.u, t.v) == (("v1", "v2") if tag == "complete" else ("a1", "a2"))


def _assembled_totals(monkeypatch):
    totals = []
    assemble = theta_module._assemble_theta

    def recorded(*args):
        t = assemble(*args)
        totals.append(t.total_length)
        return t

    monkeypatch.setattr(theta_module, "_assemble_theta", recorded)
    return totals


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(
        connected_graphs(max_vertices=6, max_extra_edges=5),
        graphs_with_coprime_denominators(),
    )
)
def test_minimal_theta_assembles_no_pair_worse_than_the_best(g):
    # only a flow that could still win or tie reaches _assemble_theta
    with pytest.MonkeyPatch.context() as mp:
        totals = _assembled_totals(mp)
        t = minimal_theta(g)
    for k in range(1, len(totals)):
        assert totals[k] <= min(totals[:k])
    assert (t is None) == (not totals)
    if t is not None:
        assert t.total_length == totals[-1] == oracle_min_theta_total(g)


def test_minimal_theta_prunes_assemblies(monkeypatch):
    flows = []
    solve = theta_module._FlowNet.min_cost_three_paths
    monkeypatch.setattr(
        theta_module._FlowNet, "min_cost_three_paths", lambda net: flows.append(1) or solve(net)
    )
    totals = _assembled_totals(monkeypatch)
    t = minimal_theta(make_random_connected(40, 52, seed=1))
    assert t.total_length == Fraction(84, 10)
    # the first pair by its three-cheapest-chains bound wins, and no other
    # bound reaches its total; with the 3·d(u, v) bound 23 flows were solved
    # and 2 assembled
    assert (len(flows), len(totals)) == (1, 1)


# ---------------------------------------------------------------------------
# the pair bound and the pruned search against the unpruned one
# ---------------------------------------------------------------------------


@st.composite
def unit_multigraphs(draw):
    """Unit-length graphs, heavy on ties, with parallel edges and self-loops."""
    g = draw(connected_graphs(max_vertices=6, max_extra_edges=5))
    rows = [(e.id, *e.ends, 1) for e in g.edges]
    if g.edges:
        for j, e in enumerate(draw(st.lists(st.sampled_from(g.edges), max_size=3))):
            rows.append((f"p{j}", *e.ends, 1))
    for j, v in enumerate(draw(st.lists(st.sampled_from(g.vertices), max_size=2))):
        rows.append((f"l{j}", v, v, 1))
    return build_graph(g.vertices, rows)


# Primes just above 2**21: three of them as denominators already take a
# block's integer units past 2**59, where the bounds leave int64.
_LARGE_PRIMES = (2097169, 2097211, 2097223, 2097229, 2097257, 2097259)


@st.composite
def graphs_with_large_coprime_denominators(draw):
    g = draw(connected_graphs(max_vertices=5, max_extra_edges=4))
    rows = []
    for i, e in enumerate(g.edges):
        den = _LARGE_PRIMES[i % len(_LARGE_PRIMES)]
        num = draw(st.integers(min_value=den, max_value=3 * den))
        rows.append((e.id, e.ends[0], e.ends[1], Fraction(num, den)))
    return build_graph(g.vertices, rows)


_SEARCH_GRAPHS = st.one_of(
    connected_graphs(max_vertices=6, max_extra_edges=5),
    graphs_with_coprime_denominators(),
    unit_multigraphs(),
    graphs_with_large_coprime_denominators(),
)


def _key(t):
    return None if t is None else theta_key(t)[:4]


def _assert_matches_the_oracles(g, brute_force=False):
    # The theta is that of the unpruned search on the chain graph.  Its key
    # (total, shortest, middle, (u, v)) is that of the unpruned search on
    # the edge graph, though among equal keys the walks may differ: the
    # two nets pop equal-cost nodes in different orders.
    t = minimal_theta(g)
    assert t == oracle_minimal_theta(g)
    assert _key(t) == _key(oracle_minimal_theta(g, edge_level=True))
    if brute_force:
        assert (None if t is None else t.total_length) == oracle_min_theta_total(g)


@settings(max_examples=200, deadline=None)
@given(_SEARCH_GRAPHS)
def test_minimal_theta_equals_the_unpruned_search(g):
    _assert_matches_the_oracles(g)


@st.composite
def tie_heavy_graphs(draw):
    """Small multigraphs with every length 1, or each drawn from 1-3, with
    parallel edges, and optionally every edge split into k + 1 equal
    pieces: many thetas of one key, and chains of degree-2 vertices."""
    g = draw(connected_graphs(max_vertices=5, max_extra_edges=4))
    unit = draw(st.booleans())
    rows = [(e.id, *e.ends, 1 if unit else draw(st.integers(1, 3))) for e in g.edges]
    if g.edges:
        for j, e in enumerate(draw(st.lists(st.sampled_from(g.edges), max_size=2))):
            rows.append((f"p{j}", *e.ends, 1 if unit else draw(st.integers(1, 3))))
    k = draw(st.integers(min_value=0, max_value=2))
    if k == 0:
        return build_graph(g.vertices, rows)
    vertices, pieces = list(g.vertices), []
    for eid, a, b, length in rows:
        stops = [a] + [f"{eid}.{i}" for i in range(1, k + 1)] + [b]
        vertices += stops[1:-1]
        for i in range(k + 1):
            pieces.append((f"{eid}:{i}", stops[i], stops[i + 1], Fraction(length, k + 1)))
    return build_graph(vertices, pieces)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(tie_heavy_graphs())
def test_minimal_theta_matches_the_oracles_on_tie_heavy_graphs(g):
    _assert_matches_the_oracles(g, brute_force=True)


@pytest.mark.parametrize(
    "tag, sizes, k",
    [
        ("complete", (4,), 1),
        ("complete", (4,), 3),
        ("complete", (5,), 1),
        ("complete", (5,), 2),
        ("complete_bipartite", (3, 3), 1),
        ("complete_bipartite", (3, 3), 2),
        ("complete", (5,), 20),
        ("complete_bipartite", (3, 3), 25),
    ],
)
def test_minimal_theta_equals_the_unpruned_search_on_subdivisions(tag, sizes, k):
    _assert_matches_the_oracles(subdivide(from_spec(FamilySpec(tag=tag, sizes=sizes)), k))


def test_chain_net_breaks_a_tie_of_equal_keys_unlike_the_edge_net():
    # two third paths of length 3 from v2 to v7; the edge net, with a node
    # pair per degree-2 vertex, pops equal-cost nodes in another order
    base = make_random_connected(9, 13, seed=144)
    g = build_graph(base.vertices, [(e.id, *e.ends, 1) for e in base.edges])
    t, edge_net = minimal_theta(g), oracle_minimal_theta(g, edge_level=True)
    assert _key(t) == _key(edge_net) == (5, 1, 1, ("v2", "v7"))
    assert [p.edges for p in t.paths] == [
        (("e13", False),),
        (("e7", False),),
        (("e8", True), ("e11", False), ("e9", True)),
    ]
    assert edge_net.paths[2].edges == (("e10", False), ("e5", True), ("e6", True))


@settings(max_examples=150, deadline=None)
@given(_SEARCH_GRAPHS)
def test_pair_bound_is_below_the_flow_cost_of_its_pair(g):
    table = vertex_distance_table(g)
    for block, pairs in branch_pairs(g):
        stops, chains = chain_graph(g, block)
        bounds = theta_module._pair_bounds(stops, chains)
        assert bounds == sorted(bounds)
        assert sorted((u, v) for *_, u, v in bounds) == pairs
        for total, shortest, middle, u, v in bounds:
            b, s, m = (Fraction(x, g._scale) for x in (total, shortest, middle))
            # at least as tight as three times the distance of the pair
            assert b >= 3 * table[(u, v)]
            assert table[(u, v)] <= s <= m
            paths = OraclePairNet(*edge_graph(g, block), u, v).min_cost_three_paths()
            if paths is not None:
                lengths = sorted(sum(g.edge(eid).length for eid, _ in w) for _, w in paths)
                assert b <= sum(lengths)
                assert s <= lengths[0]
                assert m <= lengths[1]


@settings(max_examples=60, deadline=None)
@given(_SEARCH_GRAPHS)
def test_pair_bounds_on_python_ints_equal_the_int64_ones(g):
    # with the int64 limit at 0 every block takes the object-array path
    for block, _ in branch_pairs(g):
        stops, chains = chain_graph(g, block)
        fast = theta_module._pair_bounds(stops, chains)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(theta_module, "_INT64_SAFE", 0)
            assert theta_module._pair_bounds(stops, chains) == fast


def test_minimal_theta_past_int64_equals_the_unpruned_search():
    base = from_spec(FamilySpec(tag="complete", sizes=(4,)))
    g = build_graph(
        base.vertices,
        [(e.id, *e.ends, 1 + Fraction(1, p)) for e, p in zip(base.edges, _LARGE_PRIMES)],
    )
    (block, _), = branch_pairs(g)
    assert 8 * sum(int(g.edge(eid).length * g._scale) for eid in block) >= 2**62
    _assert_matches_the_oracles(g, brute_force=True)


def test_theta_validation_rejects_shared_interior_vertex():
    g = make_theta(1, 1, 1)
    t = minimal_theta(g)
    with pytest.raises(PreconditionError):
        Theta(u=t.u, v=t.u, paths=t.paths)


# ---------------------------------------------------------------------------
# intrinsic coordinates
# ---------------------------------------------------------------------------


def test_theta_distance_frozen_values():
    t = minimal_theta(make_theta(1, 2, 3))
    u, v = ThetaPoint(kind="u"), ThetaPoint(kind="v")
    assert theta_distance(t, u, v) == 1
    # midpoint of path 2 to midpoint of path 3: through either branch
    a = ThetaPoint.on_path(2, 1)
    b = ThetaPoint.on_path(3, Fraction(3, 2))
    assert theta_distance(t, a, b) == Fraction(5, 2)
    # along one path, both ways around its cycle with path 1
    c = ThetaPoint.on_path(3, Fraction(1, 4))
    assert theta_distance(t, u, c) == Fraction(1, 4)
    d = ThetaPoint.on_path(3, Fraction(11, 4))
    assert theta_distance(t, v, d) == Fraction(1, 4)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([(1, 1, 1), (1, 2, 3), (2, 2, 2), (2, 3, 7)]),
    st.integers(min_value=1, max_value=3),
    st.fractions(min_value=0, max_value=1, max_denominator=12),
    st.integers(min_value=1, max_value=3),
    st.fractions(min_value=0, max_value=1, max_denominator=12),
)
def test_theta_distance_matches_ambient_distance_on_plain_theta(
    lengths, pa, fa, pb, fb
):
    # on a bare theta graph the intrinsic metric IS the graph metric
    g = make_theta(*lengths)
    t = minimal_theta(g)
    a = ThetaPoint.on_path(pa, fa * t.lengths[pa - 1])
    b = ThetaPoint.on_path(pb, fb * t.lengths[pb - 1])
    ga = theta_point_to_point(g, t, a)
    gb = theta_point_to_point(g, t, b)
    assert theta_distance(t, a, b) == distance(g, ga, gb)


def arcs_to_try(path):
    """Every vertex of the path, and the midpoint of every edge."""
    arcs = path_arcs(path)
    return sorted({*arcs, *((a + b) / 2 for a, b in zip(arcs, arcs[1:]))})


@settings(max_examples=80, deadline=None)
@given(_SEARCH_GRAPHS)
def test_point_on_path_matches_a_scan_along_the_path(g):
    t = minimal_theta(g)
    if t is None:
        return
    unit = 2 * g._scale
    for path in t.paths:
        for arc in arcs_to_try(path):
            want = oracle_point_on_path(g, path, arc)
            assert _point_on_path(path, int(arc * unit), unit) == want


def test_point_on_path_maps_branches():
    g = make_theta(1, 2, 3)
    t = minimal_theta(g)
    for path in t.paths:
        assert _point_on_path(path, 0, 12) == Vertex(t.u)
        assert _point_on_path(path, 12 * path.positions[-1], 12) == Vertex(t.v)


# ---------------------------------------------------------------------------
# ambient-vs-intrinsic agreement near a branch vertex
# ---------------------------------------------------------------------------


def test_branch_distance_lemma_on_k4():
    g = from_spec(FamilySpec(tag="complete", sizes=(4,)))
    t = minimal_theta(g)
    report = check_branch_distance_lemma(g, t, samples=40, seed=1)
    assert report.passed
    assert len(report.samples) == 40


def test_branch_distance_lemma_on_random_theta_graphs():
    found = 0
    seed = 0
    while found < 10:
        seed += 1
        g = make_random_connected(6, 9, seed=seed)
        if not contains_theta(g):
            continue
        t = minimal_theta(g)
        assert check_branch_distance_lemma(g, t, samples=20, seed=seed).passed
        found += 1


def test_branch_distance_lemma_requires_long_edges():
    g = make_theta(Fraction(1, 2), 1, 1)
    t = minimal_theta(g)
    with pytest.raises(PreconditionError):
        check_branch_distance_lemma(g, t)
