"""Theta detection, minimal theta extraction, intrinsic distances."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_contains_theta, oracle_min_theta_total
from test_core import connected_graphs
from thetagap import theta as theta_module
from thetagap.core import Vertex, build_graph, distance, subdivide
from thetagap.errors import PreconditionError
from thetagap.families import (
    FamilySpec,
    from_spec,
    make_random_connected,
    make_theta,
)
from thetagap.theta import (
    Theta,
    ThetaPoint,
    check_branch_distance_lemma,
    contains_theta,
    find_theta,
    minimal_theta,
    theta_distance,
    theta_point_to_point,
)

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
# extraction
# ---------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(connected_graphs(max_vertices=5, max_extra_edges=4))
def test_find_theta_agrees_with_detection(g):
    t = find_theta(g)
    if contains_theta(g):
        assert isinstance(t, Theta)  # construction re-validates disjointness
    else:
        assert t is None


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
    count = 0
    for block in theta_module._biconnected_blocks(g):
        if theta_module._block_stats(g, block)[1] < 2:
            continue
        degree: dict[str, int] = {}
        for eid in block:
            for end in g.edge(eid).ends:
                degree[end] = degree.get(end, 0) + 1
        branch = sum(1 for d in degree.values() if d >= 3)
        count += branch * (branch - 1) // 2
    return count


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


def test_theta_validation_rejects_shared_interior_vertex():
    g = make_theta(1, 1, 1)
    t = find_theta(g)
    with pytest.raises(PreconditionError):
        Theta(u=t.u, v=t.u, paths=t.paths)


# ---------------------------------------------------------------------------
# intrinsic coordinates
# ---------------------------------------------------------------------------


def test_theta_distance_frozen_values():
    t = minimal_theta(make_theta(1, 2, 3))
    u, v = ThetaPoint.branch_u(), ThetaPoint.branch_v()
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


def test_theta_point_to_point_maps_branches():
    g = make_theta(1, 1, 1)
    t = minimal_theta(g)
    assert theta_point_to_point(g, t, ThetaPoint.branch_u()) == Vertex(t.u)
    assert theta_point_to_point(g, t, ThetaPoint.branch_v()) == Vertex(t.v)


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
