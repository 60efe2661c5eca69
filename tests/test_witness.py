"""Six-point violation witnesses and their subdivision transfer."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    ThetaPoint,
    canonical_theta_point,
    oracle_candidate_windows,
    oracle_point_on_path,
    oracle_window_points,
    opposite_point,
)
from test_core import connected_graphs
from test_theta import _SEARCH_GRAPHS, arcs_to_try
from thetagap.analysis import gamma
from thetagap.core import (
    EdgePoint,
    Vertex,
    build_graph,
    distance_matrix,
    point_label,
    subdivide,
)
from thetagap.errors import PreconditionError
from thetagap.families import (
    FamilySpec,
    from_spec,
    make_random_connected,
    make_theta,
)
from thetagap.theta import minimal_theta
from thetagap.graphio import loads_graph
from thetagap.witness import (
    _antipode,
    _candidate_windows,
    _chain_point,
    _suppress_degree_two,
    _vertex_free_interior,
    _window_points,
    construct_witness,
    gap,
    omega_from_witness,
    round_to_vertices,
    subdivision_witness,
)

TWELFTH = Fraction(1, 12)

# ---------------------------------------------------------------------------
# antipodal maps
# ---------------------------------------------------------------------------


def test_antipode_frozen_unit_theta():
    # 1/4 along path 1 maps to 3/4 along path 2; witness units are 1/12
    t = minimal_theta(make_theta(1, 1, 1))
    assert _antipode(t, 2, 3) == 9


def _cycle_position(t, cycle, p):
    # coordinate along the cycle: path a from 0 at u, then path b back to u
    a, b = cycle
    la, lb = t.lengths[a - 1], t.lengths[b - 1]
    if p.kind == "u":
        return Fraction(0)
    if p.kind == "v":
        return la
    if p.path == a:
        return p.arc
    assert p.path == b
    return la + lb - p.arc


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(
        [(1, 1, 1), (1, 2, 3), (2, 2, 2), (1, 1, 4), (2, 3, 7), (Fraction(3, 2), Fraction(5, 3), 2)]
    ),
    st.sampled_from([2, 3]),
    st.fractions(min_value=0, max_value=1, max_denominator=24),
)
def test_antipode_is_the_antipode_and_an_involution(lengths, b, frac):
    # every x within 1/2 of u on path 1, in witness units
    t = minimal_theta(make_theta(*lengths))
    unit = 12 * t.paths[0].scale
    x = int(frac * unit) // 2
    p = canonical_theta_point(t, ThetaPoint.on_path(1, Fraction(x, unit)))
    q = canonical_theta_point(t, ThetaPoint.on_path(b, Fraction(_antipode(t, b, x), unit)))
    circumference = t.lengths[0] + t.lengths[b - 1]
    offset = abs(_cycle_position(t, (1, b), p) - _cycle_position(t, (1, b), q))
    assert min(offset, circumference - offset) == circumference / 2
    assert opposite_point(t, (1, b), p) == q
    assert opposite_point(t, (1, b), q) == p


# ---------------------------------------------------------------------------
# window selection
# ---------------------------------------------------------------------------


def test_choose_window_unit_theta_starts_at_zero():
    g = make_theta(1, 1, 1)
    assert _candidate_windows(minimal_theta(g))[0] == 0
    assert construct_witness(g).window_start == 0


def _starts(t):
    unit = 12 * t.paths[0].scale
    return [Fraction(a, unit) for a in _candidate_windows(t)]


def test_chosen_window_images_avoid_interior_vertices():
    # K4's minimal theta has an interior vertex on each long path; on the
    # last graph the vertex at arc 7/5 of path 2 lies inside the image of
    # the window at 0.  A start is a candidate exactly when both antipodal
    # images of its window have no graph vertex inside.
    graphs = [
        from_spec(FamilySpec(tag="complete", sizes=(4,))),
        from_spec(FamilySpec(tag="complete_bipartite", sizes=(2, 3))),
        build_graph(
            ["u", "v", "w"],
            [
                ("e1", "u", "v", 1),
                ("e2", "u", "w", Fraction(7, 5)),
                ("e3", "w", "v", Fraction(3, 5)),
                ("e4", "u", "v", 3),
            ],
        ),
    ]
    starts = [_starts(minimal_theta(g)) for g in graphs]
    assert starts == [oracle_candidate_windows(minimal_theta(g)) for g in graphs]
    assert starts[2] == [Fraction(1, 6), Fraction(1, 3)]


@st.composite
def witness_graphs(draw):
    """Connected graphs with rational lengths >= 1 over small denominators,
    one edge 1 + 1/den so that g._scale > 1, or plain thetas of such
    lengths."""
    lengths = st.builds(
        lambda den, num: Fraction(num, den),
        st.sampled_from([2, 3, 5, 7, 12]),
        st.integers(0, 24),
    ).map(lambda x: 1 + x)
    if draw(st.booleans()):
        return make_theta(draw(lengths), draw(lengths), draw(lengths))
    g = draw(connected_graphs(max_vertices=6, max_extra_edges=5))
    rows = [(e.id, *e.ends, draw(lengths)) for e in g.edges]
    if rows:
        den = draw(st.sampled_from([2, 3, 5, 7, 12]))
        rows[0] = (*rows[0][:3], 1 + Fraction(1, den))
    return build_graph(g.vertices, rows)


@settings(max_examples=150, deadline=None)
@given(witness_graphs())
def test_window_placement_equals_the_fraction_oracle(g):
    # the candidate windows, and the nine points of each window start, are
    # those of the placement by branch tags, arcs and the general antipode
    t = minimal_theta(g)
    if t is None:
        return
    assert _starts(t) == oracle_candidate_windows(t)
    s = t.paths[0].scale
    for a in (0, 2 * s, 4 * s):
        assert _window_points(t, a) == oracle_window_points(g, t, Fraction(a, 12 * s))


@settings(max_examples=80, deadline=None)
@given(_SEARCH_GRAPHS, st.data())
def test_vertex_free_interior_matches_a_scan_of_the_positions(g, data):
    t = minimal_theta(g)
    if t is None:
        return
    path = t.paths[data.draw(st.integers(0, 2))]
    # vertices, edge midpoints and points just beside them, in witness units
    near = [12 * arc * path.scale for arc in arcs_to_try(path)]
    near = [int(x) + d for x in near for d in (-1, 0, 1)] + [12 * path.positions[-1] + 12, -12]
    lo, hi = sorted(data.draw(st.sampled_from(near)) for _ in range(2))
    scan = not any(lo < 12 * p < hi for p in path.positions)
    assert _vertex_free_interior(path, lo, hi) == scan


# ---------------------------------------------------------------------------
# the grouped-distance functional
# ---------------------------------------------------------------------------


def test_gap_frozen_two_triples():
    g = make_theta(1, 1, 1)
    w = construct_witness(g)
    assert gap(w.metric, (0, 1, 2), (3, 4, 5)) == w.gap
    # swapping the roles of B and R leaves the value unchanged
    assert gap(w.metric, (3, 4, 5), (0, 1, 2)) == w.gap


def test_gap_requires_triples():
    g = make_theta(1, 1, 1)
    w = construct_witness(g)
    with pytest.raises(PreconditionError):
        gap(w.metric, (0, 1), (3, 4, 5))
    with pytest.raises(PreconditionError):
        gap(w.metric, (0, 1, 9), (3, 4, 5))


# ---------------------------------------------------------------------------
# witness construction
# ---------------------------------------------------------------------------


def test_witness_unit_theta_frozen():
    w = construct_witness(make_theta(1, 1, 1))
    assert w.gap == TWELFTH
    assert w.index == 1
    assert w.case == "y1z1"
    assert sorted(point_label(p) for p in w.b_points) == ["u", "v", "v"]
    assert sorted(point_label(p) for p in w.r_points) == [
        "e1@1/12",
        "e2@11/12",
        "e3@11/12",
    ]


def test_witness_k4_frozen():
    w = construct_witness(from_spec(FamilySpec(tag="complete", sizes=(4,))))
    assert w.gap == TWELFTH
    assert sorted(point_label(p) for p in w.b_points) == [
        "e2_3@1/2",
        "e2_4@1/2",
        "v1",
    ]


@pytest.mark.parametrize("lengths", [(1, 1, 1), (1, 2, 3), (2, 2, 2), (1, 1, 7)])
def test_witness_on_plain_thetas(lengths):
    w = construct_witness(make_theta(*lengths))
    assert w.gap >= TWELFTH


def test_witness_identities_recomputed_from_ambient_distances():
    g = from_spec(FamilySpec(tag="complete_bipartite", sizes=(2, 3)))
    w = construct_witness(g)
    nine = list(w.points_x + w.points_y + w.points_z)
    m = distance_matrix(g, nine)
    X, Y, Z = 0, 3, 6
    for i in (0, 1):
        assert m.distance(X + i, Y + i) == m.distance(X + i, Y + i + 1) + TWELFTH
        assert m.distance(X + i, Z + i) == m.distance(X + i, Z + i + 1) + TWELFTH
    outer = min(
        m.distance(Y, Z),
        m.distance(Y, Z + 2),
        m.distance(Y + 2, Z),
        m.distance(Y + 2, Z + 2),
    )
    assert m.distance(Y + 1, Z + 1) == Fraction(1, 6) + outer
    c = w.index - 1
    lhs = m.distance(Y + c, Z + c) + m.distance(Y + c + 1, Z + c + 1)
    rhs = m.distance(Y + c, Z + c + 1) + m.distance(Y + c + 1, Z + c)
    assert lhs >= rhs


def test_witness_requires_a_theta():
    g = from_spec(FamilySpec(tag="cycle", sizes=(4,)))
    with pytest.raises(PreconditionError):
        construct_witness(g)


def test_witness_requires_long_edges():
    with pytest.raises(PreconditionError):
        construct_witness(make_theta(Fraction(1, 2), 1, 1))


def test_witness_names_the_first_short_edge_past_shared_lengths():
    # e1 and e3 share one length object, as edges read from one literal do
    edges = [("e1", "2"), ("e2", "1/2"), ("e3", "2"), ("e4", "1/3"), ("e5", "1/2")]
    g = loads_graph(
        '{"vertices": ["u", "v"], "edges": ['
        + ", ".join(f'{{"id": "{e}", "ends": ["u", "v"], "length": "{x}"}}' for e, x in edges)
        + "]}"
    )
    assert g.edge("e1").length is g.edge("e3").length
    with pytest.raises(PreconditionError, match="edge e2 has 1/2$"):
        construct_witness(g)


def test_witness_batch_on_random_graphs():
    found = 0
    seed = 0
    while found < 15:
        seed += 1
        g = make_random_connected(5 + seed % 4, 7 + seed % 5, seed=seed)
        from thetagap.theta import contains_theta

        if not contains_theta(g):
            continue
        w = construct_witness(g)
        assert w.gap >= TWELFTH
        found += 1


# ---------------------------------------------------------------------------
# weightings from witnesses
# ---------------------------------------------------------------------------


def test_omega_merges_coincident_points_and_balances():
    w = construct_witness(make_theta(1, 1, 1))
    omega = omega_from_witness(w)
    # B contains the vertex v twice, so its weight doubles at one slot
    assert dict(omega.entries)[1] == Fraction(-1, 3)
    assert omega.total == 0
    assert omega.total_mass == 1
    assert gamma(w.metric, omega) == w.gap / 36


def test_omega_energy_is_gap_over_36_on_k23():
    w = construct_witness(from_spec(FamilySpec(tag="complete_bipartite", sizes=(2, 3))))
    omega = omega_from_witness(w)
    assert gamma(w.metric, omega) == w.gap / 36 == Fraction(1, 432)


# ---------------------------------------------------------------------------
# rounding points to vertices
# ---------------------------------------------------------------------------


@pytest.fixture
def rounding_graph():
    return build_graph(
        ["a", "b"],
        [("e", "a", "b", 1), ("f", "a", "b", 1)],
    )


def test_round_to_vertices_picks_nearest_end(rounding_graph):
    got = round_to_vertices(
        rounding_graph,
        [Vertex("a"), EdgePoint("e", Fraction(1, 4)), EdgePoint("e", Fraction(3, 4))],
    )
    assert got == ["a", "a", "b"]


def test_round_to_vertices_breaks_ties_toward_first_end(rounding_graph):
    got = round_to_vertices(rounding_graph, [EdgePoint("e", Fraction(1, 2))])
    assert got == ["a"]


def test_suppress_degree_two_frozen():
    # parallel chains stay apart, loops at a vertex of degree != 2 stay loops
    g = build_graph(
        ["a", "b", "x", "y"],
        [
            ("e1", "a", "x", 1),
            ("e2", "x", "b", 2),
            ("e3", "b", "y", 1),
            ("e4", "y", "a", 1),
            ("e5", "a", "b", 3),
            ("e6", "b", "b", 1),
            ("e7", "b", "b", 1),
        ],
    )
    contracted, chains = _suppress_degree_two(g)
    assert contracted.vertices == ("a", "b")
    assert [(e.id, e.ends, e.length) for e in contracted.edges] == [
        ("seg1", ("a", "b"), 3),
        ("seg2", ("a", "b"), 2),
        ("seg3", ("a", "b"), 3),
        ("seg4", ("b", "b"), 1),
        ("seg5", ("b", "b"), 1),
    ]
    assert {eid: path.edges for eid, path in chains.items()} == {
        "seg1": (("e1", True), ("e2", True)),
        "seg2": (("e4", False), ("e3", False)),
        "seg3": (("e5", True),),
        "seg4": (("e6", True),),
        "seg5": (("e7", True),),
    }
    assert chains["seg1"].vertices == ("a", "x", "b")
    assert chains["seg1"].positions == (0, 1, 3)
    assert chains["seg2"].positions == (0, 1, 2)


@pytest.mark.parametrize(
    "g",
    [
        subdivide(make_theta(1, 1, 1), 3),
        subdivide(from_spec(FamilySpec(tag="complete", sizes=(4,))), 2),
        make_random_connected(12, 16, seed=5),
    ],
    ids=["theta_k3", "k4_k2", "random12"],
)
def test_chain_point_matches_a_scan_along_the_chain(g):
    contracted, chains = _suppress_degree_two(g)
    for eid, path in chains.items():
        for arc in arcs_to_try(path):
            got = _chain_point(g, chains, contracted, EdgePoint(eid, arc))
            assert got == oracle_point_on_path(g, path, arc)


def test_round_to_vertices_rejects_far_points():
    g = build_graph(["a", "b"], [("e", "a", "b", 4), ("f", "a", "b", 4)])
    with pytest.raises(PreconditionError):
        round_to_vertices(g, [EdgePoint("e", Fraction(2))])


# ---------------------------------------------------------------------------
# subdivision transfer
# ---------------------------------------------------------------------------


def test_subdivision_witness_k23_invariants():
    g0 = from_spec(FamilySpec(tag="complete_bipartite", sizes=(2, 3)))
    sw = subdivision_witness(g0, 180)
    assert sw.k == 180
    assert sw.gap_continuous == Fraction(181, 12)
    assert sw.gap_rounded > 0
    assert len(sw.b_vertices) == 3 and len(sw.r_vertices) == 3
    # the rounded labels are vertices of the subdivided graph
    names = set(sw.graph.vertices)
    assert set(sw.b_vertices) <= names and set(sw.r_vertices) <= names
    # rounding moved each distance by at most one unit step
    for i, j in itertools.combinations(range(6), 2):
        drift = abs(
            sw.metric_continuous.distance(i, j) - sw.metric_rounded.distance(i, j)
        )
        assert drift <= 1


def test_subdivision_witness_rejects_small_k():
    g0 = from_spec(FamilySpec(tag="complete_bipartite", sizes=(2, 3)))
    with pytest.raises(PreconditionError):
        subdivision_witness(g0, 10)


def test_subdivision_witness_rejects_non_unit_lengths():
    with pytest.raises(PreconditionError):
        subdivision_witness(make_theta(1, 2, 2), 180)
