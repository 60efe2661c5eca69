"""Exact distance engine: validation, distances, rescaling."""

import ast
import itertools
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    fraction_rows,
    oracle_distance,
    oracle_distance_matrix,
    oracle_metric_violation,
)
import thetagap
from thetagap import core
from thetagap.core import (
    _RATIONAL_RE,
    Edge,
    EdgePoint,
    FiniteMetric,
    MetricGraph,
    Vertex,
    _point_kernel,
    as_rational,
    build_graph,
    canonical_point,
    distance,
    distance_matrix,
    format_rational,
    point_label,
    scale,
    subdivide,
)
from thetagap.errors import (
    InternalCheckError,
    InvalidGraphError,
    InvalidMetricError,
    InvalidPointError,
    PreconditionError,
)
from thetagap.families import FamilySpec, from_spec

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

_lengths = st.fractions(min_value=Fraction(1, 4), max_value=Fraction(4), max_denominator=6)


@st.composite
def connected_graphs(draw, max_vertices=5, max_extra_edges=4):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    names = [f"v{i}" for i in range(n)]
    rows = []
    for i in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=i - 1))
        rows.append((f"t{i}", names[parent], names[i], draw(_lengths)))
    extra = draw(st.integers(min_value=0, max_value=max_extra_edges))
    for j in range(extra):
        a = draw(st.integers(min_value=0, max_value=n - 1))
        b = draw(st.integers(min_value=0, max_value=n - 1))
        rows.append((f"x{j}", names[a], names[b], draw(_lengths)))
    return build_graph(names, rows)


@st.composite
def graph_points(draw, g):
    if draw(st.booleans()) or not g.edges:
        return Vertex(draw(st.sampled_from(g.vertices)))
    edge = draw(st.sampled_from(g.edges))
    frac = draw(st.fractions(min_value=0, max_value=1, max_denominator=8))
    return EdgePoint(edge.id, frac * edge.length)


@st.composite
def graphs_with_points(draw, count=2):
    g = draw(connected_graphs())
    pts = [draw(graph_points(g)) for _ in range(count)]
    return g, pts


@st.composite
def rational_metrics(draw, max_points=6, max_denominator=1000):
    """Labels and Fraction rows of a random metric: the shortest-path closure
    of random rational weights on the complete graph.  Sometimes the last
    point repeats the first, label and distances included."""
    n = draw(st.integers(min_value=1, max_value=max_points))
    weights = st.fractions(
        min_value=Fraction(1, max_denominator), max_value=5, max_denominator=max_denominator
    )
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        rows[i][j] = rows[j][i] = draw(weights)
    for k, i, j in itertools.product(range(n), repeat=3):
        rows[i][j] = min(rows[i][j], rows[i][k] + rows[k][j])
    labels = [f"p{i}" for i in range(n)]
    if n >= 2 and draw(st.booleans()):
        labels[-1] = labels[0]
        rows[-1] = rows[0][:]
        for row in rows:
            row[-1] = row[0]
    return labels, rows


_BREAKS = ("none", "diagonal", "symmetry", "zero", "triangle", "negative", "type")


@st.composite
def perturbed_metrics(draw):
    """A random metric as (labels, D, den), possibly with one entry of the
    integer matrix D changed to break an axiom."""
    labels, rows = draw(rational_metrics(max_denominator=draw(st.sampled_from((1, 4, 1000)))))
    den = math.lcm(*(x.denominator for row in rows for x in row))
    D = [[x.numerator * (den // x.denominator) for x in row] for row in rows]
    n = len(labels)
    kind = draw(st.sampled_from(_BREAKS if n >= 3 else _BREAKS[:2] + _BREAKS[5:]))
    index = st.integers(min_value=0, max_value=n - 1)
    delta = draw(st.integers(min_value=1, max_value=3 * den))
    i, j, k = draw(st.permutations(range(n)))[:3] if n >= 3 else (draw(index),) * 3
    if kind == "diagonal":
        D[i][i] = delta
    elif kind == "symmetry":
        D[i][j] += delta
    elif kind == "zero":
        D[i][j] = D[j][i] = 0
    elif kind == "triangle":
        D[i][k] = D[k][i] = D[i][j] + D[j][k] + delta
    elif kind == "negative":
        D[i][j] = D[j][i] = -delta
    elif kind == "type":
        # equal to the entry, so only the type test can catch it, except a
        # bool of an entry other than 0 or 1
        i, j = draw(index), draw(index)
        x = D[i][j]
        D[i][j] = draw(st.sampled_from([Fraction(x), float(x), str(x), bool(x)]))
    return tuple(labels), tuple(tuple(row) for row in D), den


# ---------------------------------------------------------------------------
# rationals
# ---------------------------------------------------------------------------


def test_as_rational_accepts_strings_ints_fractions():
    assert as_rational("3/4") == Fraction(3, 4)
    assert as_rational("-2") == Fraction(-2)
    assert as_rational(5) == Fraction(5)
    assert as_rational(Fraction(1, 3)) == Fraction(1, 3)


@pytest.mark.parametrize("bad", ["1.5", "1/0", "a", "", "1/-2", 0.5, None])
def test_as_rational_rejects_floats_and_junk(bad):
    with pytest.raises(ValueError):
        as_rational(bad)


@given(st.fractions(max_denominator=1000))
def test_format_rational_round_trips(x):
    assert as_rational(format_rational(x)) == x


@given(st.from_regex(_RATIONAL_RE))
def test_as_rational_reads_every_literal_as_fraction_does(text):
    # ``p`` and ``p/q`` go through ``int``; any digits \d accepts, and the
    # trailing newline ``$`` lets through, read as ``Fraction(text)`` reads them.
    assert as_rational(text) == Fraction(text)


@pytest.mark.parametrize("text", ["1" * 5000, "1/" + "1" * 5000, "-" + "7" * 4400 + "/3"])
def test_as_rational_names_the_int_string_limit(text):
    with pytest.raises(InvalidPointError) as exc:
        as_rational(text)
    assert str(exc.value) == (
        f"rational literal of {len(text)} characters exceeds the "
        "4300-digit integer conversion limit"
    )


# ---------------------------------------------------------------------------
# graph validation
# ---------------------------------------------------------------------------


def test_duplicate_vertex_rejected():
    with pytest.raises(InvalidGraphError):
        build_graph(["a", "a"], [("e", "a", "a", 1)])


def test_duplicate_edge_id_rejected():
    with pytest.raises(InvalidGraphError):
        build_graph(["a", "b"], [("e", "a", "b", 1), ("e", "a", "b", 1)])


def test_nonpositive_length_rejected():
    with pytest.raises(InvalidGraphError):
        build_graph(["a", "b"], [("e", "a", "b", 0)])


def test_unknown_endpoint_rejected():
    with pytest.raises(InvalidGraphError):
        build_graph(["a"], [("e", "a", "z", 1)])


_ONE = Fraction(1)


@pytest.mark.parametrize(
    "vertices, edges, message",
    [
        (("a", "b", "a"), (), "duplicate vertex id: 'a'"),
        (("a", ""), (), "bad vertex id: ''"),
        (("a", ["b"]), (), "bad vertex id: ['b']"),
        ((), (), "graph needs at least one vertex"),
        (
            ("a", "b"),
            (Edge("e", ("a", "b"), _ONE), Edge("e", ("a", "c"), _ONE)),
            "duplicate edge id: 'e'",
        ),
        (
            ("a", "b"),
            (Edge("e", ("a", "c"), _ONE), Edge("", ("a", "b"), _ONE)),
            "edge e has unknown endpoint 'c'",
        ),
        (("a", "b"), (Edge(["e"], ("a", "b"), _ONE),), "bad edge id: ['e']"),
        (("a", "b"), (Edge("e", ("a", ["b"]), _ONE),), "edge e has unknown endpoint ['b']"),
        (("a", "b"), (Edge("e", ("a", "b"), 1),), "edge e needs a positive rational length"),
        (
            ("a", "b"),
            (Edge("e", ("a", "b"), _ONE), Edge("f", ("b", "a"), Fraction(-1, 2))),
            "edge f needs a positive rational length",
        ),
    ],
)
def test_graph_validation_names_the_first_fault(vertices, edges, message):
    with pytest.raises(InvalidGraphError) as info:
        MetricGraph(vertices=vertices, edges=edges)
    assert str(info.value) == message


def test_graph_validation_accepts_ids_of_a_str_subclass():
    class Name(str):
        pass

    g = MetricGraph(vertices=(Name("a"), "b"), edges=(Edge(Name("e"), ("a", Name("b")), _ONE),))
    assert g.edge("e").length == 1


def test_disconnected_rejected():
    with pytest.raises(InvalidGraphError):
        build_graph(["a", "b", "c"], [("e", "a", "b", 1)])


def _unit_rows(spec):
    """Unit edges named by their ends: "ab cc" is a-b and a self-loop at c."""
    return [(f"{x}{y}{k}", x, y, 1) for k, (x, y) in enumerate(spec.split())]


@pytest.mark.parametrize(
    "vertices, spec",
    [
        ("abcde", "ab cd de ec"),  # the second component is a cycle with no stop
        ("abcd", "ab ba cd dc"),  # both components are cycles with no stop
        ("abc", "ab cc"),  # a lone vertex with one self-loop
        ("abc", "ab cc cc"),  # and with two
        ("abcdef", "ab bc de ef"),  # every vertex is on a chain, in two pieces
    ],
    ids=["cycle_component", "two_cycles", "lone_loop", "lone_loops", "two_paths"],
)
def test_a_graph_in_two_pieces_is_not_connected(vertices, spec):
    with pytest.raises(InvalidGraphError) as info:
        build_graph(vertices, _unit_rows(spec))
    assert str(info.value) == "graph is not connected"


def test_a_single_cycle_or_loop_is_connected():
    cycle = build_graph("abc", _unit_rows("bc ab ca"))
    assert cycle._skeleton.stops == ["a"]
    assert cycle._skeleton.chains == [("a", "a", (("ab1", True), ("bc0", True), ("ca2", True)), 3)]
    loop = build_graph(["a"], [("l", "a", "a", 2)])
    assert loop._skeleton.chains == [("a", "a", (("l", True),), 2)]
    assert build_graph(["a"], [])._skeleton.chains == []


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=7),
    st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=9),
)
def test_graphs_are_rejected_exactly_when_some_vertex_is_out_of_reach(n, pairs):
    names = [f"v{i}" for i in range(n)]
    rows = [(f"e{k}", names[a % n], names[b % n], 1) for k, (a, b) in enumerate(pairs)]
    reached, frontier = {names[0]}, [names[0]]
    while frontier:
        v = frontier.pop()
        for _, a, b, _ in rows:
            for x, y in ((a, b), (b, a)):
                if x == v and y not in reached:
                    reached.add(y)
                    frontier.append(y)
    if len(reached) == n:
        build_graph(names, rows)
    else:
        with pytest.raises(InvalidGraphError, match="^graph is not connected$"):
            build_graph(names, rows)


def test_parallel_edges_and_self_loops_are_legal():
    g = build_graph(
        ["a", "b"],
        [("e1", "a", "b", 1), ("e2", "a", "b", 2), ("l", "b", "b", 3)],
    )
    assert len(g.edges) == 3


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------


@pytest.fixture
def small_graph():
    return build_graph(
        ["a", "b", "c"],
        [("e1", "a", "b", 2), ("e2", "b", "c", 1), ("loop", "c", "c", 2)],
    )


def test_canonical_point_snaps_endpoints(small_graph):
    assert canonical_point(small_graph, EdgePoint("e1", Fraction(0))) == Vertex("a")
    assert canonical_point(small_graph, EdgePoint("e1", Fraction(2))) == Vertex("b")
    inner = EdgePoint("e1", Fraction(1, 2))
    assert canonical_point(small_graph, inner) == inner


def test_canonical_point_rejects_bad_references(small_graph):
    with pytest.raises(InvalidPointError):
        canonical_point(small_graph, Vertex("zz"))
    with pytest.raises(InvalidPointError):
        canonical_point(small_graph, EdgePoint("nope", Fraction(1, 2)))
    with pytest.raises(InvalidPointError):
        canonical_point(small_graph, EdgePoint("e1", Fraction(5, 2)))
    with pytest.raises(InvalidPointError):
        canonical_point(small_graph, EdgePoint("e1", Fraction(-1, 2)))


def test_point_label_formats(small_graph):
    assert point_label(Vertex("a")) == "a"
    assert point_label(EdgePoint("e1", Fraction(1, 2))) == "e1@1/2"


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------


def test_distance_frozen_values(small_graph):
    d = lambda p, q: distance(small_graph, p, q)
    assert d(Vertex("a"), Vertex("c")) == 3
    assert d(EdgePoint("e1", Fraction(1, 2)), Vertex("b")) == Fraction(3, 2)
    # both ways around the self-loop
    assert d(EdgePoint("loop", Fraction(1, 2)), Vertex("c")) == Fraction(1, 2)
    assert d(EdgePoint("loop", Fraction(3, 2)), Vertex("c")) == Fraction(1, 2)
    assert d(EdgePoint("loop", Fraction(1, 2)), EdgePoint("loop", Fraction(3, 2))) == 1


def test_distance_zero_only_at_coincident_points(small_graph):
    assert distance(small_graph, Vertex("b"), EdgePoint("e1", Fraction(2))) == 0
    assert distance(small_graph, Vertex("b"), EdgePoint("e2", Fraction(1, 3))) > 0


@settings(max_examples=120, deadline=None)
@given(graphs_with_points())
def test_distance_matches_brute_force(case):
    g, (p, q) = case
    assert distance(g, p, q) == oracle_distance(g, p, q)


@settings(max_examples=60, deadline=None)
@given(graphs_with_points(count=4))
def test_distance_matrix_is_a_metric_and_matches_pairwise(case):
    g, pts = case
    m = distance_matrix(g, pts)  # construction validates the metric axioms
    for i, j in itertools.combinations(range(4), 2):
        assert m.distance(i, j) == oracle_distance(g, pts[i], pts[j])
    rebuilt = FiniteMetric.from_rows(m.labels, fraction_rows(m))
    assert rebuilt == m and (rebuilt.den, rebuilt.D) == (m.den, m.D)


@st.composite
def kernel_graphs(draw):
    """Connected graphs rich in what the point kernel removes: chains of
    degree-2 vertices, pendant paths, self-loops (plain, or cycles hanging
    off a vertex) and parallel edges."""
    base = [f"v{i}" for i in range(draw(st.integers(min_value=1, max_value=4)))]
    names, rows = list(base), []

    def chain(a, b):
        # a to b through up to two new vertices of degree 2
        stops = [a]
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            names.append(f"c{len(names)}")
            stops.append(names[-1])
        stops.append(b)
        for x, y in zip(stops, stops[1:]):
            rows.append((f"e{len(rows)}", x, y, draw(_lengths)))

    for i in range(1, len(base)):
        chain(base[draw(st.integers(min_value=0, max_value=i - 1))], base[i])
    for kind in draw(st.lists(st.sampled_from(("parallel", "loop", "pendant")), max_size=4)):
        a = draw(st.sampled_from(base))
        if kind == "parallel" and rows:
            _, x, y, _ = draw(st.sampled_from(rows))
            rows.append((f"e{len(rows)}", x, y, draw(_lengths)))
        elif kind == "pendant":
            names.append(f"leaf{len(names)}")
            chain(a, names[-1])
        else:
            chain(a, a)
    return build_graph(names, rows)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_distance_matrix_on_the_point_kernel_matches_floyd_warshall(data):
    g = data.draw(kernel_graphs())
    count = data.draw(st.integers(min_value=1, max_value=5))
    if data.draw(st.booleans()):  # every point on one vertex
        pts = [Vertex(data.draw(st.sampled_from(g.vertices)))] * count
    else:
        pts = [data.draw(graph_points(g)) for _ in range(count)]
    m = distance_matrix(g, pts)
    assert fraction_rows(m) == oracle_distance_matrix(g, pts)


@st.composite
def closure_points(draw, g, count):
    """Points of ``g`` heavy in the cases the point kernel splits apart:
    edge ends, points on self-loops and points drawn twice."""
    loops = [e for e in g.edges if e.ends[0] == e.ends[1]]
    pts = []
    for _ in range(count):
        kind = draw(st.sampled_from(("any", "end", "loop", "again")))
        if kind == "end" and g.edges:
            e = draw(st.sampled_from(g.edges))
            pts.append(EdgePoint(e.id, draw(st.sampled_from((Fraction(0), e.length)))))
        elif kind == "loop" and loops:
            e = draw(st.sampled_from(loops))
            frac = draw(st.fractions(min_value=0, max_value=1, max_denominator=8))
            pts.append(EdgePoint(e.id, frac * e.length))
        elif kind == "again" and pts:
            pts.append(draw(st.sampled_from(pts)))
        else:
            pts.append(draw(graph_points(g)))
    return pts


@pytest.mark.parametrize("dtype", ["int64", "object"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_closure_matches_the_floyd_warshall_oracle_on_both_dtypes(dtype, data):
    g = data.draw(kernel_graphs())
    pts = data.draw(closure_points(g, data.draw(st.integers(min_value=1, max_value=6))))
    closure, seen = core._closure, []

    def spy(adj):
        A = closure(adj)
        seen.append(A.dtype)
        return A

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_closure", spy)
        if dtype == "object":
            mp.setattr(core, "_INT64_SAFE", 0)
        m = distance_matrix(g, pts)
    assert [str(x) for x in seen] == [dtype]
    assert fraction_rows(m) == oracle_distance_matrix(g, pts)


@settings(max_examples=60, deadline=None)
@given(graphs_with_points(count=4))
def test_scaled_metric_equals_and_hashes_like_its_rows(case):
    g, pts = case
    m = distance_matrix(g, pts)
    expected = FiniteMetric.from_rows(m.labels, oracle_distance_matrix(g, pts))
    assert m == expected and expected == m and hash(m) == hash(expected)
    assert (m.den, m.D) == (expected.den, expected.D)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_the_arc_checked_metric_equals_the_metric_of_its_rows(data):
    # interior, repeated and self-loop points; no triangle test runs
    g = data.draw(kernel_graphs())
    pts = data.draw(closure_points(g, data.draw(st.integers(min_value=1, max_value=7))))

    def refuse(*args):
        raise AssertionError("distance_matrix ran the triangle test")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_metric_by_int64", refuse)
        mp.setattr(core, "_check_metric", refuse)
        m = distance_matrix(g, pts)
    expected = FiniteMetric.from_rows(m.labels, oracle_distance_matrix(g, pts))
    assert m == expected and hash(m) == hash(expected)
    assert (m.labels, m.D, m.den) == (expected.labels, expected.D, expected.den)
    assert all(type(x) is int for row in m.D for x in row)


def _tamper_with_the_closure(monkeypatch, mutate):
    """Make ``distance_matrix`` see ``mutate(adj, A)`` applied to the true
    closure A of its kernel adjacency ``adj``."""
    closure = core._closure

    def tampered(adj):
        A = closure(adj).copy()
        mutate(adj, A)
        return A

    monkeypatch.setattr(core, "_closure", tampered)


@pytest.mark.parametrize("change", ["raise", "lower", "untight"])
@pytest.mark.parametrize("dtype", ["int64", "object"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_corrupted_closure_fails_distance_matrix(change, dtype, data):
    g = data.draw(kernel_graphs())
    pts = data.draw(closure_points(g, data.draw(st.integers(min_value=2, max_value=6))))
    k = len(_point_kernel(g, [canonical_point(g, p) for p in pts])[0])
    assume(k >= 2)
    s, t = data.draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True))

    def mutate(adj, A):
        if change == "untight":
            # the shortest arc out of s is the only tight arc into its head
            # for the source s: another would start nearer to s
            node = list(adj)[s]
            head = min(adj[node], key=adj[node].get)
            del adj[node][head]
        else:
            A[s, t] += 1 if change == "raise" else -1

    with pytest.MonkeyPatch.context() as mp:
        if dtype == "object":
            mp.setattr(core, "_INT64_SAFE", 0)
        _tamper_with_the_closure(mp, mutate)
        with pytest.raises(InternalCheckError, match="arc conditions"):
            distance_matrix(g, pts)


def test_a_node_with_no_arc_into_it_fails_the_closure_check():
    adj = {"a": {"b": 2}, "b": {"a": 2}, "c": {}}
    assert not core._is_closure(adj, core._closure(adj))
    # within the length bound, so only the missing arcs can refuse it
    assert not core._is_closure(adj, np.array([[0, 2, 1], [2, 0, 1], [1, 1, 0]]))
    assert core._is_closure({"a": {}}, np.zeros((1, 1), dtype=np.int64))
    assert not core._is_closure({"a": {}}, np.ones((1, 1), dtype=np.int64))


def _vertex_kernel(g, ids):
    adj, nodes, scale = _point_kernel(g, [Vertex(v) for v in ids])
    assert nodes == list(ids) and scale == g._scale
    return adj


def test_point_kernel_prunes_splices_and_keeps_the_shortest_parallel_edge():
    g = build_graph(
        ["a", "b", "c", "d", "e", "f"],
        [
            ("ab", "a", "b", 1),
            ("ab2", "a", "b", 2),  # parallel, longer: dropped
            ("bc", "b", "c", 1),
            ("cd", "c", "d", 1),
            ("loop", "d", "d", 3),  # self-loop: dropped
            ("be", "b", "e", 1),  # pendant path b-e-f: pruned
            ("ef", "e", "f", 1),
            ("da", "d", "a", 5),  # parallel to the spliced a-b-c-d, longer
        ],
    )
    assert _vertex_kernel(g, ["a", "d"]) == {"a": {"d": 3}, "d": {"a": 3}}
    assert _vertex_kernel(g, ["f", "c"]) == {"f": {"c": 3}, "c": {"f": 3}}
    assert _vertex_kernel(g, ["b"]) == {"b": {}}


def test_point_kernel_of_a_subdivision_is_the_original_graph():
    k33 = from_spec(FamilySpec(tag="complete_bipartite", sizes=(3, 3)))
    fine = subdivide(k33, 25)
    kernel = _vertex_kernel(fine, k33.vertices)
    assert len(fine.vertices) == 231
    assert kernel == {
        v: {w: 26 for w in k33.vertices if (v[0] == "a") != (w[0] == "a")} for v in k33.vertices
    }


_SKELETON_CASES = {
    # a self-loop carrying a point at a vertex whose other two edges would
    # make it chain-interior if the loop did not count
    "loop_at_chain_vertex": (
        "v0 v1 v2 v3",
        [("t1", "v0", "v1", 1), ("t2", "v0", "v2", "1/2"), ("t3", "v1", "v3", 2),
         ("x0", "v0", "v0", "3/4")],
        ["v1", "v1", "v1", ("x0", "1/8")],
    ),
    "one_cycle": (
        "a b c d",
        [("ab", "a", "b", 1), ("bc", "b", "c", 2), ("cd", "c", "d", "1/3"), ("da", "d", "a", 1)],
        ["c", ("bc", "1/2"), ("da", "2/3"), "b"],
    ),
    "equal_parallel_chains": (
        "a b c d e f",
        [("ac", "a", "c", 1), ("cb", "c", "b", 1), ("ad", "a", "d", 1), ("db", "d", "b", 1),
         ("ae", "a", "e", 1), ("bf", "b", "f", 3)],
        ["c", "d", ("ac", "1/2"), ("db", "1/4"), "f"],
    ),
    "unequal_parallel_chains": (
        "a b c d e",
        [("ac", "a", "c", 1), ("cb", "c", "b", 2), ("ad", "a", "d", 5), ("db", "d", "b", 1),
         ("ab", "a", "b", 4), ("be", "b", "e", 1)],
        ["c", "d", ("ad", "1/2"), ("ab", "3")],
    ),
    "points_at_stops": (
        "a b c d e",
        [("ab", "a", "b", 1), ("bc", "b", "c", 1), ("cd", "c", "d", 2), ("db", "d", "b", 1),
         ("ce", "c", "e", 1)],
        ["a", "b", "e", "c", "a"],
    ),
    # bc is walked from c to b, the end of its chain: its first end b is
    # the chain's far end
    "edge_reversed_on_its_chain": (
        "a b c",
        [("ac", "a", "c", 2), ("bc", "b", "c", 1), ("ab", "a", "b", 4), ("bb", "b", "b", 1)],
        [("bc", "1/4"), ("ac", "3/2"), "c"],
    ),
}


@pytest.mark.parametrize("name", sorted(_SKELETON_CASES))
def test_skeleton_kernel_metric_matches_the_oracle(name):
    vertices, rows, spec = _SKELETON_CASES[name]
    g = build_graph(vertices.split(), rows)
    pts = [
        Vertex(p) if isinstance(p, str) else EdgePoint(p[0], as_rational(p[1])) for p in spec
    ]
    assert fraction_rows(distance_matrix(g, pts)) == oracle_distance_matrix(g, pts)
    stops, chains, at, on = g._skeleton
    if name == "loop_at_chain_vertex":
        assert "v0" in stops and "v1" in at
    elif name == "one_cycle":
        assert stops == ["a"] and len(chains) == 1
    elif name.endswith("parallel_chains"):
        assert [(a, b) for a, b, _, _ in chains].count(("a", "b")) >= 2
    elif name == "edge_reversed_on_its_chain":
        chain, first, forward = on["bc"]
        assert not forward and first == chains[chain][3]


@settings(max_examples=80, deadline=None)
@given(graphs_with_points(count=4))
def test_point_kernel_passes_full_validation(case):
    # the kernel, read as a metric graph, is connected with positive lengths
    g, pts = case
    canon = [canonical_point(g, p) for p in pts]
    adj, nodes, scale = _point_kernel(g, canon)
    name = {v: repr(v) for v in adj}
    edges = tuple(
        Edge(f"{name[a]}-{name[b]}", (name[a], name[b]), Fraction(length, scale))
        for a, nbrs in adj.items()
        for b, length in nbrs.items()
        if name[a] < name[b]
    )
    kernel = MetricGraph(tuple(name.values()), edges)
    assert all(kernel.has_vertex(name[v]) for v in nodes)


_AB = ("a", "b")


@settings(max_examples=200, deadline=None)
@given(perturbed_metrics())
@example((_AB, ((0, 2), (Fraction(2), 0)), 1))  # bad entry at (1, 0)
@example((_AB, ((0, 2), (2.0, 0)), 4))  # bad entry at (1, 0)
@example((_AB, ((Fraction(0), 1), (1, 0)), 1))  # bad entry at (0, 0)
@example((_AB, (("0", 1), (1, 0)), 1))  # nonzero diagonal at 0
@example((_AB, ((0, True), (True, 0)), 1))  # bad entry at (0, 1)
def test_finite_metric_checks_match_the_fraction_oracle(case):
    labels, D, den = case
    expected = oracle_metric_violation(labels, D)
    try:
        m = FiniteMetric(labels, D, den)
    except InvalidMetricError as exc:
        assert str(exc) == expected
        return
    assert expected is None
    n = len(labels)
    assert all(m.distance(i, j) == Fraction(D[i][j], den) for i in range(n) for j in range(n))
    assert math.gcd(m.den, *itertools.chain.from_iterable(m.D)) == 1
    assert m.diameter() == Fraction(max((d for row in D for d in row), default=0), den)


@pytest.mark.parametrize("den", [0, -2, 2.0, Fraction(2), True])
def test_finite_metric_rejects_a_bad_denominator(den):
    with pytest.raises(InvalidMetricError, match=re.escape(f"bad denominator: {den!r}")):
        FiniteMetric(("a", "b"), ((0, 1), (1, 0)), den)


_ABC = ("a", "b", "c")


@pytest.mark.parametrize(
    "labels, D, message",
    [
        (_ABC, ((0, 1, 1), (1, 1, 1), (1, 1, 0)), "nonzero diagonal at 1"),
        (_AB, ((0, Fraction(1)), (1, 0)), "bad entry at (0, 1): Fraction(1, 1)"),
        (_ABC, ((0, 1, 1), (1, 0, -1), (1, -1, 0)), "bad entry at (1, 2): -1"),
        (_ABC, ((0, 1, 2), (1, 0, 1), (1, 1, 0)), "asymmetry at (0, 2)"),
        (
            _ABC,
            ((0, 0, 1), (0, 0, 1), (1, 1, 0)),
            "zero distance between distinct points 0 and 1",
        ),
        (_ABC, ((0, 1, 3), (1, 0, 1), (3, 1, 0)), "triangle violation at (0, 1, 2)"),
    ],
    ids=["diagonal", "not_an_int", "negative", "asymmetry", "zero_distance", "triangle"],
)
@pytest.mark.parametrize("guard", ["int64", "python_ints"])
def test_metric_error_messages_are_the_same_on_both_paths(monkeypatch, labels, D, message, guard):
    if guard == "python_ints":
        monkeypatch.setattr(core, "_INT64_SAFE", 0)
    with pytest.raises(InvalidMetricError) as exc:
        FiniteMetric(labels, D, 1)
    assert str(exc.value) == message


def test_valid_metrics_are_checked_by_int64_arrays_alone(monkeypatch):
    def loop(*args):
        raise AssertionError("a valid metric reached the Python-int loop")

    monkeypatch.setattr(core, "_check_metric", loop)
    fine = subdivide(from_spec(FamilySpec(tag="complete_bipartite", sizes=(3, 3))), 3)
    m = distance_matrix(fine, [Vertex(v) for v in fine.vertices])
    assert m.size == 33 and m.diameter() == 8
    # zero distance between equal labels is legal
    FiniteMetric.from_rows(("a", "a", "b"), [[0, 0, 1], [0, 0, 1], [1, 1, 0]])


def _next_prime(k):
    while any(k % p == 0 for p in range(2, int(k**0.5) + 1)):
        k += 1
    return k


def test_triangle_check_on_python_ints_beyond_int64():
    # Points on a line at offsets with three coprime denominators of about
    # 2^21: the common denominator exceeds 2^62, so int64 sums could wrap and
    # the check must run on Python ints.
    p = _next_prime(2**21)
    q = _next_prime(p + 1)
    r = _next_prime(q + 1)
    den = p * q * r
    xs = [0, den + q * r, 2 * den + p * r, 3 * den + p * q]  # in units of 1 / den
    labels = ("a", "b", "c", "d")
    D = [[abs(x - y) for y in xs] for x in xs]
    m = FiniteMetric(labels, D, den)
    assert m.den == den and 3 * max(map(max, m.D)) >= 2**62
    assert oracle_metric_violation(labels, D) is None
    D[1][3] = D[3][1] = D[1][3] + r  # d(b, d) + 1 / (p q)
    expected = oracle_metric_violation(labels, D)
    assert expected == "triangle violation at (1, 2, 3)"
    with pytest.raises(InvalidMetricError, match=re.escape(expected)):
        FiniteMetric(labels, D, den)


def test_finite_metric_rejects_triangle_violation():
    with pytest.raises(InvalidMetricError):
        FiniteMetric.from_rows(
            ("a", "b", "c"), [[0, 1, 5], [1, 0, 1], [5, 1, 0]]
        )


def test_finite_metric_rejects_asymmetry():
    with pytest.raises(InvalidMetricError):
        FiniteMetric.from_rows(("a", "b"), [[0, 1], [2, 0]])


# ---------------------------------------------------------------------------
# subdivision and scaling
# ---------------------------------------------------------------------------


def _unit_triangle():
    return build_graph(
        ["a", "b", "c"],
        [("e1", "a", "b", 1), ("e2", "b", "c", 1), ("e3", "c", "a", 1)],
    )


def test_subdivide_counts_and_lengths():
    g = _unit_triangle()
    fine = subdivide(g, 2)
    assert len(fine.vertices) == 3 + 3 * 2
    assert len(fine.edges) == 3 * 3
    assert all(e.length == 1 for e in fine.edges)


def test_subdivide_scales_vertex_distances():
    g = _unit_triangle()
    k = 3
    fine = subdivide(g, k)
    for u, v in itertools.combinations(g.vertices, 2):
        assert distance(fine, Vertex(u), Vertex(v)) == (k + 1) * distance(
            g, Vertex(u), Vertex(v)
        )


@settings(max_examples=150, deadline=None)
@given(connected_graphs(max_vertices=7, max_extra_edges=5), st.integers(0, 2))
def test_degree_two_chains_cover_each_edge_once(g, k):
    if k:  # unit lengths, then runs of k degree-2 vertices on every edge
        g = subdivide(build_graph(g.vertices, [(e.id, *e.ends, 1) for e in g.edges]), k)
    degree = {v: 0 for v in g.vertices}
    for e in g.edges:
        for end in e.ends:
            degree[end] += 1
    stops, chains, _, _ = g._skeleton
    assert stops == (sorted(v for v, d in degree.items() if d != 2) or [min(g.vertices)])
    walked = [eid for _, _, walk, _ in chains for eid, _ in walk]
    assert sorted(walked) == sorted(e.id for e in g.edges)
    for start, end, walk, length in chains:
        assert start in stops and end in stops
        assert length == sum(g.edge(eid).length for eid, _ in walk) * g._scale
        here = start
        for i, (eid, forward) in enumerate(walk):
            a, b = g.edge(eid).ends
            assert (a if forward else b) == here
            here = b if forward else a
            if i < len(walk) - 1:
                assert here not in stops and degree[here] == 2
        assert here == end


def test_subdivide_requires_unit_lengths(small_graph):
    with pytest.raises(PreconditionError):
        subdivide(small_graph, 1)


def test_subdivide_rejects_nonpositive_k():
    with pytest.raises(PreconditionError):
        subdivide(_unit_triangle(), 0)


def test_scale_multiplies_all_distances(small_graph):
    t = Fraction(3, 7)
    scaled = scale(small_graph, t)
    assert {e.id: e.length for e in scaled.edges} == {
        e.id: t * e.length for e in small_graph.edges
    }
    assert distance(scaled, Vertex("a"), Vertex("c")) == t * 3


def test_scale_rejects_nonpositive_factor(small_graph):
    with pytest.raises(PreconditionError):
        scale(small_graph, 0)
    with pytest.raises(PreconditionError):
        scale(small_graph, Fraction(-1, 2))


# ---------------------------------------------------------------------------
# the package's exports
# ---------------------------------------------------------------------------


def test_all_is_sorted_and_names_exactly_what_the_package_imports():
    tree = ast.parse(Path(thetagap.__file__).read_text())
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    exported = thetagap.__all__
    assert exported == sorted(exported)
    assert len(set(exported)) == len(exported)
    assert all(hasattr(thetagap, name) for name in exported)
    assert set(exported) == set(imported)
