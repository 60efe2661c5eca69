"""Exact distance engine: validation, distances, rescaling."""

import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import oracle_distance, oracle_metric_violation
from thetagap.core import (
    EdgePoint,
    FiniteMetric,
    MetricGraph,
    Vertex,
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
    InvalidGraphError,
    InvalidMetricError,
    InvalidPointError,
    PreconditionError,
)

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
    """A random metric, possibly with one entry changed to break an axiom."""
    # denominators 1 and 4 keep entries equal to their int or float copies
    labels, rows = draw(rational_metrics(max_denominator=draw(st.sampled_from((1, 4, 1000)))))
    n = len(labels)
    kind = draw(st.sampled_from(_BREAKS if n >= 3 else _BREAKS[:2] + _BREAKS[5:]))
    index = st.integers(min_value=0, max_value=n - 1)
    delta = draw(st.fractions(min_value=Fraction(1, 97), max_value=3, max_denominator=97))
    i, j, k = draw(st.permutations(range(n)))[:3] if n >= 3 else (draw(index),) * 3
    if kind == "diagonal":
        rows[i][i] = delta
    elif kind == "symmetry":
        rows[i][j] += delta
    elif kind == "zero":
        rows[i][j] = rows[j][i] = Fraction(0)
    elif kind == "triangle":
        rows[i][k] = rows[k][i] = rows[i][j] + rows[j][k] + delta
    elif kind == "negative":
        rows[i][j] = rows[j][i] = -delta
    elif kind == "type":
        i, j = draw(index), draw(index)
        rows[i][j] = draw(st.sampled_from([int(rows[i][j]), float(rows[i][j]), str(rows[i][j])]))
    return tuple(labels), tuple(tuple(row) for row in rows)


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


def test_disconnected_rejected():
    with pytest.raises(InvalidGraphError):
        build_graph(["a", "b", "c"], [("e", "a", "b", 1)])


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
    rebuilt = FiniteMetric(labels=m.labels, rows=m.rows)
    assert rebuilt == m and (rebuilt.den, rebuilt.D) == (m.den, m.D)


_AB = ("a", "b")


@settings(max_examples=200, deadline=None)
@given(perturbed_metrics())
@example((_AB, ((Fraction(0), Fraction(2)), (2, Fraction(0)))))  # bad entry at (1, 0)
@example((_AB, ((Fraction(0), Fraction(1, 2)), (0.5, Fraction(0)))))  # bad entry at (1, 0)
@example((_AB, ((0, Fraction(1)), (Fraction(1), Fraction(0)))))  # bad entry at (0, 0)
@example((_AB, (("0", Fraction(1)), (Fraction(1), Fraction(0)))))  # nonzero diagonal at 0
def test_finite_metric_checks_match_the_fraction_oracle(case):
    labels, rows = case
    expected = oracle_metric_violation(labels, rows)
    try:
        m = FiniteMetric(labels=labels, rows=rows)
    except InvalidMetricError as exc:
        assert str(exc) == expected
        return
    assert expected is None
    n = len(labels)
    assert all(Fraction(m.D[i][j], m.den) == rows[i][j] for i in range(n) for j in range(n))
    assert m.diameter() == max((d for row in rows for d in row), default=Fraction(0))


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
    xs = [Fraction(0), 1 + Fraction(1, p), 2 + Fraction(1, q), 3 + Fraction(1, r)]
    labels = ("a", "b", "c", "d")
    rows = [[abs(x - y) for y in xs] for x in xs]
    m = FiniteMetric(labels=labels, rows=tuple(map(tuple, rows)))
    assert m.den == p * q * r and 3 * max(map(max, m.D)) >= 2**62
    assert oracle_metric_violation(labels, rows) is None
    rows[1][3] = rows[3][1] = rows[1][3] + Fraction(1, p * q)
    expected = oracle_metric_violation(labels, rows)
    assert expected == "triangle violation at (1, 2, 3)"
    with pytest.raises(InvalidMetricError, match=re.escape(expected)):
        FiniteMetric(labels=labels, rows=tuple(map(tuple, rows)))


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
