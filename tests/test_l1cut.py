"""Cut-cone membership: decompositions, separating certificates, the LP."""

import itertools
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_cut_cone_member
from test_core import graphs_with_points
from thetagap import l1cut
from thetagap.analysis import is_negative_type
from thetagap.core import FiniteMetric, Vertex, distance_matrix
from thetagap.errors import InternalCheckError, PreconditionError
from thetagap.families import (
    FamilySpec,
    from_spec,
    make_random_cactus,
    make_random_connected,
    make_theta,
)
from thetagap.l1cut import (
    Cut,
    CutDecomposition,
    FarkasCertificate,
    _float_support,
    _gray_cut_values,
    _Phase1,
    cut_metric,
    is_l1_embeddable,
    k4_explicit_decomposition,
    l1_coordinates,
)
from thetagap.witness import construct_witness

# ---------------------------------------------------------------------------
# cuts
# ---------------------------------------------------------------------------


def test_cut_canonical_side_contains_zero():
    c = Cut.from_members(4, [1, 3])
    assert 0 in c.members
    assert c.members == (0, 2)


def test_cut_mask_round_trip():
    for mask in range(2 ** 4 - 1):
        c = Cut.from_mask(5, mask)
        assert c.mask == mask
        assert Cut.from_mask(5, c.mask) == c


def test_cut_rejects_improper_sides():
    with pytest.raises(PreconditionError):
        Cut(3, ())
    with pytest.raises(PreconditionError):
        Cut(3, (0, 1, 2))
    with pytest.raises(PreconditionError):
        Cut(3, (1, 2))  # canonical side must contain point zero


def test_cut_separates_and_crossing_pairs():
    c = Cut.from_members(4, [0, 1])
    assert c.separates(0, 2)
    assert not c.separates(0, 1)
    assert c.crossing_pairs() == [(0, 2), (0, 3), (1, 2), (1, 3)]


def test_cut_metric_is_the_indicator_semimetric():
    rows = cut_metric(3, Cut.from_members(3, [0]))
    assert rows == ((0, 1, 1), (1, 0, 0), (1, 0, 0))


# ---------------------------------------------------------------------------
# decompositions and coordinates
# ---------------------------------------------------------------------------


def _line_metric():
    return FiniteMetric.from_rows(
        ("a", "b", "c"), [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    )


def test_decomposition_of_line_metric():
    m = _line_metric()
    result = is_l1_embeddable(m)
    assert isinstance(result, CutDecomposition)
    weights = {cut.members: w for cut, w in result.entries}
    assert weights == {(0,): Fraction(1), (0, 1): Fraction(1)}


def test_decomposition_rejects_wrong_weights():
    m = _line_metric()
    entries = ((Cut.from_members(3, [0]), Fraction(1)),)
    with pytest.raises(InternalCheckError):
        CutDecomposition(metric=m, entries=entries)


def test_decomposition_rejects_nonpositive_weights():
    m = _line_metric()
    entries = (
        (Cut.from_members(3, [0]), Fraction(0)),
        (Cut.from_members(3, [0, 1]), Fraction(2)),
    )
    with pytest.raises(PreconditionError):
        CutDecomposition(metric=m, entries=entries)


def test_l1_coordinates_reproduce_distances_exactly():
    m = _line_metric()
    dec = is_l1_embeddable(m)
    coords = l1_coordinates(dec)
    for i, j in itertools.combinations(range(3), 2):
        l1 = sum(abs(a - b) for a, b in zip(coords[i], coords[j]))
        assert l1 == m.distance(i, j)


def test_triangle_needs_three_half_cuts():
    g = from_spec(FamilySpec(tag="cycle", sizes=(3,)))
    m = distance_matrix(g, [Vertex(v) for v in g.vertices])
    dec = is_l1_embeddable(m)
    assert sorted(w for _, w in dec.entries) == [Fraction(1, 2)] * 3


# ---------------------------------------------------------------------------
# the Gray-code cut walk
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.data())
def test_gray_walk_visits_every_cut_once_with_correct_sums(n, data):
    pairs = list(itertools.combinations(range(n), 2))
    weights = [
        data.draw(st.integers(min_value=-20, max_value=20)) for _ in pairs
    ]
    seen = {}
    for mask, value in _gray_cut_values(n, weights):
        assert mask not in seen
        seen[mask] = value
    assert set(seen) == set(range(2 ** (n - 1) - 1))
    for mask, value in seen.items():
        cut = Cut.from_mask(n, mask)
        direct = sum(
            w for w, p in zip(weights, pairs) if cut.separates(*p)
        )
        assert value == direct


# ---------------------------------------------------------------------------
# membership decisions
# ---------------------------------------------------------------------------


def test_k23_graph_metric_is_not_l1():
    g = from_spec(FamilySpec(tag="complete_bipartite", sizes=(2, 3)))
    m = distance_matrix(g, [Vertex(v) for v in g.vertices])
    result = is_l1_embeddable(m)
    # construction of the certificate already re-validates it against
    # every cut; this assertion pins the verdict
    assert isinstance(result, FarkasCertificate)


def test_witness_metric_is_not_l1():
    w = construct_witness(make_theta(1, 1, 1))
    assert isinstance(is_l1_embeddable(w.metric), FarkasCertificate)


def test_single_point_is_trivially_l1():
    m = FiniteMetric.from_rows(("a",), [[0]])
    dec = is_l1_embeddable(m)
    assert isinstance(dec, CutDecomposition)
    assert dec.entries == ()


def test_size_cap_is_enforced():
    g = from_spec(FamilySpec(tag="cycle", sizes=(6,)))
    m = distance_matrix(g, [Vertex(v) for v in g.vertices])
    with pytest.raises(PreconditionError):
        is_l1_embeddable(m, max_points=5)


def test_fixed_size_cap_overrides_a_larger_bound():
    # 2^20 - 1 masks would be enumerated; the cap must refuse first
    g = from_spec(FamilySpec(tag="path", sizes=(21,)))
    m = distance_matrix(g, [Vertex(v) for v in g.vertices])
    assert m.size == 21
    with pytest.raises(PreconditionError, match="stop at 20"):
        is_l1_embeddable(m, max_points=64)


def test_negative_type_refutation_needs_no_simplex(monkeypatch):
    m = construct_witness(make_theta(1, 1, 1)).metric
    omega = is_negative_type(m).violation.as_dense(m.size)

    def no_simplex(*args, **kwargs):
        raise AssertionError("a refuted metric must not reach the simplex")

    monkeypatch.setattr(l1cut, "_Phase1", no_simplex)
    result = is_l1_embeddable(m)
    assert isinstance(result, FarkasCertificate)
    pairs = itertools.combinations(range(m.size), 2)
    assert result.pair_values == tuple(omega[i] * omega[j] for i, j in pairs)


@pytest.mark.parametrize(
    "graph, k",
    [
        # of negative type and l1: column generation proposes the support
        (lambda: make_random_cactus(8, seed=4), 13),
        # not of negative type: refuted by the short-cut
        (lambda: make_random_connected(12, 14, seed=1), 12),
        # of negative type but not l1: no proposal, the full exact LP decides
        (lambda: make_random_connected(12, 14, seed=0), 12),
    ],
    ids=["cactus13", "connected12_refuted", "connected12_negative_type"],
)
def test_verdict_matches_the_full_exact_lp(graph, k):
    g = graph()
    m = distance_matrix(g, [Vertex(v) for v in g.vertices[:k]])
    assert m.size == k
    objective, _ = _Phase1(m).solve()
    result = is_l1_embeddable(m, max_points=16)
    assert isinstance(result, CutDecomposition) == (objective == 0)


# Recorded from the dense-B^-1 simplex that sparse rows replaced: objective,
# dual, final basis, Bland switch and pivot counts of the full exact LP.
CASE1_DUAL = [
    1, 1, -10, -19, 1, 1, 1, 1, 1, 1, 1, 1, 1, -4, 1, -7, 1, 1, 1, 1, -7, 1, 1, 1, -9,
    1, 1, -8, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, -13, -9, -7, 1, 1, 1, 1, -13, 1, 1, 1,
    -6, 1, 1, 1, -10, 1, -8, 1, 1, 1, -9, 1, 1, 1, 1, 1,
]
CASE1_BASIS = [
    2047, 2048, 559, 4, 2051, 2052, 2053, 2054, 2055, 2056, 2057, 2058, 2059, 1006,
    2061, 1245, 2063, 2064, 2065, 2066, 943, 2068, 2069, 2070, 942, 2072, 2073, 476,
    2075, 2076, 2077, 2078, 2079, 2080, 2081, 2082, 2083, 2084, 2085, 557, 1022, 1661,
    2089, 2090, 2091, 2092, 1535, 2094, 2095, 2096, 220, 2098, 2099, 2100, 1581, 2102,
    2043, 2104, 2105, 2106, 1789, 2108, 2109, 2110, 2111, 2112,
]
CASE2_DUAL = [
    -5, 1, -8, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, -6, -6, -8, -2, 1, 1, -4, -2, 1,
    1, 1, -5, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, -5, -5, -2, 1, 0, -5, -2,
]
CASE2_BASIS = [
    238, 512, 5, 514, 515, 516, 517, 518, 519, 520, 521, 522, 523, 524, 373, 526, 100,
    503, 1, 357, 531, 532, 485, 142, 535, 536, 537, 495, 15, 540, 541, 542, 543, 544,
    545, 546, 547, 548, 273, 415, 479, 552, 341, 101, 287,
]
CASE3_BASIS = [
    485, 512, 503, 514, 515, 516, 517, 518, 519, 520, 521, 522, 523, 524, 142, 526,
    100, 14, 495, 238, 531, 532, 373, 357, 535, 536, 537, 5, 15, 540, 541, 542, 543,
    544, 545, 546, 547, 548, 1, 415, 479, 552, 341, 101, 351,
]


@pytest.mark.parametrize(
    "n, seed, streak_limit, objective, dual, basis, bland, pivots, degenerate",
    [
        (12, 0, 30, Fraction(79, 60), CASE1_DUAL, CASE1_BASIS, False, 64, 6),
        (10, 3, 30, Fraction(17, 10), CASE2_DUAL, CASE2_BASIS, False, 57, 20),
        # a short degenerate streak forces the switch to Bland pricing
        (10, 3, 2, Fraction(17, 10), CASE2_DUAL, CASE3_BASIS, True, 89, 21),
    ],
    ids=["connected12", "connected10", "connected10_bland"],
)
def test_full_exact_lp_is_frozen(
    monkeypatch, n, seed, streak_limit, objective, dual, basis, bland, pivots, degenerate
):
    monkeypatch.setattr(l1cut, "_DEGENERATE_STREAK_LIMIT", streak_limit)
    g = make_random_connected(n, 14, seed=seed)
    solver = _Phase1(distance_matrix(g, [Vertex(v) for v in g.vertices[:n]]))
    assert solver.solve() == (objective, dual)
    assert solver.basis == basis
    assert solver.bland is bland
    assert (solver.pivots, solver.degenerate_pivots) == (pivots, degenerate)


@settings(max_examples=60, deadline=None)
@given(graphs_with_points(count=4))
def test_membership_matches_exhaustive_oracle_on_four_points(case):
    g, pts = case
    m = distance_matrix(g, pts)
    result = is_l1_embeddable(m)
    assert isinstance(result, CutDecomposition) == oracle_cut_cone_member(m)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=5, max_value=7), st.data())
def test_random_cut_combinations_are_recognized(n, data):
    # build a guaranteed member of the cone, with all distances positive
    weights = {}
    for i in range(n):
        weights[Cut.from_members(n, [i])] = Fraction(1, 2)
    extra = data.draw(st.integers(min_value=0, max_value=4))
    for _ in range(extra):
        mask = data.draw(st.integers(min_value=0, max_value=2 ** (n - 1) - 2))
        w = data.draw(st.fractions(min_value=Fraction(1, 4), max_value=2, max_denominator=6))
        cut = Cut.from_mask(n, mask)
        weights[cut] = weights.get(cut, Fraction(0)) + w
    pairs = list(itertools.combinations(range(n), 2))
    rows = [[Fraction(0)] * n for _ in range(n)]
    for (i, j) in pairs:
        d = sum(
            (w for cut, w in weights.items() if cut.separates(i, j)), Fraction(0)
        )
        rows[i][j] = rows[j][i] = d
    m = FiniteMetric.from_rows(tuple(f"p{i}" for i in range(n)), rows)
    result = is_l1_embeddable(m)
    assert isinstance(result, CutDecomposition)


# ---------------------------------------------------------------------------
# the sixteen-point decomposition
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def k4_decomposition():
    return k4_explicit_decomposition()


def test_k4_decomposition_shape(k4_decomposition):
    g, dec = k4_decomposition
    assert len(g.vertices) == 16
    assert len(dec.entries) == 12
    assert all(w == Fraction(1, 2) for _, w in dec.entries)
    assert all(len(c.members) in (6, 10) for c, _ in dec.entries)


# Recorded from the dense float LP that column generation replaced.
K4_FLOAT_SUPPORT = [248, 440, 488, 1787, 3707, 6589, 7069, 9851, 22941, 25070, 26086, 29158]
K4_LP_CUTS = [
    (0, 4, 5, 6, 7, 8),
    (0, 4, 5, 6, 8, 9),
    (0, 4, 6, 7, 8, 9),
    (0, 1, 2, 4, 5, 6, 7, 8, 10, 11),
    (0, 1, 2, 4, 5, 6, 7, 10, 11, 12),
    (0, 1, 3, 4, 5, 6, 8, 9, 12, 13),
    (0, 1, 3, 4, 5, 8, 9, 10, 12, 13),
    (0, 1, 2, 4, 5, 6, 7, 10, 11, 14),
    (0, 1, 3, 4, 5, 8, 9, 12, 13, 15),
    (0, 2, 3, 4, 6, 7, 8, 9, 14, 15),
    (0, 2, 3, 6, 7, 8, 9, 11, 14, 15),
    (0, 2, 3, 6, 7, 8, 9, 13, 14, 15),
]


def test_k4_float_support_and_lp_decomposition_are_frozen(k4_decomposition):
    _, dec = k4_decomposition
    assert _float_support(dec.metric) == K4_FLOAT_SUPPORT
    result = is_l1_embeddable(dec.metric, max_points=16)
    assert [(c.members, w) for c, w in result.entries] == [
        (members, Fraction(1, 2)) for members in K4_LP_CUTS
    ]


def test_k4_restricted_solve_counts(k4_decomposition):
    # counts recorded from the dense-B^-1 simplex on the same columns
    _, dec = k4_decomposition
    solver = _Phase1(dec.metric, columns=K4_FLOAT_SUPPORT)
    objective, _ = solver.solve()
    assert objective == 0
    assert (solver.pivots, solver.degenerate_pivots, solver.bland) == (12, 1, False)


def test_k4_float_support_peak_memory(k4_decomposition):
    # the dense float LP that column generation replaced peaked at 160 MB
    _, dec = k4_decomposition
    tracemalloc.start()
    try:
        _float_support(dec.metric)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_k4_cut_indicators_sum_to_twice_the_metric(k4_decomposition):
    _, dec = k4_decomposition
    m = dec.metric
    for i, j in itertools.combinations(range(16), 2):
        crossing = sum(1 for c, _ in dec.entries if c.separates(i, j))
        assert crossing == 2 * m.distance(i, j)
