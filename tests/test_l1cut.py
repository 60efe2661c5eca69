"""Cut-cone membership: decompositions, separating certificates, the LP."""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    OraclePhase1,
    _crossing,
    cut_mask,
    fraction_rows,
    gray_cut_values,
    oracle_against_metric,
    oracle_cut_cone_member,
    oracle_decomposition_fault,
    separates,
)
from test_core import graph_points, graphs_with_points
from thetagap import l1cut
from thetagap.analysis import is_negative_type
from thetagap.core import EdgePoint, FiniteMetric, Vertex, distance_matrix, subdivide
from thetagap.errors import InternalCheckError, PreconditionError
from thetagap.families import (
    FamilySpec,
    from_spec,
    make_random_cactus,
    make_random_connected,
    make_theta,
)
from thetagap.graphio import graph_from_dict
from thetagap.l1cut import (
    Cut,
    CutDecomposition,
    FarkasCertificate,
    _equality_face,
    _float_proposal,
    _Phase1,
    _unique_decomposition,
    is_l1_embeddable,
    k4_explicit_decomposition,
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
        assert cut_mask(c) == mask
        assert Cut.from_mask(5, cut_mask(c)) == c


def test_cut_rejects_improper_sides():
    with pytest.raises(PreconditionError):
        Cut(3, ())
    with pytest.raises(PreconditionError):
        Cut(3, (0, 1, 2))
    with pytest.raises(PreconditionError):
        Cut(3, (1, 2))  # canonical side must contain point zero


def test_cut_separates_and_crossing_pairs():
    c = Cut.from_members(4, [0, 1])
    pairs = list(itertools.combinations(range(4), 2))
    column = l1cut._crossing_block(4, [cut_mask(c)])[:, 0]
    assert column[pairs.index((0, 2))]
    assert not column[pairs.index((0, 1))]
    crossing = [pairs[k] for k in _crossing(cut_mask(c), pairs)]
    assert crossing == [(0, 2), (0, 3), (1, 2), (1, 3)]
    assert [pairs[k] for k in np.flatnonzero(column)] == crossing


# ---------------------------------------------------------------------------
# decompositions
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


def test_triangle_needs_three_half_cuts():
    g = from_spec(FamilySpec(tag="cycle", sizes=(3,)))
    m = distance_matrix(g, [Vertex(v) for v in g.vertices])
    dec = is_l1_embeddable(m)
    assert sorted(w for _, w in dec.entries) == [Fraction(1, 2)] * 3


@st.composite
def cut_combinations(draw, max_points=7):
    """(metric, entries): positive cut weights, among them every singleton
    cut so that each pair is separated, and the metric they sum to, with one
    weight changed half the time.  The weights are drawn at three sizes: the
    integer sums stay in int64 at the first and pass 2^62 at the others."""
    n = draw(st.integers(min_value=2, max_value=max_points))
    size = draw(st.sampled_from([1, 2**40, 2**70]))
    weight = st.builds(
        lambda p, q: Fraction(p * size, q),
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=1, max_value=12),
    )
    masks = [cut_mask(Cut.from_members(n, [i])) for i in range(n)]
    masks += draw(st.lists(st.integers(min_value=0, max_value=2 ** (n - 1) - 2), max_size=6))
    entries = [(Cut.from_mask(n, mask), draw(weight)) for mask in masks]
    rows = [[Fraction(0)] * n for _ in range(n)]
    for cut, w in entries:
        for i, j in itertools.combinations(range(n), 2):
            if separates(cut, i, j):
                rows[i][j] += w
                rows[j][i] += w
    if draw(st.booleans()):
        k = draw(st.integers(min_value=0, max_value=len(entries) - 1))
        factor = Fraction(draw(st.integers(1, 5)), draw(st.integers(1, 5)))
        entries[k] = (entries[k][0], entries[k][1] * factor)
    return FiniteMetric.from_rows(tuple(f"p{i}" for i in range(n)), rows), tuple(entries)


def _assert_decomposition_check_matches_the_oracle(m, entries):
    expected = oracle_decomposition_fault(m, entries)
    if expected is None:
        CutDecomposition(metric=m, entries=entries)
    else:
        with pytest.raises(InternalCheckError) as exc:
            CutDecomposition(metric=m, entries=entries)
        assert str(exc.value) == expected


@settings(max_examples=100, deadline=None)
@given(cut_combinations())
def test_decomposition_check_matches_the_fraction_oracle(case):
    _assert_decomposition_check_matches_the_oracle(*case)


def _tree_edge_cuts(seed):
    """The vertex metric of a 60-vertex random tree and its decomposition:
    one cut per edge, splitting the tree there, weighted by the edge's
    length."""
    g = make_random_connected(60, 59, seed=seed)
    m = _vertex_metric(g)
    index = {v: i for i, v in enumerate(g.vertices)}
    entries = []
    for e in g.edges:
        side, stack = {e.ends[0]}, [e.ends[0]]
        while stack:
            for eid, w, _, _ in g._adjacency[stack.pop()]:
                if eid != e.id and w not in side:
                    side.add(w)
                    stack.append(w)
        entries.append((Cut.from_members(m.size, [index[v] for v in side]), e.length))
    return m, tuple(entries)


@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    change=st.one_of(st.none(), st.tuples(st.integers(0, 58), st.fractions(-1, 1).filter(bool))),
)
def test_decomposition_check_above_20_points_matches_the_fraction_oracle(seed, change):
    m, entries = _tree_edge_cuts(seed)
    if change is not None:
        k, delta = change
        cut, w = entries[k]
        entries = entries[:k] + ((cut, w + delta / 2),) + entries[k + 1 :]
    else:
        assert oracle_decomposition_fault(m, entries) is None
    _assert_decomposition_check_matches_the_oracle(m, entries)


def test_certificate_checks_decide_on_integers_alone(monkeypatch):
    # neither check forms a Fraction or reads a distance as one
    decompositions = [k4_explicit_decomposition()[1], CutDecomposition(*_tree_edge_cuts(3))]
    k23 = from_spec(FamilySpec(tag="complete_bipartite", sizes=(2, 3)))
    farkas = is_l1_embeddable(_vertex_metric(k23))
    assert isinstance(farkas, FarkasCertificate)

    def refuse(*args):
        raise AssertionError("a Fraction was formed")

    monkeypatch.setattr(l1cut, "Fraction", refuse)
    monkeypatch.setattr(FiniteMetric, "distance", refuse)
    for dec in decompositions:
        CutDecomposition(metric=dec.metric, entries=dec.entries)
    FarkasCertificate(metric=farkas.metric, pair_values=farkas.pair_values)


# ---------------------------------------------------------------------------
# crossing sums over every cut: the oracle walk and the limb-split passes
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.data())
def test_gray_walk_visits_every_cut_once_with_correct_sums(n, data):
    pairs = list(itertools.combinations(range(n), 2))
    weights = [
        data.draw(st.integers(min_value=-20, max_value=20)) for _ in pairs
    ]
    seen = {}
    for mask, value in gray_cut_values(n, weights):
        assert mask not in seen
        seen[mask] = value
    assert set(seen) == set(range(2 ** (n - 1) - 1))
    for mask, value in seen.items():
        cut = Cut.from_mask(n, mask)
        direct = sum(
            w for w, p in zip(weights, pairs) if separates(cut, *p)
        )
        assert value == direct


def _uniform_metric(n):
    return FiniteMetric.from_rows(
        tuple(f"p{i}" for i in range(n)),
        [[0 if i == j else 1 for j in range(n)] for i in range(n)],
    )


def _full_lp(m):
    """The exact phase-1 LP over every canonical cut of m."""
    return _Phase1(m, columns=range((1 << (m.size - 1)) - 1))


# Limbs of the real width, where these small weights take one int64 pass,
# and of 3 bits, where they take several limbs combined on Python ints.
LIMB_WIDTHS = pytest.mark.parametrize(
    "limb_bits", [l1cut._LIMB_BITS, 3], ids=["int64", "3_bit_limbs"]
)


@pytest.mark.parametrize("limb_bits", [l1cut._LIMB_BITS, 3], ids=["54_bit_limbs", "3_bit_limbs"])
@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=9), st.data())
def test_cut_scores_equal_the_walk_for_weights_of_any_size(limb_bits, n, data):
    bits = data.draw(st.integers(min_value=0, max_value=300))
    weight = st.integers(min_value=-(1 << bits), max_value=1 << bits)
    weights = data.draw(st.lists(weight, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(l1cut, "_LIMB_BITS", limb_bits)
        scores = l1cut._cut_scores(n, weights)
    assert [int(v) for v in scores] == [
        value for _, value in sorted(gray_cut_values(n, weights))
    ]


@LIMB_WIDTHS
@pytest.mark.parametrize("n", [12, 14])
def test_cut_scores_equal_the_walk_at_12_and_14_points(limb_bits, n):
    rng = random.Random(n)
    top = (1 << l1cut._LIMB_BITS) - 1
    sizes = [0, 1, top, 1 << 54, 1 << 200]
    weights = [
        rng.choice((-1, 1)) * rng.randint(0, rng.choice(sizes)) for _ in range(n * (n - 1) // 2)
    ]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(l1cut, "_LIMB_BITS", limb_bits)
        scores = l1cut._cut_scores(n, weights)
    assert [int(v) for v in scores] == [
        value for _, value in sorted(gray_cut_values(n, weights))
    ]


@LIMB_WIDTHS
def test_cut_scores_at_20_points_equal_the_crossing_block_product(limb_bits):
    # every weight is a full 54-bit limb, so the recurrence's partial sums
    # come nearest the int64 bound; a cut crosses at most 10 x 10 pairs, so
    # the block product's sums stay below 100 * 2^54 < 2^63
    n, full = 20, (1 << 19) - 1
    top = (1 << l1cut._LIMB_BITS) - 1
    weights = np.random.default_rng(20).choice([-top, top], 190)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(l1cut, "_LIMB_BITS", limb_bits)
        scores = l1cut._cut_scores(n, weights.tolist())
    assert len(scores) == full
    for start in range(0, full, 1 << 13):
        masks = np.arange(start, min(start + (1 << 13), full))
        block = l1cut._crossing_block(n, masks).astype(np.int64)
        assert np.array_equal(scores[masks].astype(np.int64), weights @ block)


@LIMB_WIDTHS
@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=3, max_value=7), st.data())
def test_farkas_check_names_the_first_failing_cut_of_the_walk(limb_bits, n, data):
    # the uniform metric is l1, so a vector positive against it is positive
    # on some cut; the check must name the walk's first such cut
    pairs = list(itertools.combinations(range(n), 2))
    weights = [data.draw(st.integers(min_value=-9, max_value=9)) for _ in pairs]
    weights[0] += 1 - min(0, sum(weights))  # positive against the metric
    expected = next(mask for mask, value in gray_cut_values(n, weights) if value > 0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(l1cut, "_LIMB_BITS", limb_bits)
        with pytest.raises(InternalCheckError, match=f"with mask {expected}$"):
            FarkasCertificate(
                metric=_uniform_metric(n), pair_values=tuple(map(Fraction, weights))
            )


def test_cut_scores_build_no_crossing_matrix_above_the_cap(monkeypatch):
    def refuse(n, masks):
        raise AssertionError(f"a crossing block over {n} points was built")

    monkeypatch.setattr(l1cut, "_crossing_block", refuse)
    with pytest.raises(PreconditionError, match="stop at 20"):
        l1cut._cut_scores(21, [1] * 210)
    with pytest.raises(PreconditionError, match="stop at 20"):
        _Phase1(_uniform_metric(21), columns=[0])


# The full exact LP over every cut of the 11 leaves of K1,11, recorded
# before pricing moved from the crossing matrix to the subset-sum recurrence.
STAR11_BASIS = [
    230, 925, 771, 234, 15, 468, 51, 834, 195, 684, 569, 482, 130, 372, 938, 606, 377,
    1, 24, 427, 615, 753, 407, 273, 585, 493, 334, 764, 359, 713, 20, 210, 105, 704,
    912, 692, 268, 826, 805, 987, 608, 240, 863, 93, 416, 679, 117, 900, 967, 204, 430,
    790, 186, 457, 661,
]


def test_exact_routes_build_no_crossing_matrix_of_every_cut(monkeypatch, k4_decomposition):
    block = l1cut._crossing_block

    def refuse(n, masks):
        if len(masks) >= 2 ** (n - 1) - 1:
            raise AssertionError(f"the crossing matrix of every cut over {n} points was built")
        return block(n, masks)

    monkeypatch.setattr(l1cut, "_crossing_block", refuse)
    # a face of at most one cut per pair: the 16-point K4 decomposition, and
    # a 12-point metric refuted by the face LP's dual
    _, dec = k4_decomposition
    result = is_l1_embeddable(dec.metric, max_points=16)
    assert [(c.members, w) for c, w in result.entries] == [
        (members, Fraction(1, 2)) for members in K4_LP_CUTS
    ]
    g = make_random_connected(12, 14, seed=0)
    assert isinstance(is_l1_embeddable(_vertex_metric(g, 12)), FarkasCertificate)
    # 20 points: K2,3's separating vector, padded with zeros, separates any
    # metric containing K2,3's metric from every cut
    k23 = subdivide(from_spec(FamilySpec(tag="complete_bipartite", sizes=(2, 3))), 4)
    m = _vertex_metric(k23, 20)
    five = is_l1_embeddable(_vertex_metric(k23, 5))
    assert isinstance(five, FarkasCertificate)
    values = dict(zip(itertools.combinations(range(5), 2), five.pair_values))
    FarkasCertificate(
        metric=m,
        pair_values=tuple(values.get(p, Fraction(0)) for p in itertools.combinations(range(20), 2)),
    )
    # a face larger than the pairs: every cut of the 11 leaves of K1,11
    star = from_spec(FamilySpec(tag="complete_bipartite", sizes=(1, 11)))
    solver = _full_lp(distance_matrix(star, [Vertex(v) for v in star.vertices[1:]]))
    assert solver.solve()[0] == 0
    assert solver.basis == STAR11_BASIS
    assert (solver.pivots, solver.degenerate_pivots, solver.pricing_scans) == (91, 49, 92)


def test_farkas_check_refuses_more_than_20_points_before_any_walk(monkeypatch):
    def refuse(*args):
        raise AssertionError("the cuts of a 21-point vector were visited")

    monkeypatch.setattr(l1cut, "_cut_scores", refuse)
    g = from_spec(FamilySpec(tag="path", sizes=(21,)))
    m = distance_matrix(g, [Vertex(v) for v in g.vertices])
    values = [Fraction(0)] * (21 * 20 // 2)
    values[0] = Fraction(1)
    with pytest.raises(PreconditionError, match="stop at 20"):
        FarkasCertificate(metric=m, pair_values=tuple(values))


@pytest.mark.parametrize("n", [12, 13, 14])
def test_float_subset_sums_equal_the_int64_sums_exactly(n):
    # the float proposal prices with the exact recurrence in float64; on
    # integer weights every partial sum stays below 2^53, so both agree
    rng = np.random.default_rng(n)
    y = rng.integers(-(2**20), 2**20, n * (n - 1) // 2)
    y[rng.random(len(y)) < 0.2] = 0
    want = l1cut._subset_sums(n, y)
    got = l1cut._subset_sums(n, y.astype(np.float64))
    assert got.dtype == np.float64 and want.dtype == np.int64
    assert np.array_equal(got, want.astype(np.float64))
    assert np.array_equal(want, l1cut._cut_scores(n, y.tolist()))


@LIMB_WIDTHS
def test_farkas_check_accepts_a_separating_vector(monkeypatch, limb_bits):
    monkeypatch.setattr(l1cut, "_LIMB_BITS", limb_bits)
    g = from_spec(FamilySpec(tag="complete_bipartite", sizes=(2, 3)))
    m = distance_matrix(g, [Vertex(v) for v in g.vertices])
    _, dual = _full_lp(m).solve()
    FarkasCertificate(metric=m, pair_values=tuple(dual))


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
    objective, _ = _full_lp(m).solve()
    result = is_l1_embeddable(m, max_points=16)
    assert isinstance(result, CutDecomposition) == (objective == 0)


# Recorded from the dense-B^-1 simplex that sparse rows replaced: objective,
# dual, final basis, Bland switch and pivot counts of the full exact LP.  The
# pricing scan counts (one per pivot plus the final one) were added later.
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
    14, 512, 503, 514, 515, 516, 517, 518, 519, 520, 521, 522, 523, 524, 415, 526, 100,
    357, 495, 341, 531, 532, 485, 142, 535, 536, 537, 5, 15, 540, 541, 542, 543, 544,
    545, 546, 547, 548, 1, 238, 479, 552, 287, 101, 373,
]


@pytest.mark.parametrize(
    "n, seed, streak_limit, objective, dual, basis, bland, pivots, degenerate, scans",
    [
        (12, 0, 30, Fraction(79, 60), CASE1_DUAL, CASE1_BASIS, False, 64, 6, 65),
        (10, 3, 30, Fraction(17, 10), CASE2_DUAL, CASE2_BASIS, False, 57, 20, 58),
        # a short degenerate streak forces the switch to Bland pricing, which
        # ends at the next nondegenerate pivot; 12 of the 69 scans price so
        (10, 3, 2, Fraction(17, 10), CASE2_DUAL, CASE3_BASIS, False, 68, 28, 69),
    ],
    ids=["connected12", "connected10", "connected10_bland"],
)
def test_full_exact_lp_is_frozen(
    monkeypatch, n, seed, streak_limit, objective, dual, basis, bland, pivots, degenerate, scans
):
    monkeypatch.setattr(l1cut, "_DEGENERATE_STREAK_LIMIT", streak_limit)
    g = make_random_connected(n, 14, seed=seed)
    solver = _full_lp(distance_matrix(g, [Vertex(v) for v in g.vertices[:n]]))
    assert solver.solve() == (objective, dual)
    assert solver.basis == basis
    assert solver.bland is bland
    assert (solver.pivots, solver.degenerate_pivots) == (pivots, degenerate)
    assert solver.pricing_scans == scans


@settings(max_examples=60, deadline=None)
@given(graphs_with_points(count=4))
# four coincident points: every cut breaks an equality, so the face is empty
@example((from_spec(FamilySpec(tag="path", sizes=(2,))), [Vertex("v1")] * 4))
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
            (w for cut, w in weights.items() if separates(cut, i, j)), Fraction(0)
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
    result = is_l1_embeddable(dec.metric, max_points=16)
    assert [(c.members, w) for c, w in result.entries] == [
        (members, Fraction(1, 2)) for members in K4_LP_CUTS
    ]
    # the metric is l1-rigid, so the recorded float support is its only one
    assert sorted(cut_mask(c) for c, _ in result.entries) == K4_FLOAT_SUPPORT


def test_k4_restricted_solve_counts(k4_decomposition):
    # counts recorded from the dense-B^-1 simplex on the same columns
    _, dec = k4_decomposition
    solver = _Phase1(dec.metric, columns=K4_FLOAT_SUPPORT)
    objective, _ = solver.solve()
    assert objective == 0
    assert (solver.pivots, solver.degenerate_pivots, solver.bland) == (12, 1, False)
    assert solver.pricing_scans == 13


def test_k4_float_support_peak_memory(k4_decomposition):
    # an earlier dense float LP peaked at 160 MB here; the float proposal
    # keeps a 120 x 120 B^-1 and prices every cut of the 16 points with one
    # subset-sum pass at a time
    _, dec = k4_decomposition
    face = _face(dec.metric)
    tracemalloc.start()
    try:
        support = _float_proposal(dec.metric, face)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert support == K4_FLOAT_SUPPORT


def test_k4_cut_indicators_sum_to_twice_the_metric(k4_decomposition):
    _, dec = k4_decomposition
    m = dec.metric
    for i, j in itertools.combinations(range(16), 2):
        crossing = sum(1 for c, _ in dec.entries if separates(c, i, j))
        assert crossing == 2 * m.distance(i, j)


# ---------------------------------------------------------------------------
# the fraction-free simplex against the Fraction one it replaced
# ---------------------------------------------------------------------------


@st.composite
def random_metrics(draw, min_points=4, max_points=9):
    """A cut combination (in the cut cone) or the shortest-path closure of
    random small pair lengths (mostly outside it, often degenerate)."""
    n = draw(st.integers(min_value=min_points, max_value=max_points))
    pairs = list(itertools.combinations(range(n), 2))
    rows = [[Fraction(0)] * n for _ in range(n)]
    if draw(st.booleans()):
        weights = {Cut.from_members(n, [i]): Fraction(1, 2) for i in range(n)}
        for _ in range(draw(st.integers(min_value=0, max_value=5))):
            mask = draw(st.integers(min_value=0, max_value=2 ** (n - 1) - 2))
            w = draw(st.fractions(min_value=Fraction(1, 4), max_value=2, max_denominator=6))
            cut = Cut.from_mask(n, mask)
            weights[cut] = weights.get(cut, Fraction(0)) + w
        for i, j in pairs:
            rows[i][j] = rows[j][i] = sum(
                (w for cut, w in weights.items() if separates(cut, i, j)), Fraction(0)
            )
    else:
        for i, j in pairs:
            rows[i][j] = rows[j][i] = Fraction(draw(st.integers(min_value=1, max_value=6)))
        for k, i, j in itertools.product(range(n), repeat=3):
            rows[i][j] = min(rows[i][j], rows[i][k] + rows[k][j])
    return FiniteMetric.from_rows(tuple(f"p{i}" for i in range(n)), rows)


def _not_l1(name):
    """A metric outside the cut cone: K2,3's vertices, which are of negative
    type, or the unit theta's witness points, which are not."""
    if name == "k23":
        return _vertex_metric(from_spec(FamilySpec(tag="complete_bipartite", sizes=(2, 3))))
    return construct_witness(make_theta(1, 1, 1)).metric


@settings(max_examples=60, deadline=None)
@given(
    m=st.one_of(
        random_metrics(min_points=2, max_points=6),
        st.sampled_from(["k23", "theta"]).map(_not_l1),
    ),
    data=st.data(),
)
def test_farkas_check_signs_the_metric_like_the_fraction_oracle(m, data):
    # z . d > 0 is decided on integers; past it, the walk's first positive
    # cut is named, and a vector with neither fault is accepted: drawn
    # vectors, or a multiple of the separating vector of a metric not in l1
    bits = data.draw(st.sampled_from([3, 70]))
    result = is_l1_embeddable(m)
    if isinstance(result, FarkasCertificate) and data.draw(st.booleans()):
        factor = Fraction(data.draw(st.integers(1, 1 << bits)), data.draw(st.integers(1, 30)))
        values = tuple(v * factor for v in result.pair_values)
    else:
        values = tuple(
            Fraction(data.draw(st.integers(-(1 << bits), 1 << bits)), data.draw(st.integers(1, 30)))
            for _ in range(m.size * (m.size - 1) // 2)
        )
    if oracle_against_metric(m, values) <= 0:
        expected = "separating vector does not cut off the metric"
    else:
        den = math.lcm(*(v.denominator for v in values))
        ints = [v.numerator * (den // v.denominator) for v in values]
        positive = [mask for mask, value in gray_cut_values(m.size, ints) if value > 0]
        expected = positive and f"separating vector fails on the cut with mask {positive[0]}"
    if not expected:
        FarkasCertificate(metric=m, pair_values=values)
    else:
        with pytest.raises(InternalCheckError) as exc:
            FarkasCertificate(metric=m, pair_values=values)
        assert str(exc.value) == expected


def _assert_same_run(m, columns=None):
    ours = _full_lp(m) if columns is None else _Phase1(m, columns=columns)
    oracle = OraclePhase1(m, columns=columns)
    result = ours.solve()
    assert result == oracle.solve()
    assert ours.basis == oracle.basis
    assert [Fraction(x, d * m.den) for x, d in zip(ours.xs, ours.dens)] == oracle.xb
    assert (ours.pivots, ours.degenerate_pivots, ours.bland) == (
        oracle.pivots,
        oracle.degenerate_pivots,
        oracle.bland,
    )
    if result[0] == 0:
        assert ours.decomposition() == oracle.decomposition()


def _with_limits(streak_limit, limb_bits, m):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(l1cut, "_DEGENERATE_STREAK_LIMIT", streak_limit)
        mp.setattr(l1cut, "_LIMB_BITS", limb_bits)
        _assert_same_run(m)


@LIMB_WIDTHS
@settings(max_examples=25, deadline=None)
@given(m=random_metrics())
def test_integer_simplex_matches_the_fraction_simplex(limb_bits, m):
    _with_limits(30, limb_bits, m)


# Bland pricing takes up to hundreds of pivots from 8 points on, which the
# Fraction simplex needs seconds for, so these runs stop at 7 points.
@LIMB_WIDTHS
@settings(max_examples=12, deadline=None)
@given(m=random_metrics(max_points=7))
def test_integer_simplex_matches_under_bland_pricing(limb_bits, m):
    _with_limits(2, limb_bits, m)


@settings(max_examples=25, deadline=None)
@given(m=random_metrics(), data=st.data())
def test_integer_simplex_matches_on_restricted_columns(m, data):
    masks = st.integers(min_value=0, max_value=2 ** (m.size - 1) - 2)
    _assert_same_run(m, columns=data.draw(st.lists(masks, min_size=1, max_size=12)))


def test_pivots_leave_the_rows_the_entering_cut_misses(monkeypatch):
    pivot = _Phase1._pivot
    untouched = []

    def checked(self, row, entering, direction, price):
        before = [(self.adj[r], self.xs[r], self.dens[r]) for r in range(self.rows)]
        pivot(self, row, entering, direction, price)
        for r, d in enumerate(direction):
            if r != row and d == 0:
                assert self.adj[r] is before[r][0]
                assert (self.xs[r], self.dens[r]) == before[r][1:]
                untouched.append(r)

    monkeypatch.setattr(_Phase1, "_pivot", checked)
    g = make_random_connected(10, 14, seed=3)
    solver = _full_lp(distance_matrix(g, [Vertex(v) for v in g.vertices[:10]]))
    assert solver.solve()[0] == Fraction(17, 10)
    assert untouched


@pytest.mark.parametrize("streak_limit", [30, 2], ids=["steepest", "bland"])
def test_k4_restricted_solve_matches_the_fraction_simplex(
    monkeypatch, k4_decomposition, streak_limit
):
    monkeypatch.setattr(l1cut, "_DEGENERATE_STREAK_LIMIT", streak_limit)
    _, dec = k4_decomposition
    _assert_same_run(dec.metric, columns=K4_FLOAT_SUPPORT)


# ---------------------------------------------------------------------------
# the equality face: decided without a float proposal
# ---------------------------------------------------------------------------


def _vertex_metric(g, count=None):
    return distance_matrix(g, [Vertex(v) for v in g.vertices[:count]])


def _face(m):
    """Masks of the equality face of ``m``: the cuts its tight triples score 0."""
    return np.flatnonzero(_equality_face(m)[1] == 0)


def _face_lp(m):
    """The exact simplex on the equality face of ``m``, run to optimality."""
    solver = _Phase1(m, columns=_face(m).tolist())
    solver.solve()
    return solver


def _refuse_float_proposal(m, face):
    raise AssertionError("a face of at most one cut per pair reached the float proposal")


def _hidden_star(points_on_first_leg=(), legs=4):
    """Points at the leaves of a star whose centre is not a point, edge i
    of length i, so the split of any two leaves from any other two keeps
    every equality: with four legs the three splits sum to the four leaf
    cuts, and the face is dependent."""
    g = graph_from_dict(
        {
            "vertices": ["c"] + [f"l{i}" for i in range(1, legs + 1)],
            "edges": [
                {"id": f"e{i}", "ends": ["c", f"l{i}"], "length": str(i)}
                for i in range(1, legs + 1)
            ],
        }
    )
    extra = [EdgePoint("e1", Fraction(t)) for t in points_on_first_leg]
    return distance_matrix(g, extra + [Vertex(f"l{i}") for i in range(1, legs + 1)])


def _unit_star_leaves(legs):
    """The leaves of K1,legs: no equality holds, so every cut is on the face."""
    g = from_spec(FamilySpec(tag="complete_bipartite", sizes=(1, legs)))
    return distance_matrix(g, [Vertex(v) for v in g.vertices if v != g.vertices[0]])


RIGID = pytest.mark.parametrize(
    "make",
    [
        lambda: k4_explicit_decomposition()[1].metric,
        lambda: _vertex_metric(from_spec(FamilySpec(tag="path", sizes=(12,)))),
        lambda: _vertex_metric(make_random_cactus(8, seed=4), 13),
    ],
    ids=["k4_subdivision", "path12", "cactus13"],
)


@RIGID
def test_unique_decomposition_equals_both_simplex_runs(make):
    m = make()
    restricted = _Phase1(m, columns=_float_proposal(m, _face(m)))
    full = _full_lp(m)
    assert restricted.solve()[0] == full.solve()[0] == 0
    face = _face_lp(m)
    assert face.objective() == 0
    assert face.decomposition().entries == restricted.decomposition().entries
    assert face.decomposition().entries == full.decomposition().entries
    assert _unique_decomposition(m, _face(m)) == face.decomposition()


@RIGID
def test_unique_decomposition_checks_its_lambda_once(monkeypatch, make):
    m = make()
    face = _face(m)
    checks = []
    check = l1cut._reproduction_fault
    monkeypatch.setattr(l1cut, "_reproduction_fault", lambda *a: checks.append(a) or check(*a))
    assert isinstance(_unique_decomposition(m, face), CutDecomposition)
    assert len(checks) == 1


def _refuse_simplex(m, columns):
    raise AssertionError("the exact simplex ran on independent columns")


@RIGID
def test_rigid_metrics_are_decided_without_a_float_proposal(monkeypatch, make):
    # independent face columns with a nonnegative solution: one exact solve
    m = make()
    expected = _face_lp(m).decomposition()
    monkeypatch.setattr(l1cut, "_float_proposal", _refuse_float_proposal)
    monkeypatch.setattr(l1cut, "_Phase1", _refuse_simplex)
    assert is_l1_embeddable(m, max_points=16) == expected


def _face_lp_only(m):
    """``is_l1_embeddable`` with every exact solve turned away, so that the
    face LP decides whatever the negative-type test leaves open."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(l1cut, "_unique_decomposition", lambda m, masks: None)
        return is_l1_embeddable(m)


@st.composite
def cactus_and_connected_points(draw):
    """4-12 points, vertices or points on edges, of a random cactus or a
    random connected graph."""
    seed = draw(st.integers(min_value=0, max_value=10**6))
    if draw(st.booleans()):
        g = make_random_cactus(draw(st.integers(min_value=1, max_value=6)), seed=seed)
    else:
        nv = draw(st.integers(min_value=2, max_value=8))
        g = make_random_connected(nv, nv - 1 + draw(st.integers(min_value=0, max_value=3)), seed)
    count = draw(st.integers(min_value=4, max_value=12))
    return distance_matrix(g, [draw(graph_points(g)) for _ in range(count)])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(m=cactus_and_connected_points())
@example(m=_hidden_star((Fraction(1, 2),)))  # a dependent face
@example(m=_vertex_metric(make_random_connected(5, 8, 18)))  # one solution, negative
@example(m=_vertex_metric(make_random_connected(5, 8, 56)))  # independent, no solution
@example(m=_hidden_star(legs=8))  # more cuts than pairs: 27 proposed, 24 from the face LP
def test_one_exact_solve_returns_the_face_lp_certificate(m):
    # on a face of at most one cut per pair the one exact solve finds the
    # face LP's own decomposition; on a larger face the float proposal may
    # pick another one, so only the verdict must agree there
    routed, alone = is_l1_embeddable(m), _face_lp_only(m)
    assert type(routed) is type(alone)
    if isinstance(routed, FarkasCertificate):
        assert routed.pair_values == alone.pair_values
    elif len(_face(m)) <= m.size * (m.size - 1) // 2:
        assert routed.entries == alone.entries


def _wrong_lstsq(C, d, rcond=None):
    # full rank, no residual, and weights that solve nothing
    k = C.shape[1]
    return np.ones(k), np.zeros(1), k, np.ones(k)


@pytest.mark.parametrize(
    "nv, ne, seed, face_size, reached",
    [
        (5, 7, 16, 8, []),  # the rank proof fails, so nothing is solved
        (5, 8, 18, 8, ["solve"]),  # the solution has a negative weight
        (5, 8, 56, 6, ["solve", "check"]),  # the solution misses the metric
    ],
    ids=["dependent", "negative_solution", "no_solution"],
)
def test_a_float_screen_passing_a_wrong_lambda_leaves_the_face_lp_to_decide(
    monkeypatch, nv, ne, seed, face_size, reached
):
    m = _vertex_metric(make_random_connected(nv, ne, seed))
    face = _face(m)
    assert len(face) == face_size
    expected = _face_lp_only(m)
    monkeypatch.setattr(np.linalg, "lstsq", _wrong_lstsq)
    calls = []
    for name, tag in (("_solve", "solve"), ("_reproduction_fault", "check")):
        monkeypatch.setattr(
            l1cut, name, lambda *a, f=getattr(l1cut, name), tag=tag: calls.append(tag) or f(*a)
        )
    assert _unique_decomposition(m, face) is None
    assert calls == reached
    assert is_l1_embeddable(m) == expected


@pytest.mark.parametrize(
    "points_on_first_leg, face_size",
    [((), 7), ((Fraction(1, 2),), 8)],
    ids=["more_cuts_than_pairs", "dependent_gram_matrix"],
)
def test_dependent_face_falls_back(points_on_first_leg, face_size):
    # a dependent face still holds every decomposition, so its exact simplex
    # finds one; which one may differ from the full LP's
    m = _hidden_star(points_on_first_leg)
    assert len(_face(m)) == face_size
    assert (face_size > m.size * (m.size - 1) // 2) == (not points_on_first_leg)
    face = _face_lp(m)
    assert face.objective() == 0
    assert isinstance(face.decomposition(), CutDecomposition)
    assert isinstance(is_l1_embeddable(m), CutDecomposition)


@pytest.mark.parametrize(
    "make",
    [lambda: _unit_star_leaves(12)] + [lambda k=k: _hidden_star(legs=k) for k in (4, 8, 9, 10, 11)],
    ids=["unit_star12", "star4", "star8", "star9", "star10", "star11"],
)
def test_dependent_face_takes_the_float_proposal_at_any_size(monkeypatch, make):
    # every cut of these leaves is on the face, more cuts than pairs, so the
    # proposal's columns decide with no simplex, whatever the point count
    m = make()
    assert len(_face(m)) == 2 ** (m.size - 1) - 1 > m.size * (m.size - 1) // 2
    proposals = []
    propose = l1cut._float_proposal
    monkeypatch.setattr(
        l1cut, "_float_proposal", lambda m, face: proposals.append(m) or propose(m, face)
    )
    monkeypatch.setattr(l1cut, "_Phase1", _refuse_simplex)
    assert isinstance(is_l1_embeddable(m), CutDecomposition)
    assert proposals == [m]


def _seeded_leaves(seed):
    """12-14 points of a random tree-like graph, its leaves when it has
    enough, drawn as for the float proposal's timing table in CHANGES.md."""
    rng = random.Random(seed)
    nv = rng.randint(20, 40)
    g = make_random_connected(nv, nv + rng.randint(1, 2), seed)
    n = rng.randint(12, 14)
    ends = [end for e in g.edges for end in e.ends]
    pool = [v for v in g.vertices if ends.count(v) == 1]
    points = rng.sample(pool if len(pool) >= n else list(g.vertices), n)
    return distance_matrix(g, [Vertex(v) for v in points])


@pytest.mark.parametrize(
    "make",
    [lambda k=k: _hidden_star(legs=k) for k in (4, 8, 12)]
    + [lambda: _unit_star_leaves(8)]
    + [lambda seed=seed: _seeded_leaves(seed) for seed in (48, 153, 227)],
    ids=["star4", "star8", "star12", "unit_star8", "seed48", "seed153", "seed227"],
)
def test_float_proposal_route_agrees_with_the_face_lp_alone(monkeypatch, make):
    m = make()
    assert len(_face(m)) > m.size * (m.size - 1) // 2
    proposals = []
    propose = l1cut._float_proposal
    monkeypatch.setattr(
        l1cut, "_float_proposal", lambda m, face: proposals.append(propose(m, face)) or proposals[-1]
    )
    routed = is_l1_embeddable(m)
    assert len(proposals) == 1 and proposals[0]
    restricted = _Phase1(m, columns=proposals[0])
    assert restricted.solve()[0] == 0
    assert routed.entries == restricted.decomposition().entries
    monkeypatch.setattr(l1cut, "_float_proposal", lambda m, face: None)
    alone = is_l1_embeddable(m)
    assert type(routed) is type(alone)


def test_star_leaves_leave_bland_pricing_at_the_next_nondegenerate_pivot(monkeypatch):
    # every cut of the 11 leaves of K1,11 is on the face; with Bland pricing
    # kept on from its first trip to the end, this LP took 26 895 pivots
    m = _unit_star_leaves(11)
    assert len(_face(m)) == 2**10 - 1
    solver, priced = _full_lp(m), []
    price = _Phase1._price

    def recorded(solver, y):
        priced.append(solver.bland)
        return price(solver, y)

    monkeypatch.setattr(_Phase1, "_price", recorded)
    assert solver.solve()[0] == 0
    assert isinstance(solver.decomposition(), CutDecomposition)
    assert len(solver.masks) == 2**10 - 1
    assert any(priced) and not all(priced[priced.index(True):])
    assert solver.pivots <= 200


def test_dependent_face_of_at_most_one_cut_per_pair_is_decided_on_the_face(monkeypatch):
    g = make_random_cactus(7, seed=29)
    degree = dict.fromkeys(g.vertices, 0)
    for e in g.edges:
        for end in e.ends:
            degree[end] += 1
    m = distance_matrix(g, [Vertex(v) for v in g.vertices if degree[v] < 3])
    face = _face(m)
    assert (m.size, len(face)) == (12, 29)
    columns = l1cut._crossing_block(m.size, face).astype(float)
    assert np.linalg.matrix_rank(columns) < len(face)
    monkeypatch.setattr(l1cut, "_float_proposal", _refuse_float_proposal)
    assert isinstance(is_l1_embeddable(m), CutDecomposition)


def test_infeasible_face_is_refuted_by_the_face_lp_alone(monkeypatch):
    g = make_random_connected(12, 15, seed=19)
    unit = graph_from_dict(
        {
            "vertices": list(g.vertices),
            "edges": [{"id": e.id, "ends": list(e.ends), "length": "1"} for e in g.edges],
        }
    )
    m = _vertex_metric(unit)
    assert m.size == 12 and is_negative_type(m).verdict
    assert len(_face(m)) == 9
    assert _face_lp(m).objective() > 0

    def face_only(m, columns=None):
        if columns is None or len(columns) == 2 ** (m.size - 1) - 1:
            raise AssertionError("an all-cuts LP was built")
        return _Phase1(m, columns)

    monkeypatch.setattr(l1cut, "_Phase1", face_only)
    monkeypatch.setattr(l1cut, "_float_proposal", _refuse_float_proposal)
    result = is_l1_embeddable(m)
    assert isinstance(result, FarkasCertificate)
    assert FarkasCertificate(metric=m, pair_values=result.pair_values) == result


def test_equality_face_past_int64_is_the_same_face():
    m = _vertex_metric(make_random_cactus(8, seed=4), 13)
    scale = 2**70
    big = FiniteMetric.from_rows(m.labels, [[x * scale for x in row] for row in fraction_rows(m)])
    assert 2 * max(map(max, big.D)) >= l1cut._INT64_SAFE
    assert _equality_face(big)[0] == _equality_face(m)[0]
    assert _face(big).tolist() == _face(m).tolist()
    assert _face_lp(big).decomposition().entries == tuple(
        (cut, w * scale) for cut, w in _face_lp(m).decomposition().entries
    )


@st.composite
def tree_metrics(draw, min_points=4, max_points=11):
    """Distances between some vertices of a random tree with integer edge
    lengths; a branching vertex left out of the points makes the face
    dependent, as in ``_hidden_star``."""
    size = draw(st.integers(min_value=min_points, max_value=max_points + 4))
    up = [{0: 0}]  # up[v]: each ancestor of v (v included) and its distance
    for v in range(1, size):
        parent = draw(st.integers(min_value=0, max_value=v - 1))
        length = draw(st.integers(min_value=1, max_value=5))
        up.append({v: 0, **{a: d + length for a, d in up[parent].items()}})
    points = draw(
        st.lists(
            st.integers(min_value=0, max_value=size - 1),
            min_size=min_points,
            max_size=max_points,
            unique=True,
        )
    )
    rows = [
        [min(up[u][a] + up[v][a] for a in up[u].keys() & up[v].keys()) for v in points]
        for u in points
    ]
    return FiniteMetric.from_rows(tuple(f"t{v}" for v in points), rows)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(m=st.one_of(random_metrics(max_points=11), tree_metrics()))
def test_equality_face_holds_every_decomposition(m):
    full = _full_lp(m)
    objective, _ = full.solve()
    face = _face(m)
    face_lp = _face_lp(m)
    # the face decides membership whether or not its columns are independent
    assert (face_lp.objective() == 0) == (objective == 0)
    if objective != 0:
        # the face LP's dual, moved off the face, separates the metric, as
        # its constructor checks exactly
        vector = l1cut._separating_vector(face_lp, *_equality_face(m))
        FarkasCertificate(metric=m, pair_values=vector)
        return
    dec = full.decomposition()
    assert {cut_mask(cut) for cut, _ in dec.entries} <= set(face.tolist())
    face_dec = face_lp.decomposition()  # checked exactly by its constructor
    columns = l1cut._crossing_block(m.size, face).astype(float)
    if np.linalg.matrix_rank(columns) == len(face):
        assert face_dec.entries == dec.entries
