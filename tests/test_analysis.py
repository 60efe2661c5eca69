"""Negative-type decisions, gap brackets, and eigenvalue counts."""

import contextlib
import io
import itertools
import json
import math
import random
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    gram_matrix,
    oracle_argmax,
    oracle_ascend,
    oracle_eliminate,
    oracle_gap_lower,
    oracle_psd_decompose,
    oracle_snap_candidates,
    fraction_rows,
    oracle_transcript_verify,
    scaled,
)
from test_core import connected_graphs, graph_points, graphs_with_points, rational_metrics
from thetagap import analysis, dumps_graph, dumps_points
from thetagap.analysis import (
    ChainReport,
    GapBracket,
    NegativeTypeResult,
    PSDTranscript,
    Weighting,
    _ascend_all,
    _best_vector,
    _block_scorer,
    _eliminate,
    _factor_certifies,
    _float_directions,
    _float_snap,
    _gram_array,
    _mu_certifies,
    _mu_ladder,
    _proposed_violation,
    _scaled_gram,
    _score,
    _snap_block,
    _snap_scores,
    _spectral_bound,
    _weighting_of,
    check_chain,
    gamma,
    gap_bracket,
    is_negative_type,
    positive_eigenvalue_count,
    psd_decompose,
)
from thetagap.cli import main
from thetagap.core import EdgePoint, FiniteMetric, Vertex, distance_matrix, subdivide
from thetagap.errors import InternalCheckError, PreconditionError
from thetagap.families import (
    FamilySpec,
    from_spec,
    make_random_cactus,
    make_random_connected,
    make_theta,
)
from thetagap.l1cut import k4_explicit_decomposition
from thetagap.witness import construct_witness

# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def two_point():
    return FiniteMetric.from_rows(("p", "q"), [[0, 1], [1, 0]])


@pytest.fixture(scope="module")
def c4_metric():
    g = from_spec(FamilySpec(tag="cycle", sizes=(4,)))
    return distance_matrix(g, [Vertex(v) for v in g.vertices])


@pytest.fixture(scope="module")
def witness_metric():
    return construct_witness(make_theta(1, 1, 1)).metric


@st.composite
def balanced_weightings(draw, n, max_denominator=6):
    raw = [
        draw(st.fractions(min_value=-3, max_value=3, max_denominator=max_denominator))
        for _ in range(n - 1)
    ]
    raw.append(-sum(raw))
    if all(v == 0 for v in raw):
        raw[0], raw[-1] = Fraction(1), raw[-1] - 1
    return Weighting.from_map(dict(enumerate(raw)))


@st.composite
def metrics_with_weightings(draw):
    g, pts = draw(graphs_with_points(count=4))
    m = distance_matrix(g, pts)
    return m, draw(balanced_weightings(m.size))


# ---------------------------------------------------------------------------
# weightings and their energy
# ---------------------------------------------------------------------------


def test_weighting_drops_zeros_and_sorts():
    w = Weighting.from_map({3: Fraction(1, 2), 0: Fraction(-1, 2), 5: 0})
    assert w.entries == ((0, Fraction(-1, 2)), (3, Fraction(1, 2)))
    assert w.total == 0
    assert w.total_mass == 1
    assert list(w.as_dense(6)) == [
        Fraction(-1, 2),
        Fraction(0),
        Fraction(0),
        Fraction(1, 2),
        Fraction(0),
        Fraction(0),
    ]


def test_weighting_rejects_unsorted_or_zero_entries():
    with pytest.raises(PreconditionError):
        Weighting(((2, Fraction(1)), (1, Fraction(-1))))
    with pytest.raises(PreconditionError):
        Weighting(((0, Fraction(0)),))


def test_gamma_two_point_extremes(two_point):
    # a balanced split has negative energy: two points are negative type
    w = Weighting.from_map({0: Fraction(1, 2), 1: Fraction(-1, 2)})
    assert gamma(two_point, w) == Fraction(-1, 4)
    same_sign = Weighting.from_map({0: Fraction(1, 2), 1: Fraction(1, 2)})
    assert gamma(two_point, same_sign) == Fraction(1, 4)


def test_gamma_rejects_out_of_range_support(two_point):
    w = Weighting.from_map({0: Fraction(1, 2), 7: Fraction(-1, 2)})
    with pytest.raises(PreconditionError):
        gamma(two_point, w)


@st.composite
def wide_metrics_with_weightings(draw):
    labels, rows = draw(rational_metrics(max_denominator=10**4))
    m = FiniteMetric.from_rows(labels, rows)
    return m, draw(balanced_weightings(m.size, max_denominator=10**6))


@settings(max_examples=60, deadline=None)
@given(st.one_of(metrics_with_weightings(), wide_metrics_with_weightings()))
def test_gamma_matches_direct_double_sum(case):
    m, w = case
    dense = w.as_dense(m.size)
    expected = (
        sum(
            dense[i] * dense[j] * m.distance(i, j)
            for i in range(m.size)
            for j in range(m.size)
        )
        / 2
    )
    assert gamma(m, w) == expected


@settings(max_examples=50, deadline=None)
@given(metrics_with_weightings())
def test_gamma_equals_negative_gram_energy(case):
    # the basepoint Gram matrix linearizes the energy of balanced weightings
    m, w = case
    b = m.size - 1
    gram = gram_matrix(m, b)
    dense = w.as_dense(m.size)
    quad = sum(
        dense[j] * dense[k] * gram[j][k] for j in range(b) for k in range(b)
    )
    assert gamma(m, w) == -quad


# ---------------------------------------------------------------------------
# exact semidefinite factorization
# ---------------------------------------------------------------------------


def test_psd_decompose_accepts_gram_of_line():
    m = FiniteMetric.from_rows(
        ("a", "b", "c"), [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    )
    ok, transcript = psd_decompose(*scaled(gram_matrix(m)))
    assert ok
    assert transcript.verify(*scaled(gram_matrix(m)))


def test_psd_transcript_rejects_tampering():
    m = FiniteMetric.from_rows(
        ("a", "b", "c"), [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    )
    gram = gram_matrix(m)
    _, transcript = psd_decompose(*scaled(gram))
    bumped = [row[:] for row in gram]
    bumped[0][0] += 1
    assert not transcript.verify(*scaled(bumped))


def test_psd_decompose_refutes_indefinite_matrix():
    matrix = [
        [Fraction(0), Fraction(1)],
        [Fraction(1), Fraction(0)],
    ]
    ok, x = psd_decompose(*scaled(matrix))
    assert not ok
    energy = sum(
        x[i] * x[j] * matrix[i][j] for i in range(2) for j in range(2)
    )
    assert energy < 0


def test_psd_decompose_rejects_asymmetric_input():
    with pytest.raises(PreconditionError):
        psd_decompose([[1, 2], [0, 1]], 1)


# ---------------------------------------------------------------------------
# the integer elimination against the Fraction elimination it replaced
# ---------------------------------------------------------------------------

# small denominators, and the 2^k denominators of floats such as a float mu
_DENOMINATORS = st.sampled_from([1, 2, 3, 4, 6, 7, 12, 2**10, 2**30, 2**52])


@st.composite
def _rationals(draw, bound=20):
    return Fraction(draw(st.integers(-bound, bound)), draw(_DENOMINATORS))


@st.composite
def metric_grams(draw):
    labels, rows = draw(rational_metrics(max_points=7))
    return gram_matrix(FiniteMetric.from_rows(labels, rows))


@st.composite
def low_rank_psd(draw):
    # V V^T with rank below the size, then a trailing zero block
    n = draw(st.integers(min_value=1, max_value=6))
    r = draw(st.integers(min_value=0, max_value=n - 1))
    V = [[draw(_rationals(bound=5)) for _ in range(r)] for _ in range(n)]
    zeros = draw(st.integers(min_value=0, max_value=2))
    size = n + zeros
    return [
        [
            sum((V[i][t] * V[j][t] for t in range(r)), Fraction(0))
            if i < n and j < n
            else Fraction(0)
            for j in range(size)
        ]
        for i in range(size)
    ]


@st.composite
def symmetric_matrices(draw):
    # mostly indefinite, with mixed denominators
    n = draw(st.integers(min_value=0, max_value=6))
    M = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            M[i][j] = M[j][i] = draw(_rationals())
    return M


@st.composite
def shifted_gap_forms(draw):
    # the matrices of the certified-mu ladder: mu M2 + G / den, float mu
    labels, rows = draw(rational_metrics(max_points=7))
    m = FiniteMetric.from_rows(labels, rows)
    n = m.size
    assume(n >= 2)
    D, den = m.D, m.den
    G = [[D[i][n - 1] + D[j][n - 1] - D[i][j] for j in range(n - 1)] for i in range(n - 1)]
    scale = float(n * m.diameter()) + 1
    mu = Fraction(draw(st.floats(min_value=-scale, max_value=scale)))
    return G, den, mu


_MATRICES = st.one_of(metric_grams(), low_rank_psd(), symmetric_matrices())


@settings(max_examples=200, deadline=None)
@given(_MATRICES)
def test_psd_decompose_matches_fraction_elimination(matrix):
    A, scale = scaled(matrix)
    got = psd_decompose(A, scale)
    assert got == oracle_psd_decompose(matrix)
    assert (_eliminate(A).direction is None) == got[0]


@settings(max_examples=100, deadline=None)
@given(shifted_gap_forms())
def test_mu_rung_verdict_matches_fraction_elimination(case):
    G, den, mu = case
    shifted = [
        [mu * (2 if i == j else 1) + Fraction(x, den) for j, x in enumerate(row)]
        for i, row in enumerate(G)
    ]
    assert _mu_certifies(G, den, mu) == oracle_psd_decompose(shifted)[0]


@st.composite
def integer_symmetric_matrices(draw):
    # one block of each kind, joined diagonally and then conjugated by a
    # permutation, so pivots move entries across the diagonal
    def integers(bound):
        return st.integers(-bound, bound)

    blocks = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        kind = draw(st.sampled_from(["psd", "low_rank", "indefinite", "hollow"]))
        n = draw(st.integers(min_value=1, max_value=5))
        if kind in ("psd", "low_rank"):
            r = n if kind == "psd" else draw(st.integers(min_value=0, max_value=n - 1))
            V = [[draw(integers(6)) for _ in range(r)] for _ in range(n)]
            B = [[sum(V[i][t] * V[j][t] for t in range(r)) for j in range(n)] for i in range(n)]
        else:
            B = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + (kind == "hollow")):
                    B[i][j] = B[j][i] = draw(integers(30))
        blocks.append(B)
    size = sum(map(len, blocks))
    M = [[0] * size for _ in range(size)]
    at = 0
    for B in blocks:
        for i, row in enumerate(B):
            M[at + i][at : at + len(B)] = row
        at += len(B)
    order = draw(st.permutations(range(size)))
    return [[M[i][j] for j in order] for i in order]


@settings(max_examples=300, deadline=None)
@given(integer_symmetric_matrices())
def test_lower_triangle_elimination_matches_the_two_triangle_one(A):
    perm, pivots, S, direction = oracle_eliminate(A)
    el = _eliminate([row[: i + 1] for i, row in enumerate(A)])
    assert (el.perm, el.pivots, el.direction) == (perm, pivots, direction)
    assert el.S == [row[: i + 1] for i, row in enumerate(S)]


@settings(max_examples=50, deadline=None)
@given(rational_metrics(max_points=9))
def test_first_dyadic_mu_rung_certifies(case):
    m = FiniteMetric.from_rows(*case)
    assume(m.size >= 2)
    first = next(_mu_ladder(m, _scaled_gram(m, None)[0]))
    assert gap_bracket(m, starts=0).spectral_mu == first
    # a dyadic rational of about 32 significant bits
    assert first.denominator & (first.denominator - 1) == 0
    assert abs(first.numerator).bit_length() <= 34


def test_gap_bracket_replays_the_mu_test(witness_metric):
    m = witness_metric
    bracket = gap_bracket(m, starts=2)
    below = bracket.spectral_mu - Fraction(1, 2**20)
    assert not _mu_certifies(_scaled_gram(m, None)[0], m.den, below)
    # every other field stays consistent with the lowered mu
    spectral = _spectral_bound(below, m.size)
    fields = dict(bracket.__dict__, spectral_mu=below, upper_spectral=spectral)
    fields["upper"] = min(spectral, bracket.upper_diameter)
    with pytest.raises(InternalCheckError, match="spectral_mu does not bound"):
        GapBracket(**fields)


def test_gap_bracket_moves_past_a_rung_that_fails_the_mu_test(monkeypatch, witness_metric):
    # mu = 0 fails, and its upper bound 0 is below the witness's lower bound,
    # so only a mu test ahead of the emptiness check lets the ladder go on
    m = witness_metric
    ladder = list(_mu_ladder(m, _scaled_gram(m, None)[0]))
    monkeypatch.setattr(analysis, "_mu_ladder", lambda *_: iter([Fraction(0), *ladder]))
    assert gap_bracket(m, starts=2).spectral_mu == ladder[0]
    monkeypatch.setattr(analysis, "_mu_ladder", lambda *_: iter([Fraction(0)]))
    with pytest.raises(InternalCheckError, match="spectral_mu does not bound"):
        gap_bracket(m, starts=2)


# ---------------------------------------------------------------------------
# the integer factor that proves mu, with the elimination as fallback
# ---------------------------------------------------------------------------


@st.composite
def near_singular_matrices(draw):
    """V V^T + t I with V of rank at most the size and entries up to 2^20,
    and t a multiple of the factor's shift sigma: around the margin where
    the factor stops deciding, on both sides of singular."""
    n = draw(st.integers(min_value=1, max_value=8))
    r = draw(st.integers(min_value=0, max_value=n))
    V = [[draw(st.integers(-(2**20), 2**20)) for _ in range(r)] for _ in range(n)]
    M = [[sum(V[i][k] * V[j][k] for k in range(r)) for j in range(n)] for i in range(n)]
    sigma = max(max(M[i][i] for i in range(n)) >> 30, 1)
    t = draw(st.sampled_from([-4, -1, 0, 1, 2, 4, 16, 64])) * sigma
    for i in range(n):
        M[i][i] += t
    return M


@settings(max_examples=300, deadline=None)
@given(st.one_of(integer_symmetric_matrices(), near_singular_matrices()))
def test_integer_factor_accepts_only_semidefinite_matrices(A):
    if _factor_certifies([row[: i + 1] for i, row in enumerate(A)]):
        assert oracle_psd_decompose(A)[0]


def _count_eliminations(monkeypatch):
    """The sizes of the matrices ``_eliminate`` is called on from now on."""
    calls = []
    eliminate = analysis._eliminate

    def spy(S):
        calls.append(len(S))
        return eliminate(S)

    monkeypatch.setattr(analysis, "_eliminate", spy)
    return calls


def test_tight_mu_falls_back_to_one_elimination(monkeypatch, two_point):
    # mu = -d leaves S = 0, which the factor cannot decide; the bracket is
    # tight at -d/4 and the elimination still certifies it
    calls = _count_eliminations(monkeypatch)
    quarter = Fraction(1, 4)
    GapBracket(
        metric=two_point,
        lower=-quarter,
        weighting=Weighting.from_map({0: Fraction(1, 2), 1: Fraction(-1, 2)}),
        upper=-quarter,
        upper_spectral=-quarter,
        upper_diameter=quarter,
        spectral_mu=Fraction(-1),
    )
    assert calls == [1]


def _tampered(matrix, t, what, a, b, delta):
    n = len(t.perm)
    if what == "matrix":
        bumped = [row[:] for row in matrix]
        bumped[a % n][b % n] += delta
        if a % n != b % n:
            bumped[b % n][a % n] += delta
        return bumped, t
    if what == "perm":
        perm = list(t.perm)
        perm[a % n], perm[b % n] = perm[b % n], perm[a % n]
        return matrix, PSDTranscript(tuple(perm), t.diag, t.lower)
    if what == "diag":
        diag = list(t.diag)
        diag[a % n] += delta
        return matrix, PSDTranscript(t.perm, tuple(diag), t.lower)
    lower = [list(row) for row in t.lower]
    i, j = max(a % n, b % n), min(a % n, b % n)
    lower[i][j] += delta
    return matrix, PSDTranscript(t.perm, t.diag, tuple(tuple(row) for row in lower))


@st.composite
def zero_pivot_transcripts(draw):
    # L D L^T with zero pivots anywhere, so free columns of L: valid for the
    # product check, though psd_decompose never pivots on a zero
    n = draw(st.integers(min_value=1, max_value=6))
    perm = draw(st.permutations(range(n)))
    diag = [draw(st.sampled_from([Fraction(0), Fraction(1), Fraction(5, 3)])) for _ in range(n)]
    lower = [
        [Fraction(1) if i == j else draw(_rationals(bound=4)) if j < i else Fraction(0) for j in range(n)]
        for i in range(n)
    ]
    product = [
        [sum((lower[i][k] * diag[k] * lower[j][k] for k in range(n)), Fraction(0)) for j in range(n)]
        for i in range(n)
    ]
    matrix = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            matrix[perm[i]][perm[j]] = product[i][j]
    transcript = PSDTranscript(tuple(perm), tuple(diag), tuple(tuple(row) for row in lower))
    return matrix, transcript


@st.composite
def transcripts(draw):
    if draw(st.booleans()):
        return draw(zero_pivot_transcripts())
    matrix = draw(st.one_of(metric_grams(), low_rank_psd()))
    ok, transcript = oracle_psd_decompose(matrix)
    assume(ok)
    return matrix, transcript


@settings(max_examples=300, deadline=None)
@given(
    transcripts(),
    st.sampled_from(["matrix", "perm", "diag", "lower"]),
    st.integers(min_value=0, max_value=10),
    st.integers(min_value=0, max_value=10),
    st.sampled_from([Fraction(1), Fraction(-1, 3), Fraction(1, 2**40)]),
)
def test_transcript_replay_matches_product_check(case, what, a, b, delta):
    matrix, transcript = case
    assert transcript.verify(*scaled(matrix))
    assert oracle_transcript_verify(transcript, matrix)
    assume(transcript.perm)
    matrix, tampered = _tampered(matrix, transcript, what, a, b, delta)
    assert tampered.verify(*scaled(matrix)) == oracle_transcript_verify(tampered, matrix)


@settings(max_examples=100, deadline=None)
@given(
    rational_metrics(max_points=7),
    st.sampled_from(["perm", "diag", "lower"]),
    st.integers(min_value=0, max_value=10),
    st.integers(min_value=0, max_value=10),
    st.sampled_from([Fraction(1), Fraction(-1, 3), Fraction(1, 2**40)]),
)
def test_gram_replay_on_integers_matches_the_rational_one(case, what, a, b, delta):
    m = FiniteMetric.from_rows(*case)
    assume(m.size >= 2)
    basepoint = a % m.size
    gram = gram_matrix(m, basepoint)
    A, scale = _scaled_gram(m, basepoint)
    ok, transcript = psd_decompose(A, scale)
    assume(ok)
    assert transcript.verify(A, scale)
    _, tampered = _tampered(gram, transcript, what, a, b, delta)
    assert tampered.verify(A, scale) == oracle_transcript_verify(tampered, gram)


@settings(max_examples=60, deadline=None)
@given(rational_metrics(max_points=7), st.integers(min_value=0, max_value=6), st.booleans())
def test_gram_array_matches_the_fraction_gram_at_every_basepoint(case, b, huge):
    labels, rows = case
    if huge:  # entries past int64 take the Python-int array
        rows = [[x * 2**70 for x in row] for row in rows]
    m = FiniteMetric.from_rows(labels, rows)
    basepoint = b % m.size
    A, scale = _scaled_gram(m, basepoint)
    assert scale == 2 * m.den
    assert [[Fraction(x, scale) for x in row] for row in A] == gram_matrix(m, basepoint)
    assert all(type(x) is int for row in A for x in row)


def test_transcript_zero_pivot_leaves_its_column_free():
    # P A P^T = L D L^T with d_1 = 0: L_21 is free, L_20 is not
    matrix = [[Fraction(2), Fraction(0), Fraction(4)],
              [Fraction(0), Fraction(0), Fraction(0)],
              [Fraction(4), Fraction(0), Fraction(11)]]
    diag = (Fraction(2), Fraction(0), Fraction(3))
    lower = ((Fraction(1), Fraction(0), Fraction(0)),
             (Fraction(0), Fraction(1), Fraction(0)),
             (Fraction(2), Fraction(7, 3), Fraction(1)))
    transcript = PSDTranscript((0, 1, 2), diag, lower)
    assert transcript.verify(*scaled(matrix)) and oracle_transcript_verify(transcript, matrix)
    moved = (lower[0], lower[1], (Fraction(2), Fraction(-5), Fraction(1)))
    assert PSDTranscript((0, 1, 2), diag, moved).verify(*scaled(matrix))
    broken = (lower[0], lower[1], (Fraction(3), Fraction(7, 3), Fraction(1)))
    assert not PSDTranscript((0, 1, 2), diag, broken).verify(*scaled(matrix))
    assert not oracle_transcript_verify(PSDTranscript((0, 1, 2), diag, broken), matrix)
    # a zero pivot whose column is not zero factors nothing
    coupled = [row[:] for row in matrix]
    coupled[1][2] = coupled[2][1] = Fraction(1)
    assert not transcript.verify(*scaled(coupled))
    assert not oracle_transcript_verify(transcript, coupled)


def test_transcript_rejects_a_perm_that_is_not_a_permutation():
    matrix = [[1, 5], [5, 1]]
    assert not psd_decompose(matrix, 1)[0]
    bogus = PSDTranscript(
        perm=(0, 0),
        diag=(Fraction(1), Fraction(0)),
        lower=((Fraction(1), Fraction(0)), (Fraction(1), Fraction(1))),
    )
    assert not bogus.verify(matrix, 1)


def test_transcript_rejects_a_diag_of_the_wrong_length():
    matrix = [[1, 0], [0, 1]]
    ok, transcript = psd_decompose(matrix, 1)
    assert ok and transcript.verify(matrix, 1)
    short = PSDTranscript(transcript.perm, transcript.diag[:1], transcript.lower)
    assert not short.verify(matrix, 1)
    long = PSDTranscript(transcript.perm, transcript.diag + (Fraction(1),), transcript.lower)
    assert not long.verify(matrix, 1)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-1, max_value=1, allow_subnormal=False), min_size=2, max_size=12
    )
)
def test_snap_candidates_match_fraction_projection(values):
    v = np.array(values)
    rows = [_float_snap(v)] + _snap_block(v[None]).tolist()
    assert [_weighting_of(c) for c in rows if any(c)] == list(oracle_snap_candidates(v))


@st.composite
def snap_rows(draw):
    """1-6 float rows of 2-9 entries: uniform draws, dyadic entries whose
    products with some denominators are exactly half-way, and constant rows,
    which centre to zero."""
    n = draw(st.integers(2, 9))
    entry = st.floats(min_value=-1, max_value=1, allow_subnormal=False)
    half_way = st.sampled_from([0.5, -0.5, 0.25, -0.25, 0.125, 0.0])
    rows = []
    for kind in draw(st.lists(st.sampled_from(["uniform", "half", "constant"]), min_size=1, max_size=6)):
        if kind == "constant":
            rows.append([draw(st.sampled_from([0.0, 0.5, 1 / 3, -0.25]))] * n)
        else:
            rows.append(draw(st.lists(entry if kind == "uniform" else half_way, min_size=n, max_size=n)))
    return np.array(rows)


@settings(max_examples=60, deadline=None)
@given(snap_rows())
def test_snap_block_matches_one_denominator_at_a_time(E):
    # each denominator's rows as Python's round of each float product gives
    # them, in the order of the denominators
    n = E.shape[1]
    want = []
    for q in analysis._SNAP_DENOMINATORS:
        for v in E.tolist():
            a = [round(x * q) for x in v]
            want.append([n * x - sum(a) for x in a])
    block = _snap_block(E)
    assert block.dtype == np.int64
    assert block.tolist() == want


def test_snap_block_rounds_half_way_products_to_even():
    # 2 * 0.25 = 0.5 rounds to 0, 5 * 0.5 = 2.5 to 2 and 5 * 0.25 = 1.25 to 1;
    # a constant row centres to zero at every denominator
    E = np.array([[0.5, -0.5, 0.25, -0.25], [1 / 3] * 4])
    block = _snap_block(E).reshape(len(analysis._SNAP_DENOMINATORS), 2, 4)
    at = analysis._SNAP_DENOMINATORS.index
    assert block[at(2), 0].tolist() == [4, -4, 0, 0]
    assert block[at(5), 0].tolist() == [8, -8, 4, -4]
    assert not block[:, 1].any()


# ---------------------------------------------------------------------------
# negative-type decisions
# ---------------------------------------------------------------------------


def test_negative_type_on_cycle(c4_metric):
    result = is_negative_type(c4_metric)
    assert result.verdict
    assert result.violation is None and result.energy is None
    assert result.transcript.verify(*scaled(gram_matrix(c4_metric, result.basepoint)))


def test_negative_type_refuted_on_witness_metric(witness_metric):
    result = is_negative_type(witness_metric)
    assert not result.verdict
    w = result.violation
    assert w.total == 0
    assert w.total_mass == 1
    assert result.energy == gamma(witness_metric, w) > 0


def test_negative_type_verdict_is_scale_invariant(witness_metric, c4_metric):
    for m, expected in ((witness_metric, False), (c4_metric, True)):
        scaled = FiniteMetric.from_rows(
            m.labels, [[7 * d for d in row] for row in fraction_rows(m)]
        )
        assert is_negative_type(scaled).verdict is expected


@settings(max_examples=30, deadline=None)
@given(graphs_with_points(count=5), st.randoms(use_true_random=False))
def test_negative_type_verdict_is_permutation_invariant(case, rng):
    g, pts = case
    m = distance_matrix(g, pts)
    perm = list(range(m.size))
    rng.shuffle(perm)
    shuffled = FiniteMetric.from_rows(
        tuple(m.labels[p] for p in perm),
        [[m.distance(perm[i], perm[j]) for j in range(m.size)] for i in range(m.size)],
    )
    assert is_negative_type(shuffled).verdict == is_negative_type(m).verdict


def test_trivial_metrics_are_negative_type():
    one = FiniteMetric.from_rows(("a",), [[0]])
    assert is_negative_type(one).verdict


def _elimination_result(m):
    """The decision of the elimination alone, normalized over Fractions."""
    b = m.size - 1
    ok, payload = psd_decompose(*_scaled_gram(m, b))
    if ok:
        return NegativeTypeResult(verdict=True, basepoint=b, transcript=payload, violation=None)
    x = list(payload)
    raw = Weighting.from_map({**dict(enumerate(x)), b: -sum(x, Fraction(0))})
    w = Weighting.from_map({i: v / raw.total_mass for i, v in raw.entries})
    return NegativeTypeResult(
        verdict=False, basepoint=b, transcript=None, violation=w, energy=gamma(m, w)
    )


@st.composite
def negtype_cases(draw):
    """A metric of up to 12 points and, for points on a graph, (graph, points).

    Points on a graph may repeat.  On a theta they start from the six
    points of its witness, which refute negative type unless the points
    drawn after them hide it.  Hamming metrics on a few bits are of negative
    type with singular Gram matrices; closures of random weights are mostly
    not of negative type from a few points on."""
    kind = draw(st.sampled_from(("graph", "theta", "closure", "hamming")))
    if kind in ("graph", "theta"):
        pts = []
        if kind == "graph":
            g = draw(connected_graphs())
        else:
            g = make_theta(*(draw(st.integers(min_value=1, max_value=4)) for _ in range(3)))
            w = construct_witness(g)
            pts = list(w.b_points + w.r_points)
        for _ in range(draw(st.integers(min_value=1, max_value=12 - len(pts)))):
            repeat = pts and draw(st.integers(min_value=0, max_value=3)) == 0
            pts.append(draw(st.sampled_from(pts)) if repeat else draw(graph_points(g)))
        return distance_matrix(g, pts), (g, pts)
    if kind == "closure":
        labels, rows = draw(rational_metrics(max_points=12))
        return FiniteMetric.from_rows(labels, rows), None
    bits = draw(st.integers(min_value=1, max_value=4))
    words = draw(st.lists(st.integers(min_value=0, max_value=2**bits - 1), min_size=1, max_size=12))
    rows = [[bin(a ^ b).count("1") for b in words] for a in words]
    return FiniteMetric.from_rows([format(w, f"0{bits}b") for w in words], rows), None


def _verified_by_the_cli(g, pts):
    with tempfile.TemporaryDirectory() as d:
        graph, points, cert = (f"{d}/{name}.json" for name in ("graph", "points", "cert"))
        with open(graph, "w") as f:
            f.write(dumps_graph(g))
        with open(points, "w") as f:
            f.write(dumps_points(pts))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["negtype", graph, "--points", points, "--out", cert]) == 1
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["verify", cert, graph])
        return code == 0 and json.loads(out.getvalue())["valid"] is True


@settings(max_examples=150, deadline=None)
@given(negtype_cases())
def test_negative_type_verdict_matches_the_elimination(case):
    m, source = case
    result = is_negative_type(m)
    assert result.verdict == psd_decompose(*_scaled_gram(m, None))[0]
    if result.verdict:
        assert result.violation is None and result.energy is None
        return
    w = result.violation
    assert w.total == 0 and w.total_mass == 1
    assert result.energy == gamma(m, w) > 0
    if source is not None:
        assert _verified_by_the_cli(*source)


def _eigen_proposing_nothing(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.ones(len(a)))


def _eigen_proposing_a_unit_vector(monkeypatch):
    # x = 2^k e_0 has x^T G x = 4^k G_00 >= 0, so it never violates
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: -np.ones(len(a)))
    monkeypatch.setattr(np.linalg, "eigh", lambda a: (-np.ones(len(a)), np.eye(len(a))))


@pytest.mark.parametrize("patch", [_eigen_proposing_nothing, _eigen_proposing_a_unit_vector])
def test_a_proposal_that_fails_leaves_the_elimination_output(
    monkeypatch, patch, witness_metric, c4_metric, k4_subdivision_metric
):
    # the unit theta's witness points and five more at offsets j/997
    g = make_theta(1, 1, 1)
    extra = [("e1", 583), ("e1", 262), ("e1", 508), ("e2", 484), ("e3", 389)]
    pts = [Vertex("u"), Vertex("v"), Vertex("v"), EdgePoint("e1", Fraction(1, 12))]
    pts += [EdgePoint("e2", Fraction(11, 12)), EdgePoint("e3", Fraction(11, 12))]
    pts += [EdgePoint(e, Fraction(j, 997)) for e, j in extra]
    metrics = [witness_metric, c4_metric, k4_subdivision_metric, distance_matrix(g, pts)]
    expected = [_elimination_result(m) for m in metrics]
    assert [r.verdict for r in expected] == [False, True, True, False]
    patch(monkeypatch)
    assert [is_negative_type(m) for m in metrics] == expected


def _refuse_elimination(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the elimination ran")

    monkeypatch.setattr(analysis, "psd_decompose", refuse)


def test_proposal_refutes_the_unit_theta_with_the_papers_weighting(monkeypatch, witness_metric):
    _refuse_elimination(monkeypatch)
    result = is_negative_type(witness_metric)
    # B = {u, v, v} against R, each point at weight 1/6
    sixth = Fraction(1, 6)
    assert result.violation.entries == tuple((i, sixth if i < 3 else -sixth) for i in range(6))
    assert result.energy == Fraction(1, 432)


def test_proposal_past_int64_refutes_on_python_ints(monkeypatch, witness_metric):
    big = FiniteMetric.from_rows(
        witness_metric.labels, [[d * 2**70 for d in row] for row in fraction_rows(witness_metric)]
    )
    assert _gram_array(big).dtype == object
    assert _gram_array(witness_metric).dtype == np.int64
    _refuse_elimination(monkeypatch)
    result = is_negative_type(big)
    assert result.violation == is_negative_type(witness_metric).violation
    assert result.energy == 2**70 * Fraction(1, 432)


def test_float_directions_are_sign_normalized_roundings():
    # diag(-1, 2): the eigenvector of -1 is +-e_0, normalized to +e_0
    G = np.array([[-1, 0], [0, 2]], dtype=np.int64)
    assert _float_directions(G) == [[2**k, 0] for k in range(analysis._PROPOSAL_BITS + 1)]
    assert _float_directions(np.array([[1, 0], [0, 2]], dtype=np.int64)) == []
    assert _float_directions(np.zeros((0, 0), dtype=np.int64)) == []
    assert _proposed_violation(G, G.tolist()) == Weighting.from_map({0: Fraction(1, 2), 2: Fraction(-1, 2)})


# ---------------------------------------------------------------------------
# gap brackets
# ---------------------------------------------------------------------------


def test_gap_bracket_two_point_is_tight(two_point):
    bracket = gap_bracket(two_point, starts=8, iters=60, seed=0)
    assert bracket.lower == Fraction(-1, 4)
    assert bracket.upper >= Fraction(-1, 4)
    assert gamma(two_point, bracket.weighting) == bracket.lower


def test_gap_bracket_lower_scales_exactly(witness_metric):
    t = Fraction(5, 3)
    scaled = FiniteMetric.from_rows(
        witness_metric.labels,
        [[t * d for d in row] for row in fraction_rows(witness_metric)],
    )
    base = gap_bracket(witness_metric, starts=6, iters=40, seed=2)
    big = gap_bracket(scaled, starts=6, iters=40, seed=2)
    assert big.lower == t * base.lower


def test_gap_bracket_positive_on_witness(witness_metric):
    bracket = gap_bracket(witness_metric, starts=12, iters=100, seed=0)
    assert bracket.lower > 0
    assert bracket.upper >= bracket.lower


def test_gap_bracket_zero_diameter_collapses_to_zero():
    m = FiniteMetric.from_rows(("a", "a"), [[0, 0], [0, 0]])
    bracket = gap_bracket(m, starts=4, iters=10, seed=0)
    assert bracket.lower == 0
    assert bracket.upper == 0


@st.composite
def search_matrices(draw):
    """A normalised distance matrix as the gap search builds it: the
    shortest-path closure of random integer weights on 2-48 points, with
    some points repeated."""
    n = draw(st.integers(min_value=2, max_value=48))
    rng = random.Random(draw(st.integers(0, 2**32)))
    distinct = rng.randint(1, n)
    D = np.array(
        [[0 if i == j else rng.randint(1, 50) for j in range(distinct)] for i in range(distinct)]
    )
    D = np.minimum(D, D.T)
    for k in range(distinct):
        D = np.minimum(D, D[:, [k]] + D[[k], :])
    copies = sorted(rng.randrange(distinct) for _ in range(n - distinct))
    order = list(range(distinct)) + copies
    D = [[int(D[i][j]) for j in order] for i in order]
    top = max(map(max, D))
    return np.array([[x / top if top else 0.0 for x in row] for row in D])


@st.composite
def ascent_starts(draw, n):
    """0-30 start vectors: uniform draws as the search makes them, the floats
    of rational vectors, and constant vectors."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    kinds = draw(st.lists(st.sampled_from(["uniform", "rational", "constant"]), max_size=30))
    rows = []
    for kind in kinds:
        if kind == "uniform":
            rows.append([rng.uniform(-1, 1) for _ in range(n)])
        elif kind == "rational":
            rows.append([float(Fraction(rng.randint(-9, 9), rng.randint(1, 12))) for _ in range(n)])
        else:
            rows.append([draw(st.sampled_from([0.0, 0.5, 0.1, -1 / 3]))] * n)
    return np.array(rows).reshape(len(rows), n)


def _assert_ascents_match_oracle(d_norm, starts, iters):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ends = _ascend_all(d_norm, starts, iters)
    assert len(ends) == len(starts)
    for start, end in zip(starts, ends):
        want = oracle_ascend(d_norm, start.copy(), iters)
        if want is None:
            assert end is None
        else:
            assert np.array_equal(end, want)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_lockstep_ascent_matches_one_run_per_start(data):
    d_norm = data.draw(search_matrices())
    starts = data.draw(ascent_starts(len(d_norm)))
    iters = data.draw(st.integers(min_value=0, max_value=300))
    _assert_ascents_match_oracle(d_norm, starts, iters)


def _collapsing_step_matrix():
    """diag(l3, l3, l2, l2, 0, 0), where a run on the first two coordinates
    collapses at step 3 and one on the next two at step 2.

    On an eigenvector w = (e_i - e_j) / 2 of eigenvalue l the energy never
    changes, so every step is shrunk: step k is s_k = 0.25 * 0.9^(k - 1),
    and w + s_k (l w) is exactly zero when s_k l rounds to -1."""
    steps = [0.25, 0.25 * 0.9, 0.25 * 0.9 * 0.9]
    lams = {}
    for k in (2, 3):
        lam = -1 / steps[k - 1]
        while steps[k - 1] * lam != -1:
            lam = np.nextafter(lam, -np.inf)
        assert all(s * lam != -1 for s in steps[: k - 1])
        lams[k] = lam
    return np.diag([lams[3], lams[3], lams[2], lams[2], 0.0, 0.0])


@pytest.mark.parametrize("iters", [0, 1, 2, 3, 4, 5, 40])
def test_lockstep_ascent_drops_runs_at_odd_and_even_steps(iters):
    # The buffers swap roles every step, so a run ending at step 3 leaves
    # from the other buffer than one ending at step 2; the rest go on.
    A = _collapsing_step_matrix()
    starts = np.array(
        [
            [0.5, -0.5, 0, 0, 0, 0],
            [0.3, -0.1, 0.2, -0.4, 0.6, 0.1],
            [0, 0, 0.5, -0.5, 0, 0],
            [0.25] * 6,
            [0, 0, 0, 0, 0.5, -0.5],
            [-0.7, 0.2, 0.1, 0.9, -0.3, 0.4],
        ]
    )
    # A collapsing run not dropped would divide by a zero mass, which the
    # oracle comparison turns into an error.
    _assert_ascents_match_oracle(A, starts, iters)
    ends = _ascend_all(A, starts, iters)
    assert ends[3] is None
    assert np.array_equal(ends[0], starts[0]) and np.array_equal(ends[2], starts[2])


@pytest.mark.parametrize("n, count", [(2, 0), (2, 5), (8, 24), (24, 8)])
@pytest.mark.parametrize("iters", [0, 1, 2])
def test_lockstep_ascent_on_few_steps_starts_and_points(n, count, iters):
    rng = random.Random(n * 100 + count)
    D = np.array([[abs(i - j) * (1 + (i * j) % 3) for j in range(n)] for i in range(n)], dtype=float)
    d_norm = D / D.max()
    starts = np.array([[rng.uniform(-1, 1) for _ in range(n)] for _ in range(count)]).reshape(count, n)
    _assert_ascents_match_oracle(d_norm, starts, iters)


def test_lockstep_ascent_drops_a_run_whose_projection_vanishes():
    # (I + A / 4) w is zero for w on the first two coordinates: that run stops
    # after its start, the run on the last two coordinates goes on
    A = np.diag([-4.0, -4.0, 0.0, 0.0])
    starts = np.array(
        [[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0], [0.5] * 4, [0.3, -0.1, 0.2, -0.4]]
    )
    ends = _ascend_all(A, starts, 5)
    assert ends[2] is None
    assert np.array_equal(ends[0], [0.5, -0.5, 0.0, 0.0])
    _assert_ascents_match_oracle(A, starts, 5)


@st.composite
def scored_vectors(draw, n):
    """Nonzero integer vectors, some repeated, negated (c and -c always tie)
    or scaled."""
    vectors = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        c = draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n).filter(any))
        vectors.append(c)
        twin = draw(st.sampled_from(["none", "negated", "scaled"]))
        if twin == "negated":
            vectors.append([-x for x in c])
        elif twin == "scaled":
            vectors.append([3 * x for x in c])
    return draw(st.permutations(vectors))


def _scored_both_ways(m, vectors):
    """The best of ``vectors`` scored one at a time on Python ints, and
    scored as one int64 block; the two must agree."""
    one_by_one = _best_vector(m, (_score(m.D, c) for c in vectors))
    block = _best_vector(m, _block_scorer(m.D)(np.array(vectors, dtype=np.int64)))
    assert block == one_by_one
    return block


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_integer_scoring_picks_the_fraction_argmax(data):
    labels, rows = data.draw(rational_metrics(max_points=7).filter(lambda lr: len(lr[0]) >= 2))
    m = FiniteMetric.from_rows(labels, rows)
    vectors = data.draw(scored_vectors(m.size))
    want = oracle_argmax(m, [_weighting_of(c) for c in vectors])
    assert _scored_both_ways(m, vectors) == want


def test_integer_scoring_breaks_a_tie_on_entries(c4_metric):
    # On the 4-cycle the edges v1v2 and v2v3 give the largest pair energy,
    # and every vector ties with its negation: the smallest entries win in
    # any order.
    vectors = [[1, -1, 0, 0], [0, 1, -1, 0], [-1, 1, 0, 0], [0, -1, 1, 0], [1, 0, -1, 0]]
    value, want = oracle_argmax(c4_metric, [_weighting_of(c) for c in vectors])
    assert value == Fraction(-1, 4)
    assert want.entries == ((0, Fraction(-1, 2)), (1, Fraction(1, 2)))
    for order in itertools.permutations(vectors):
        assert _scored_both_ways(c4_metric, order) == (value, want)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_block_scorer_straddling_the_int64_guard_picks_the_fraction_argmax(data):
    # Lowering the guard sends the rows of mass above ``limit`` to Python
    # ints and keeps the others in int64 (limit 0: every row on Python ints).
    # Masses and the guard are Python ints, and the guard never rises above
    # its real value, past which int64 products could wrap.
    labels, rows = data.draw(rational_metrics(max_points=7).filter(lambda lr: len(lr[0]) >= 2))
    m = FiniteMetric.from_rows(labels, rows)
    vectors = data.draw(scored_vectors(m.size))
    masses = sorted({sum(abs(x) for x in c) // math.gcd(*c) for c in vectors})
    limit = data.draw(st.sampled_from([0] + masses[:-1]))
    top = max(1, max(map(max, m.D)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "_INT64_SAFE", min(limit * limit * top + 1, analysis._INT64_SAFE))
        got = _best_vector(m, _block_scorer(m.D)(np.array(vectors, dtype=np.int64)))
    assert got == oracle_argmax(m, [_weighting_of(c) for c in vectors])


def test_gap_search_past_the_int64_guard_matches_the_fraction_search(witness_metric):
    # Distances near 2^57 leave int64 only the rows of the smallest
    # snaps: the rest are scored on Python ints.
    t = 3**35
    m = FiniteMetric.from_rows(
        witness_metric.labels, [[t * d for d in row] for row in fraction_rows(witness_metric)]
    )
    top = max(map(max, m.D))
    assert 2**62 // top < 24**2 and top < 2**62
    bracket = gap_bracket(m, starts=6, iters=40, seed=3)
    want = oracle_gap_lower(m, starts=6, iters=40, seed=3)
    assert (bracket.lower, bracket.weighting) == want


def _two_points():
    return FiniteMetric.from_rows(("a", "b"), [[0, Fraction(3, 7)], [Fraction(3, 7), 0]])


def _coincident():
    return FiniteMetric.from_rows(("a", "a", "a"), [[0] * 3] * 3)


@pytest.mark.parametrize(
    "metric, starts, iters",
    [
        ("witness", 0, 200),
        ("witness", 6, 0),
        ("two_points", 6, 40),
        ("coincident", 6, 40),
    ],
    ids=["no_starts", "no_iters", "two_points", "coincident"],
)
def test_degenerate_snap_blocks_match_the_fraction_search(metric, starts, iters, witness_metric):
    metrics = {"witness": witness_metric, "two_points": _two_points(), "coincident": _coincident()}
    m = metrics[metric]
    bracket = gap_bracket(m, starts=starts, iters=iters, seed=1)
    want = oracle_gap_lower(m, starts=starts, iters=iters, seed=1)
    assert (bracket.lower, bracket.weighting) == want


def test_gap_search_with_every_run_dropped_matches_the_fraction_search(witness_metric, c4_metric):
    # Constant starts do not project, so every run is dropped and the snap
    # blocks are empty: only the pairs are left.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(random.Random, "uniform", lambda self, a, b: 0.5)
        bracket = gap_bracket(witness_metric, starts=5, iters=10, seed=0)
        want = oracle_gap_lower(witness_metric, starts=5, iters=10, seed=0)
    assert (bracket.lower, bracket.weighting) == want
    pair = [1, 0, -1, 0]
    d_norm = _search_matrix(c4_metric)
    assert list(_snap_scores(c4_metric.D, d_norm, [], _score(c4_metric.D, pair))) == []
    # On diag(-4, -4, 0, 0) the constant start gives no end and the run on
    # the first two coordinates ends after its start; the snaps of what is
    # left, with a pair, are scored as over Fractions.
    A = np.diag([-4.0, -4.0, 0.0, 0.0])
    starts = np.array([[0.5] * 4, [1.0, -1.0, 0.0, 0.0], [0.3, -0.1, 0.2, -0.4]])
    ends = _ascend_all(A, starts, 5)
    assert ends[0] is None
    snaps = [
        w
        for s in starts
        if (end := oracle_ascend(A, s.copy(), 5)) is not None
        for w in oracle_snap_candidates(end)
    ]
    got = _search_best(c4_metric, d_norm, [e for e in ends if e is not None], pair)
    assert got == oracle_argmax(c4_metric, [_weighting_of(pair)] + snaps)


def _search_matrix(m):
    """d_norm as ``gap_bracket`` builds it."""
    top = max(map(max, m.D))
    return np.array([[x / top for x in row] for row in m.D])


def _search_best(m, d_norm, ends, pair):
    """The best of the pair and the snaps of ``ends``, as ``gap_bracket``
    scores them."""
    score = _score(m.D, pair)
    return _best_vector(m, itertools.chain([score], _snap_scores(m.D, d_norm, ends, score)))


def _unfiltered_best(m, ends, pair):
    """The best of the pair and every snap of ``ends``, the raw ones all
    scored on Python ints."""
    E = np.array(ends).reshape(len(ends), m.size)
    raw = [_score(m.D, c) for c in map(_float_snap, ends) if any(c)]
    block = _block_scorer(m.D)(_snap_block(E))
    return _best_vector(m, itertools.chain([_score(m.D, pair)], block, raw))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_raw_snap_filter_keeps_the_winner(data):
    # Metrics on both sides of the int64 guard (3^35 pushes every snap row
    # but the smallest onto Python ints), ends from 0, 1 and 200 steps.
    labels, rows = data.draw(rational_metrics(max_points=7).filter(lambda lr: len(lr[0]) >= 2))
    if data.draw(st.booleans()):
        rows = [[3**35 * x for x in row] for row in rows]
    m = FiniteMetric.from_rows(labels, rows)
    assume(m.diameter() > 0)
    d_norm = _search_matrix(m)
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    count = data.draw(st.integers(0, 8))
    starts = np.array([[rng.uniform(-1, 1) for _ in range(m.size)] for _ in range(count)])
    iters = data.draw(st.sampled_from([0, 1, 200]))
    ends = [e for e in _ascend_all(d_norm, starts.reshape(count, m.size), iters) if e is not None]
    j, k = data.draw(st.lists(st.integers(0, m.size - 1), min_size=2, max_size=2, unique=True))
    pair = [int(i == j) - int(i == k) for i in range(m.size)]
    assert _search_best(m, d_norm, ends, pair) == _unfiltered_best(m, ends, pair)


def test_raw_snap_filter_keeps_a_raw_snap_that_wins():
    # gamma((1/2, -t, t - 1/2)) on d(x, y) = d(y, z) = 2^20, d(x, z) = 2^20 + 1
    # peaks at t = 1/4 + 2^-22, which no snap denominator reaches: only the
    # raw snap of that end lands on it, and it beats every other candidate.
    a = 2**20
    m = FiniteMetric.from_rows(("x", "y", "z"), [[0, a, a + 1], [a, 0, a], [a + 1, a, 0]])
    t = 0.25 + 2.0**-22
    end = np.array([0.5, -t, t - 0.5])
    d_norm = _search_matrix(m)
    assert np.array_equal(_ascend_all(d_norm, end[None], 200)[0], end)
    pair = [1, -1, 0]
    got = _search_best(m, d_norm, [end], pair)
    assert got[1] == Weighting.from_map({0: Fraction(1, 2), 1: -Fraction(t), 2: Fraction(t) - Fraction(1, 2)})
    assert got == _unfiltered_best(m, [end], pair)
    assert got == oracle_argmax(m, [_weighting_of(pair)] + list(oracle_snap_candidates(end)))


def test_raw_snaps_below_the_best_snap_are_not_scored(witness_metric):
    # On the witness the raw snaps of all 24 ends lie far below the best
    # snap to a denominator, so none is formed.
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "_float_snap", lambda v: calls.append(v) or _float_snap(v))
        bracket = gap_bracket(witness_metric)
    assert calls == []
    assert (bracket.lower, bracket.weighting) == oracle_gap_lower(witness_metric)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_gap_search_matches_one_run_per_start_scored_over_fractions(data):
    g, pts = data.draw(graphs_with_points(count=data.draw(st.integers(2, 7))))
    m = distance_matrix(g, pts)
    starts = data.draw(st.integers(0, 6))
    iters = data.draw(st.integers(0, 40))
    seed = data.draw(st.integers(0, 100))
    bracket = gap_bracket(m, starts=starts, iters=iters, seed=seed)
    want = oracle_gap_lower(m, starts=starts, iters=iters, seed=seed)
    assert (bracket.lower, bracket.weighting) == want


def _gap_points(g, rng, count=24):
    half = count // 2
    pts = [Vertex(v) for v in rng.sample(g.vertices, half)]
    for _ in range(count - half):
        e = rng.choice(g.edges)
        pts.append(EdgePoint(e.id, e.length * Fraction(rng.randint(1, 11), 12)))
    return pts


_CACTUS_W = (
    "-817 111 -65 -249 -393 -89 -1 47 -217 -57 775 -1 "
    "551 63 55 191 271 -521 -9 431 375 -465 7 7"
)


_FROZEN_24_GRAPHS = {
    "cactus": make_random_cactus(10, seed=5),
    "theta": subdivide(make_theta(1, 1, 1), 4),
}


# Recorded from the gap search over Fraction arithmetic.  On the theta set
# two distinct weightings attain the maximum, so this pins the argmax
# tie-break as well.  The mu values (and upper_spectral) are the first,
# dyadic rung of the certified-mu ladder.
@pytest.mark.parametrize(
    "seed, graph, lower, weighting, upper_spectral, mu",
    [
        (
            "cactus",
            _FROZEN_24_GRAPHS["cactus"],
            Fraction(-22472491, 3992378880),
            [Fraction(int(a), 5768) for a in _CACTUS_W.split()],
            Fraction(-1121751917, 549755813888),
            Fraction(-3365255751, 34359738368),
        ),
        (
            "theta",
            _FROZEN_24_GRAPHS["theta"],
            Fraction(11287, 228528),
            [Fraction(-25, 138)] * 2
            + [Fraction(1, 6), Fraction(-1, 138), Fraction(1, 6)]
            + [Fraction(-1, 138)] * 2
            + [Fraction(1, 6)]
            + [Fraction(-1, 138)] * 16,
            Fraction(1504007597, 2147483648),
            Fraction(1504007597, 1073741824),
        ),
    ],
    ids=["cactus", "theta"],
)
def test_gap_bracket_frozen_on_24_points(seed, graph, lower, weighting, upper_spectral, mu):
    m = distance_matrix(graph, _gap_points(graph, random.Random(seed)))
    bracket = gap_bracket(m, starts=8)
    assert bracket.lower == lower
    assert bracket.weighting == Weighting.from_map(dict(enumerate(weighting)))
    assert bracket.upper_spectral == upper_spectral
    assert bracket.spectral_mu == mu


@pytest.mark.parametrize("seed", sorted(_FROZEN_24_GRAPHS))
def test_frozen_24_point_brackets_prove_mu_without_elimination(monkeypatch, seed):
    graph = _FROZEN_24_GRAPHS[seed]
    m = distance_matrix(graph, _gap_points(graph, random.Random(seed)))
    calls = _count_eliminations(monkeypatch)
    gap_bracket(m, starts=8)
    assert calls == []


def test_verify_of_the_golden_gap_certificate_makes_no_elimination(monkeypatch, tmp_path):
    graph, cert = tmp_path / "theta.json", tmp_path / "gap.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["make", "theta", "--lengths", "1,1,1", "--out", str(graph)]) == 0
    cert.write_text((Path(__file__).parent / "golden" / "gap.json").read_text())
    calls = _count_eliminations(monkeypatch)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["verify", str(cert), str(graph)]) == 0
    assert json.loads(out.getvalue())["valid"] is True
    assert calls == []


def _points_metric(graph, count, rng_seed):
    return lambda: distance_matrix(graph, _gap_points(graph, random.Random(rng_seed), count))


def _witness_metric():
    return construct_witness(make_theta(1, 1, 1)).metric


# Recorded from the per-start ascent and the Fraction candidate scoring, with
# the weighting as integers over one denominator.  On ``rawsnap6`` the winner
# is the snap of the raw ascent floats (over 2^57), so any change in the last
# bit of the ascent shows; on ``theta8`` and ``witness`` a 10^6 snap
# wins.  Every mu is the first, dyadic rung of the certified-mu ladder.
@pytest.mark.parametrize(
    "build, kwargs, lower, den, numerators, mu",
    [
        (
            _points_metric(make_random_cactus(6, seed=1), 8, "cactus8"),
            {},
            Fraction(-108203, 6298560),
            486,
            "-15 -7 -23 -167 33 -31 169 41",
            Fraction(-3457470155, 34359738368),
        ),
        (
            _points_metric(subdivide(make_theta(1, 1, 1), 2), 8, "theta8"),
            {},
            Fraction(24234829247, 6000000000000),
            10**6,
            "-207722 -90850 75724 -201428 108409 10806 98740 206321",
            Fraction(7110487303, 137438953472),
        ),
        (
            _points_metric(make_random_connected(10, 13, seed=3), 8, "connected8"),
            {},
            Fraction(-7301, 221184),
            192,
            "-3 29 1 25 -55 -23 -15 41",
            Fraction(-367379803, 1073741824),
        ),
        (
            _points_metric(subdivide(make_theta(1, 1, 1), 2), 6, 5),
            {},
            Fraction(
                -852909463895934484216343606112995,
                46730671726813451250847852328386596,
            ),
            216172782113783814,
            "41016576791872349 -45432663661789657 -16086772907932507 "
            "52303022377127159 -46566954487169743 14766791887892399",
            Fraction(-6011046631, 34359738368),
        ),
        (
            _points_metric(make_random_cactus(12, seed=7), 24, "cactus24"),
            {"starts": 8},
            Fraction(-3801157262, 648097203645),
            240018,
            "-73 -36769 2807 767 1511 767 -8977 15479 -6625 -1561 1223 -21697 "
            "38831 -38593 -1105 11927 5423 15527 6383 3023 4055 -4609 359 11927",
            Fraction(-3236914013, 34359738368),
        ),
        (
            _points_metric(make_random_connected(16, 21, seed=4), 24, "connected24"),
            {"starts": 8},
            Fraction(1016663, 23328000),
            720,
            "19 81 20 38 0 -52 -32 32 -9 -60 68 -48 -8 20 -17 -19 -20 57 -33 -3 -17 15 10 -42",
            Fraction(6281127649, 4294967296),
        ),
        (
            _points_metric(subdivide(make_theta(1, 1, 1), 5), 24, "theta24"),
            {"starts": 8},
            Fraction(917, 17712),
            246,
            "-1 -1 -1 -37 11 -25 -25 -1 -1 -1 11 23 -1 11 11 -13 -1 -1 -13 11 23 11 -1 11",
            Fraction(1502419691, 1073741824),
        ),
        (
            _witness_metric,
            {},
            Fraction(9045770917, 3000000000000),
            10**6,
            "216835 99479 183686 -210365 -144176 -145459",
            Fraction(4809105757, 137438953472),
        ),
    ],
    ids=[
        "cactus8",
        "theta8",
        "connected8",
        "rawsnap6",
        "cactus24",
        "connected24",
        "theta24",
        "witness",
    ],
)
def test_gap_bracket_frozen_outputs(build, kwargs, lower, den, numerators, mu):
    bracket = gap_bracket(build(), **kwargs)
    assert bracket.lower == lower
    assert bracket.weighting == Weighting.from_map(
        {i: Fraction(int(a), den) for i, a in enumerate(numerators.split())}
    )
    assert bracket.spectral_mu == mu


def test_gap_bracket_rejects_bad_parameters(two_point):
    with pytest.raises(PreconditionError):
        gap_bracket(two_point, starts=-1)
    with pytest.raises(PreconditionError):
        gap_bracket(two_point, iters=-1)
    one = FiniteMetric.from_rows(("a",), [[0]])
    with pytest.raises(PreconditionError):
        gap_bracket(one)


# ---------------------------------------------------------------------------
# eigenvalue counts
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def k4_subdivision_metric():
    return k4_explicit_decomposition()[1].metric


def test_positive_eigenvalue_count_line_vs_witness(c4_metric, witness_metric, k4_subdivision_metric):
    line = FiniteMetric.from_rows(
        ("a", "b", "c"), [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    )
    assert positive_eigenvalue_count(line) == 1
    # C4's spectrum is 4, 0, -2, -2: the exact zero is not counted
    assert positive_eigenvalue_count(c4_metric) == 1
    assert positive_eigenvalue_count(witness_metric) == 2
    assert positive_eigenvalue_count(k4_subdivision_metric) == 1


@st.composite
def graph_metrics(draw):
    """2-12 points on a small graph, or on a weighted complete graph: the
    latter is often not of negative type, so its distance matrix can have
    several positive eigenvalues."""
    if draw(st.booleans()):
        g = draw(connected_graphs())
        count = draw(st.integers(min_value=2, max_value=12))
        return distance_matrix(g, [draw(graph_points(g)) for _ in range(count)])
    labels, rows = draw(rational_metrics(max_points=12).filter(lambda lr: len(lr[0]) >= 2))
    return FiniteMetric.from_rows(labels, rows)


@settings(max_examples=60, deadline=None)
@given(graph_metrics())
def test_positive_eigenvalue_count_matches_the_float_spectrum(m):
    vals = np.linalg.eigvalsh(np.array([[float(x) for x in row] for row in fraction_rows(m)]))
    top = float(np.max(np.abs(vals)))
    # a float eigenvalue this near zero could be either sign, or an exact zero
    assume(not np.any((np.abs(vals) > 1e-12 * top) & (np.abs(vals) < 1e-6 * top)))
    assert positive_eigenvalue_count(m) == int(np.sum(vals > 1e-6 * top))


# ---------------------------------------------------------------------------
# the implication chain
# ---------------------------------------------------------------------------


def test_check_chain_on_cycle(c4_metric):
    report = check_chain(c4_metric)
    assert report.ok
    assert report.l1_embeddable is True
    assert report.negative_type is True
    assert report.positive_eigenvalues == 1


def test_check_chain_on_witness(witness_metric):
    report = check_chain(witness_metric)
    assert report.ok
    assert report.l1_embeddable is False
    assert report.negative_type is False


def test_check_chain_skips_l1_beyond_cap(c4_metric):
    report = check_chain(c4_metric, max_points=2)
    assert report.l1_embeddable is None
    assert report.ok


def test_check_chain_does_not_depend_on_a_float_eigensolver(
    monkeypatch, c4_metric, witness_metric, k4_subdivision_metric
):
    # the negative-type decision asks a float eigensolver for a proposal;
    # one that lies about every spectrum changes no verdict and no count
    def lying_values(a):
        return -np.ones(len(a))

    def lying_vectors(a):
        n = len(a)
        return -np.ones(n), np.full((n, n), 1 / math.sqrt(n))

    monkeypatch.setattr(np.linalg, "eigvalsh", lying_values)
    monkeypatch.setattr(np.linalg, "eigh", lying_vectors)
    assert check_chain(c4_metric) == ChainReport(4, True, True, 1, ())
    assert check_chain(witness_metric) == ChainReport(
        witness_metric.size, False, False, 2, ()
    )
    assert check_chain(k4_subdivision_metric, max_points=16) == ChainReport(16, True, True, 1, ())
