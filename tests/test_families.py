"""Graph family constructors: shapes, lengths, determinism."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_contains_theta
from thetagap.core import Vertex, distance, scale
from thetagap.errors import PreconditionError
from thetagap.families import (
    FAMILY_TAGS,
    FamilySpec,
    from_spec,
    make_random_cactus,
    make_random_connected,
    make_theta,
)


def test_theta_shape():
    g = make_theta(1, 2, Fraction(7, 2))
    assert set(g.vertices) == {"u", "v"}
    assert sorted(e.length for e in g.edges) == [1, 2, Fraction(7, 2)]
    assert all(set(e.ends) == {"u", "v"} for e in g.edges)


def test_theta_rejects_nonpositive_length():
    with pytest.raises(PreconditionError):
        make_theta(1, 1, 0)


def test_complete_graph():
    g = from_spec(FamilySpec(tag="complete", sizes=(4,)))
    assert len(g.vertices) == 4
    assert len(g.edges) == 6
    assert all(e.length == 1 for e in g.edges)


def test_complete_bipartite_graph():
    g = from_spec(FamilySpec(tag="complete_bipartite", sizes=(2, 3)))
    assert len(g.vertices) == 5
    assert len(g.edges) == 6
    # the two sides are independent sets
    for e in g.edges:
        assert e.ends[0][0] != e.ends[1][0]


def test_cycle_and_path():
    c = from_spec(FamilySpec(tag="cycle", sizes=(5,)))
    assert len(c.vertices) == 5 and len(c.edges) == 5
    a, b = c.vertices[0], c.vertices[2]
    assert distance(c, Vertex(a), Vertex(b)) == 2
    p = from_spec(FamilySpec(tag="path", sizes=(4,)))
    assert len(p.vertices) == 4 and len(p.edges) == 3


def test_unknown_tag_rejected():
    with pytest.raises(PreconditionError):
        FamilySpec(tag="moebius")
    # the families with lengths or a seed have their own constructors
    for tag in set(FAMILY_TAGS) - set(SPEC_OF_TAG):
        with pytest.raises(PreconditionError):
            FamilySpec(tag=tag, sizes=(4,))


SPEC_OF_TAG = {
    "complete": FamilySpec(tag="complete", sizes=(4,)),
    "complete_bipartite": FamilySpec(tag="complete_bipartite", sizes=(2, 3)),
    "cycle": FamilySpec(tag="cycle", sizes=(5,)),
    "path": FamilySpec(tag="path", sizes=(4,)),
}


@pytest.mark.parametrize("tag", SPEC_OF_TAG)
def test_every_family_tag_builds_through_from_spec(tag):
    g = from_spec(SPEC_OF_TAG[tag])
    assert g.vertices and g.edges and all(e.length == 1 for e in g.edges)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=100),
)
def test_random_connected_shape_and_lengths(n, extra, seed):
    m = n - 1 + extra
    g = make_random_connected(n, m, seed=seed)
    assert len(g.vertices) == n
    assert len(g.edges) == m
    # connectivity is enforced by the MetricGraph validator; lengths lie
    # in [1, 2]
    assert all(1 <= e.length <= 2 for e in g.edges)


def test_random_connected_is_deterministic_per_seed():
    a = make_random_connected(6, 9, seed=5)
    b = make_random_connected(6, 9, seed=5)
    c = make_random_connected(6, 9, seed=6)
    assert a == b
    assert a != c


def test_random_connected_rejects_too_few_edges():
    with pytest.raises(PreconditionError):
        make_random_connected(5, 3)


def test_random_connected_rejects_edges_on_one_vertex():
    assert make_random_connected(1, 0).edges == ()
    with pytest.raises(PreconditionError, match="at least two vertices"):
        make_random_connected(1, 1)


@pytest.mark.parametrize(
    "make",
    [lambda: make_random_connected(4, 6, seed=1), lambda: make_random_cactus(5, seed=1)],
    ids=["random_connected", "random_cactus"],
)
def test_scaling_a_random_graph_moves_its_lengths_to_the_scaled_range(make):
    g = make()
    assert all(1 <= e.length <= 2 for e in g.edges)
    big = scale(g, Fraction(3))
    assert [e.length for e in big.edges] == [3 * e.length for e in g.edges]
    assert all(3 <= e.length <= 6 for e in big.edges)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=50))
def test_random_cactus_is_theta_free(blocks, seed):
    g = make_random_cactus(blocks, seed=seed)
    assert not oracle_contains_theta(g)


def test_trees_are_theta_free():
    for seed in range(10):
        g = make_random_connected(7, 6, seed=seed)
        assert not oracle_contains_theta(g)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=30))
def test_dense_random_graphs_contain_thetas(seed):
    # cycle rank 3 forces two cycles through a shared edge in some block
    # often enough; verify agreement with the brute-force detector instead
    # of asserting a fixed verdict.
    g = make_random_connected(5, 8, seed=seed)
    from thetagap.theta import contains_theta

    assert contains_theta(g) == oracle_contains_theta(g)
