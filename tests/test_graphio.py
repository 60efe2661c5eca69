"""JSON serialization round-trips for graphs and points."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from test_core import connected_graphs, graph_points, graphs_with_points
from thetagap.core import EdgePoint, Vertex, build_graph
from thetagap.errors import ThetaGapError
from thetagap.graphio import (
    dumps_graph,
    dumps_points,
    graph_from_dict,
    graph_to_dict,
    loads_graph,
    loads_points,
    point_from_dict,
    point_to_dict,
)


@settings(max_examples=50, deadline=None)
@given(connected_graphs())
def test_graph_round_trip(g):
    assert graph_from_dict(graph_to_dict(g)) == g
    assert loads_graph(dumps_graph(g)) == g


@pytest.mark.parametrize(
    "point",
    [Vertex("a"), EdgePoint("e1", Fraction(0)), EdgePoint("e1", Fraction(5, 3))],
)
def test_point_round_trip(point):
    assert point_from_dict(point_to_dict(point)) == point


@settings(max_examples=40, deadline=None)
@given(graphs_with_points(count=3))
def test_points_file_round_trip(case):
    _, pts = case
    assert loads_points(dumps_points(pts)) == pts


def test_graph_from_dict_rejects_malformed_documents():
    good = graph_to_dict(build_graph(["a", "b"], [("e", "a", "b", 1)]))
    for mutate in (
        lambda d: d.pop("vertices"),
        lambda d: d["edges"][0].pop("length"),
        lambda d: d["edges"][0].update(length="0"),
        lambda d: d["edges"][0].update(ends=["a"]),
        lambda d: d["edges"][0].update(ends=[["a"], "b"]),
        lambda d: d["edges"][0].update(ends=[{}, "b"]),
    ):
        doc = {"vertices": list(good["vertices"]), "edges": [dict(good["edges"][0])]}
        mutate(doc)
        with pytest.raises(ThetaGapError):
            graph_from_dict(doc)


def test_point_from_dict_rejects_unknown_shape():
    with pytest.raises(ThetaGapError):
        point_from_dict({"neither": 1})


@pytest.mark.parametrize(
    "lengths, message",
    [
        (["1/2", "1/2", 1, True], "not a rational: True"),
        (["1/2", 1, "1/2", "x"], "not a rational literal: 'x'"),
        ([1, "1", "1/2", "0"], "edge e3 needs a positive rational length"),
    ],
)
def test_graph_from_dict_names_the_first_bad_length(lengths, message):
    # repeated literals are parsed once; the first bad one is still named
    doc = {
        "vertices": ["a", "b"],
        "edges": [{"id": f"e{i}", "ends": ["a", "b"], "length": x} for i, x in enumerate(lengths)],
    }
    with pytest.raises(ThetaGapError) as info:
        graph_from_dict(doc)
    assert str(info.value) == message


def test_graph_from_dict_reads_repeated_literals_alike():
    lengths = ["1/3", 2, "1/3", "2"]
    doc = {
        "vertices": ["a", "b"],
        "edges": [{"id": f"e{i}", "ends": ["a", "b"], "length": x} for i, x in enumerate(lengths)],
    }
    assert [e.length for e in graph_from_dict(doc).edges] == [Fraction(1, 3), 2, Fraction(1, 3), 2]


_EDGE = '{"id": "e", "ends": ["a", "b"], "length": "1"}'


@pytest.mark.parametrize(
    "text, message",
    [
        ("[]", "graph document needs exactly 'vertices' and 'edges'"),
        ('{"vertices": []}', "graph document needs exactly 'vertices' and 'edges'"),
        ('{"vertices": "ab", "edges": []}', "'vertices' must be a list of strings"),
        ('{"vertices": ["a", 1], "edges": []}', "'vertices' must be a list of strings"),
        ('{"vertices": ["a"], "edges": {}}', "'edges' must be a list"),
        ('{"vertices": ["a"], "edges": [1]}', "bad edge entry: 1"),
        (
            '{"vertices": ["a"], "edges": [{"id": "e", "ends": ["a", "a"]}]}',
            "bad edge entry: {'id': 'e', 'ends': ['a', 'a']}",
        ),
        (
            '{"vertices": ["a"], "edges": [{"id": "e", "ends": "aa", "length": "1"}]}',
            "edge 'e' needs two endpoints",
        ),
        (
            '{"vertices": ["a"], "edges": [{"id": 5, "ends": ["a"], "length": "1"}]}',
            "edge 5 needs two endpoints",
        ),
        (
            '{"vertices": ["a", "b"], "edges": [{"id": "e", "ends": ["a", "b"], "length": "x"}]}',
            "not a rational literal: 'x'",
        ),
        (
            '{"vertices": ["a", "b"], "edges": [{"id": "e", "ends": ["a", "b"], "length": 1.5}]}',
            "not a rational: 1.5",
        ),
        (
            '{"vertices": ["a", "b"], "edges": [{"id": "e", "ends": ["a", "b"], "length": "0"}]}',
            "edge e needs a positive rational length",
        ),
        ('{"vertices": [], "edges": []}', "graph needs at least one vertex"),
        ('{"vertices": ["a", "b", "a"], "edges": []}', "duplicate vertex id: 'a'"),
        ('{"vertices": ["a", ""], "edges": []}', "bad vertex id: ''"),
        (f'{{"vertices": ["a", "b"], "edges": [{_EDGE}, {_EDGE}]}}', "duplicate edge id: 'e'"),
        (
            '{"vertices": ["a", "b"], "edges": [{"id": 5, "ends": ["a", "b"], "length": "1"}]}',
            "bad edge id: 5",
        ),
        (
            '{"vertices": ["a", "b"], "edges": [{"id": "e", "ends": ["a", "z"], "length": "1"}]}',
            "edge e has unknown endpoint 'z'",
        ),
        (
            '{"vertices": ["a", "b"], "edges": [{"id": "e", "ends": [["a"], "b"], "length": "1"}]}',
            "edge e has unknown endpoint ['a']",
        ),
        ('{"vertices": ["a", "b", "c"], "edges": [' + _EDGE + "]}", "graph is not connected"),
        (
            '{"vertices": ["a", "b", "c"], "edges": [' + _EDGE + ', '
            '{"id": "l", "ends": ["c", "c"], "length": "1"}]}',
            "graph is not connected",
        ),
    ],
)
def test_loads_graph_names_each_malformed_document_as_before(text, message):
    with pytest.raises(ThetaGapError) as info:
        loads_graph(text)
    assert str(info.value) == message
