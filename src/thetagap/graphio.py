"""File formats: graphs and point lists.

Everything is JSON with rationals rendered as ``"p"`` or ``"p/q"`` strings so
that files round-trip without any precision loss.
"""

from __future__ import annotations

import json
from typing import Any, Sequence

from .core import (
    Edge,
    EdgePoint,
    MetricGraph,
    Point,
    Vertex,
    _literal_reader,
    as_rational,
    format_rational,
)
from .errors import InvalidGraphError, InvalidPointError, PreconditionError


def graph_to_dict(g: MetricGraph) -> dict[str, Any]:
    return {
        "vertices": list(g.vertices),
        "edges": [
            {"id": e.id, "ends": [e.ends[0], e.ends[1]], "length": format_rational(e.length)}
            for e in g.edges
        ],
    }


_EDGE_KEYS = {"id", "ends", "length"}


def graph_from_dict(doc: Any) -> MetricGraph:
    if not isinstance(doc, dict) or set(doc) != {"vertices", "edges"}:
        raise InvalidGraphError("graph document needs exactly 'vertices' and 'edges'")
    vertices = doc["vertices"]
    edges = doc["edges"]
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise InvalidGraphError("'vertices' must be a list of strings")
    if not isinstance(edges, list):
        raise InvalidGraphError("'edges' must be a list")
    recs: list[Edge] = []
    add = recs.append
    read = _literal_reader()
    for item in edges:
        if not isinstance(item, dict) or item.keys() != _EDGE_KEYS:
            raise InvalidGraphError(f"bad edge entry: {item!r}")
        ends = item["ends"]
        if not isinstance(ends, list) or len(ends) != 2:
            raise InvalidGraphError(f"edge {item.get('id')!r} needs two endpoints")
        add(Edge(item["id"], tuple(ends), read(item["length"])))
    return MetricGraph(vertices=tuple(vertices), edges=tuple(recs))


def dumps_graph(g: MetricGraph) -> str:
    return json.dumps(graph_to_dict(g), indent=2) + "\n"


def loads_json(text: str) -> Any:
    """``json.loads``; a JSON integer of more digits than Python converts
    raises ``PreconditionError``, not a bare ``ValueError``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError as exc:
        raise PreconditionError(f"unreadable JSON: {exc}") from None


def loads_graph(text: str) -> MetricGraph:
    return graph_from_dict(loads_json(text))


def point_to_dict(p: Point) -> dict[str, Any]:
    if isinstance(p, Vertex):
        return {"vertex": p.vertex}
    if isinstance(p, EdgePoint):
        return {"edge": p.edge, "offset": format_rational(p.offset)}
    raise InvalidPointError(f"not a point: {p!r}")


def point_from_dict(doc: Any) -> Point:
    keys = set(doc) if isinstance(doc, dict) else None
    if keys == {"vertex"} and isinstance(doc["vertex"], str):
        return Vertex(doc["vertex"])
    if keys == {"edge", "offset"} and isinstance(doc["edge"], str):
        return EdgePoint(doc["edge"], as_rational(doc["offset"]))
    raise InvalidPointError(f"bad point entry: {doc!r}")


def points_to_dict(points: Sequence[Point]) -> dict[str, Any]:
    return {"points": [point_to_dict(p) for p in points]}


def points_from_dict(doc: Any) -> list[Point]:
    if not isinstance(doc, dict) or set(doc) != {"points"} or not isinstance(doc["points"], list):
        raise InvalidPointError("points document needs a single 'points' list")
    return [point_from_dict(item) for item in doc["points"]]


def dumps_points(points: Sequence[Point]) -> str:
    return json.dumps(points_to_dict(points), indent=2) + "\n"


def loads_points(text: str) -> list[Point]:
    return points_from_dict(loads_json(text))
