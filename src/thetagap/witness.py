"""Construction of six-point configurations that violate negative type.

Starting from a minimal theta whose edges all have length at least 1, the
construction walks a short interval near one branch vertex, mirrors it onto
the other two paths through antipodal maps on the two-path cycles, and picks
two triples of points whose within-group distances beat the cross distances
by at least 1/12.  Points are placed as integer positions along the theta's
paths, in units of 1 / (12 g._scale); the antipode of a point near the
first branch vertex is one subtraction, and only the placed points' offsets
become ``Fraction``s.  Everything is exact; every claimed identity is
re-checked against ambient distances before a witness is returned.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .analysis import Weighting, gamma
from .core import (
    Edge,
    EdgePoint,
    FiniteMetric,
    MetricGraph,
    Point,
    Vertex,
    canonical_point,
    distance_matrix,
    point_label,
    scale,
    subdivide,
)
from .errors import InternalCheckError, PreconditionError
from .theta import Theta, ThetaPath, _make_path, _point_on_path, minimal_theta

_SIXTH = Fraction(1, 6)
_TWELFTH = Fraction(1, 12)
_HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# antipodal maps and window selection
# ---------------------------------------------------------------------------
#
# Positions along the theta's paths are integers in witness units, 1 / (12 *
# g._scale): a path's vertex at position p in 1 / g._scale sits at 12 p, the
# window starts 0, 1/6 and 1/3 at 0, 2 g._scale and 4 g._scale, and the
# points of a window are g._scale apart.


def _antipode(t: Theta, b: int, x: int) -> int:
    """The position on path b (2 or 3) of the antipode of position x on
    path 1, both in witness units, on the cycle of paths 1 and b.

    The cycle runs from u along path 1 and back along path b; its
    circumference is C = L1 + Lb.  The antipode of x lies x + C/2 along
    it, which is at least L1, since L1 <= Lb, and below C, since the
    witness maps only 0 <= x <= 1/2 and every length is at least 1.  So it
    lies on path b, at C/2 - x from u; at x = 0 with L1 = Lb that is v,
    which path 1 reaches at the same place.  Each length is a multiple of
    12 units, so the half is exact."""
    return 6 * (t.paths[0].positions[-1] + t.paths[b - 1].positions[-1]) - x


def _vertex_free_interior(path: ThetaPath, lo: int, hi: int) -> bool:
    """Whether no vertex of the path lies strictly between positions lo and
    hi in witness units.  The positions strictly increase, so only the
    first one above lo can: the first above lo // 12 in 1 / g._scale."""
    positions = path.positions
    i = bisect.bisect_right(positions, lo // 12)
    return i == len(positions) or 12 * positions[i] >= hi


def _candidate_windows(t: Theta) -> list[int]:
    """Starts a of the windows [a, a + 1/6] on path 1, in witness units and
    scan order, whose antipodal images on paths 2 and 3 have vertex-free
    interiors.  The antipodal map reverses orientation, so the image of
    ``a`` is the upper end of the image interval and that of a + 1/6 the
    lower."""
    s = t.paths[0].scale
    return [
        a
        for a in (0, 2 * s, 4 * s)
        if all(
            _vertex_free_interior(t.paths[b - 1], _antipode(t, b, a + 2 * s), _antipode(t, b, a))
            for b in (2, 3)
        )
    ]


def _window_points(t: Theta, a: int) -> tuple[Point, ...]:
    """The nine points of the window at a, in witness units: x_k = a + k/12
    on path 1 for k = 0, 1, 2, then their antipodes on path 2, then on
    path 3."""
    s = t.paths[0].scale
    xs = (a, a + s, a + 2 * s)
    unit = 12 * s
    return tuple(_point_on_path(t.paths[0], x, unit) for x in xs) + tuple(
        _point_on_path(t.paths[b - 1], _antipode(t, b, x), unit) for b in (2, 3) for x in xs
    )


def _require_long_edges(g: MetricGraph) -> None:
    """``PreconditionError`` at the first edge shorter than 1.  Edges read
    from one literal share one length object, so each object is compared
    once."""
    long: set[int] = set()
    for e in g.edges:
        x = e.length
        if id(x) in long:
            continue
        if x < 1:
            raise PreconditionError(
                f"witness construction needs edge lengths >= 1; edge {e.id} has {x}"
            )
        long.add(id(x))


# ---------------------------------------------------------------------------
# gap and witnesses
# ---------------------------------------------------------------------------


def gap(m: FiniteMetric, b: Sequence[int], r: Sequence[int]) -> Fraction:
    """Within-group distance sums minus the nine cross distances.

    ``b`` and ``r`` are triples of point indices into ``m`` (repeats allowed).
    Within-group sums run over the three unordered index pairs of each triple.
    """
    if len(b) != 3 or len(r) != 3:
        raise PreconditionError("gap needs two triples of point indices")
    for k in itertools.chain(b, r):
        if not 0 <= k < m.size:
            raise PreconditionError(f"point index {k} out of range")
    return Fraction(_gap_units(m.D, b, r), m.den)


def _gap_units(D: Sequence[Sequence[int]], b: Sequence[int], r: Sequence[int]) -> int:
    """``gap`` on the integer distances ``D``, in their units."""
    within = sum(D[b[i]][b[j]] + D[r[i]][r[j]] for i, j in ((0, 1), (0, 2), (1, 2)))
    return within - sum(D[i][j] for i in b for j in r)


@dataclass(frozen=True)
class Witness:
    """Six points whose grouped distances certify a negative type violation.

    The first triple is spaced by 1/12 along path 1 from ``window_start``;
    the other two triples are its antipodal images on paths 2 and 3.  ``index`` selects which adjacent pair
    of columns forms the groups: B takes column ``index``, R column
    ``index + 1``.  ``metric`` holds the six points in order B then R."""

    theta: Theta
    window_start: Fraction
    points_x: tuple[Point, Point, Point]
    points_y: tuple[Point, Point, Point]
    points_z: tuple[Point, Point, Point]
    index: int
    b_points: tuple[Point, Point, Point]
    r_points: tuple[Point, Point, Point]
    gap: Fraction
    case: str
    metric: FiniteMetric

    def __post_init__(self) -> None:
        if self.index not in (1, 2):
            raise PreconditionError("witness index must be 1 or 2")
        if self.gap < _TWELFTH:
            raise InternalCheckError(f"witness gap {self.gap} below 1/12")


_CASE_ORDER = ("y1z1", "y1z3", "y3z1", "y3z3")


def _try_window(g: MetricGraph, t: Theta, a: int) -> Optional[Witness]:
    nine = _window_points(t, a)
    m9 = distance_matrix(g, nine)
    # the identities below are on the integers D over den: a distance of
    # 1/12 is den / 12, and 1/6 is den / 6
    D, den = m9.D, m9.den

    X, Y, Z = 0, 3, 6
    # Stepping one slot away from the branch vertex adds exactly 1/12 to the
    # distance from any x to the matching antipodal column.
    for i in (0, 1):
        if 12 * D[X + i][Y + i] != 12 * D[X + i][Y + i + 1] + den:
            return None
        if 12 * D[X + i][Z + i] != 12 * D[X + i][Z + i + 1] + den:
            return None
    # The middle cross distance decomposes through one of the four outer pairs.
    options = {
        "y1z1": D[Y][Z],
        "y1z3": D[Y][Z + 2],
        "y3z1": D[Y + 2][Z],
        "y3z3": D[Y + 2][Z + 2],
    }
    best = min(options.values())
    if 6 * D[Y + 1][Z + 1] != den + 6 * best:
        return None
    case = next(name for name in _CASE_ORDER if options[name] == best)

    chosen: Optional[int] = None
    for i in (0, 1):
        lhs = D[Y + i][Z + i] + D[Y + i + 1][Z + i + 1]
        rhs = D[Y + i][Z + i + 1] + D[Y + i + 1][Z + i]
        if lhs >= rhs:
            chosen = i
            break
    if chosen is None:
        return None

    six = (X + chosen, Y + chosen, Z + chosen, X + chosen + 1, Y + chosen + 1, Z + chosen + 1)
    units = _gap_units(D, six[:3], six[3:])
    if 12 * units < den:
        return None
    m6 = FiniteMetric([m9.labels[k] for k in six], [[D[i][j] for j in six] for i in six], den)
    return Witness(
        theta=t,
        window_start=Fraction(a, 12 * t.paths[0].scale),
        points_x=nine[:3],
        points_y=nine[3:6],
        points_z=nine[6:],
        index=chosen + 1,
        b_points=tuple(nine[k] for k in six[:3]),
        r_points=tuple(nine[k] for k in six[3:]),
        gap=Fraction(units, den),
        case=case,
        metric=m6,
    )


def construct_witness(g: MetricGraph) -> Witness:
    """Build a six-point violation witness with gap at least 1/12.

    Requires every edge length to be at least 1 and a theta subgraph to
    exist.  Windows are scanned in order; each candidate is fully verified
    against ambient distances before being accepted.
    """
    _require_long_edges(g)
    t = minimal_theta(g)
    if t is None:
        raise PreconditionError("graph contains no theta subgraph")
    for a in _candidate_windows(t):
        result = _try_window(g, t, a)
        if result is not None:
            return result
    raise InternalCheckError("no window produced a valid witness")


# ---------------------------------------------------------------------------
# weightings
# ---------------------------------------------------------------------------


def omega_from_witness(w: Witness):
    """The signed weighting -1/6 on B and +1/6 on R, merged at coincidences.

    Returns an ``analysis.Weighting`` over the indices of ``w.metric``.  The
    weighting sums to zero, has total mass one, and its quadratic energy is
    exactly ``gap / 36``.
    """
    merged: dict[int, Fraction] = {}
    seen: dict[Point, int] = {}
    pts = list(w.b_points + w.r_points)
    for idx, p in enumerate(pts):
        sign = -1 if idx < 3 else 1
        slot = seen.setdefault(p, idx)
        merged[slot] = merged.get(slot, Fraction(0)) + sign * _SIXTH
    weighting = Weighting.from_map(merged)
    check_omega(w.metric, w.gap, weighting)
    return weighting


def check_omega(m: FiniteMetric, gap_value: Fraction, omega) -> None:
    """``InternalCheckError`` unless the gap is at least 1/12 and ``omega``
    sums to zero, has total mass one and energy exactly gap/36 on ``m``."""
    if gap_value < _TWELFTH:
        raise InternalCheckError(f"witness gap {gap_value} below 1/12")
    if omega.total != 0 or omega.total_mass != 1:
        raise InternalCheckError("witness weighting is not normalized")
    if gamma(m, omega) != gap_value / 36:
        raise InternalCheckError("witness weighting energy is not gap/36")


# ---------------------------------------------------------------------------
# rounding to vertices and subdivision pipeline
# ---------------------------------------------------------------------------


def round_to_vertices(g: MetricGraph, points: Sequence[Point]) -> list[str]:
    """Nearest vertex for each point; ties go to the edge's first endpoint.

    Fails if some point is farther than 1/2 from every vertex.
    """
    canon = [canonical_point(g, p) for p in points]
    interior = [p for p in canon if isinstance(p, EdgePoint)]
    ends = [g.edge(p.edge).ends for p in interior]
    probes = [q for p, (u, v) in zip(interior, ends) for q in (p, Vertex(u), Vertex(v))]
    m = distance_matrix(g, probes)
    rounded: dict[Point, str] = {}
    for k, (p, (u, v)) in enumerate(zip(interior, ends)):
        du, dv = m.distance(3 * k, 3 * k + 1), m.distance(3 * k, 3 * k + 2)
        nearest = min(du, dv)
        if nearest > _HALF:
            raise PreconditionError(
                f"point {point_label(p)} is {nearest} > 1/2 away from every vertex"
            )
        rounded[p] = u if du <= dv else v
    return [p.vertex if isinstance(p, Vertex) else rounded[p] for p in canon]


def _suppress_degree_two(g: MetricGraph) -> tuple[MetricGraph, dict[str, ThetaPath]]:
    """Contract chains of degree-2 vertices into single long edges.

    The chains are those of the graph's skeleton (see ``MetricGraph``).
    Returns the contracted graph plus, for every new edge, the path of
    original edges it replaces, from its first end (with traversal
    directions and integer vertex positions).
    """
    essential, walks, _, _ = g._skeleton
    chains: dict[str, ThetaPath] = {}
    new_edges: list[Edge] = []
    for counter, (start, end, walk, _) in enumerate(walks, 1):
        new_id = f"seg{counter}"
        chains[new_id] = path = _make_path(g, start, walk)
        new_edges.append(Edge(id=new_id, ends=(start, end), length=path.length))
    contracted = MetricGraph(vertices=tuple(essential), edges=tuple(new_edges))
    return contracted, chains


def _chain_point(
    g: MetricGraph,
    chains: dict[str, ThetaPath],
    contracted: MetricGraph,
    p: Point,
) -> Point:
    """Map a point of the contracted graph back into the original graph."""
    cp = canonical_point(contracted, p)
    if isinstance(cp, Vertex):
        return canonical_point(g, Vertex(cp.vertex))
    path = chains[cp.edge]
    n, d = cp.offset.as_integer_ratio()
    unit = math.lcm(path.scale, d)
    return _point_on_path(path, n * (unit // d), unit)


@dataclass(frozen=True)
class SubdivisionWitness:
    """Witness data for a fine subdivision, before and after rounding."""

    graph: MetricGraph
    k: int
    continuous: Witness
    b_points: tuple[Point, Point, Point]
    r_points: tuple[Point, Point, Point]
    gap_continuous: Fraction
    b_vertices: tuple[str, str, str]
    r_vertices: tuple[str, str, str]
    gap_rounded: Fraction
    metric_continuous: FiniteMetric
    metric_rounded: FiniteMetric


def subdivision_witness(g0: MetricGraph, k: int) -> SubdivisionWitness:
    """Witness on the k-subdivision of a unit theta-containing graph.

    For ``k >= 180`` the continuous six-point gap is at least ``(k + 1)/12``,
    which exceeds the total drift of 15 half-unit roundings, so the gap of
    the rounded vertex configuration stays positive.
    """
    if not isinstance(k, int) or k < 180:
        raise PreconditionError(f"certified subdivisions need k >= 180, got {k!r}")
    for e in g0.edges:
        if e.length != 1:
            raise PreconditionError("subdivision witness needs a unit-length graph")
    fine = subdivide(g0, k)
    contracted, chains = _suppress_degree_two(fine)
    unit = scale(contracted, Fraction(1, k + 1))
    w = construct_witness(unit)

    def back(p: Point) -> Point:
        cp = canonical_point(unit, p)
        if isinstance(cp, EdgePoint):
            cp = EdgePoint(cp.edge, cp.offset * (k + 1))
        return _chain_point(fine, chains, contracted, cp)

    b_pts = tuple(back(p) for p in w.b_points)
    r_pts = tuple(back(p) for p in w.r_points)
    m_cont = distance_matrix(fine, list(b_pts + r_pts))
    gap_cont = gap(m_cont, (0, 1, 2), (3, 4, 5))
    if gap_cont != w.gap * (k + 1):
        raise InternalCheckError("subdivision gap does not scale as expected")
    if gap_cont < Fraction(k + 1, 12):
        raise InternalCheckError("continuous gap below (k + 1)/12")

    b_v = tuple(round_to_vertices(fine, b_pts))
    r_v = tuple(round_to_vertices(fine, r_pts))
    m_round = distance_matrix(fine, [Vertex(x) for x in (*b_v, *r_v)])
    gap_round = gap(m_round, (0, 1, 2), (3, 4, 5))
    for i in range(6):
        for j in range(i + 1, 6):
            if abs(m_cont.distance(i, j) - m_round.distance(i, j)) > 1:
                raise InternalCheckError("rounding moved a pair distance by more than 1")
    if gap_round <= 0:
        raise InternalCheckError("rounded gap is not positive")
    return SubdivisionWitness(
        graph=fine,
        k=k,
        continuous=w,
        b_points=b_pts,
        r_points=r_pts,
        gap_continuous=gap_cont,
        b_vertices=b_v,
        r_vertices=r_v,
        gap_rounded=gap_round,
        metric_continuous=m_cont,
        metric_rounded=m_round,
    )
