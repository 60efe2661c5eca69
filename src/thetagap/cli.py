"""Command-line surface: graph construction, verdicts, certificates, checks.

Every verdict-bearing command emits a JSON report whose ``certificate``
section contains enough data (points embedded, rationals as "p/q" strings)
for the ``verify`` subcommand to re-check the claim using only exact distance
evaluation and rational arithmetic.  Reports are deterministic for identical
inputs and seeds except for the trailing wall-time field.

Exit codes: 0 when the queried property holds (or a bracket/report was
produced), 1 when it is refuted with a certificate (or verification fails),
2 on usage or input errors.  Internal invariant failures exit 70.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import random
import sys
import time
import traceback
from fractions import Fraction
from typing import Callable, Optional, Sequence

from . import analysis, graphio, l1cut, theta, witness
from .core import (
    EdgePoint,
    FiniteMetric,
    MetricGraph,
    Point,
    Vertex,
    as_rational,
    canonical_point,
    distance,
    distance_matrix,
    format_rational,
    point_label,
    scale,
    subdivide,
)
from .errors import InternalCheckError, PreconditionError, ThetaGapError
from .families import (
    FAMILY_TAGS,
    FamilySpec,
    from_spec,
    make_random_cactus,
    make_random_connected,
    make_theta,
)

_GAP_TWELFTH = Fraction(1, 12)


# ---------------------------------------------------------------------------
# i/o helpers
# ---------------------------------------------------------------------------


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _digest(path: str) -> dict:
    with open(path, "rb") as fh:
        return {"path": path, "sha256": hashlib.sha256(fh.read()).hexdigest()}


def _load_graph(path: str) -> MetricGraph:
    return graphio.loads_graph(_read_text(path))


def _load_points(g: MetricGraph, path: str) -> list[Point]:
    pts = graphio.loads_points(_read_text(path))
    return [canonical_point(g, p) for p in pts]


def _emit(report: dict, out: Optional[str], started: float) -> None:
    report["wall_time_s"] = round(time.perf_counter() - started, 6)
    text = json.dumps(report, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _write_graph(g: MetricGraph, out: Optional[str]) -> None:
    text = graphio.dumps_graph(g)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _weighting_json(w: analysis.Weighting) -> list:
    return [[i, format_rational(v)] for i, v in w.entries]


def _points_json(pts: Sequence[Point]) -> list:
    return [graphio.point_to_dict(p) for p in pts]

def _labels(g: MetricGraph, pts: Sequence[Point]) -> list[str]:
    return [point_label(canonical_point(g, p)) for p in pts]


def _pair_distances_json(m: FiniteMetric) -> list:
    return [
        [i, j, format_rational(m.distance(i, j))]
        for i, j in itertools.combinations(range(m.size), 2)
    ]


# ---------------------------------------------------------------------------
# make / subdivide / info
# ---------------------------------------------------------------------------


def _parse_lengths(text: str) -> list[Fraction]:
    return [as_rational(part.strip()) for part in text.split(",")]


def cmd_make(args) -> int:
    family = args.family
    if family == "subdivide":
        if not args.of:
            raise PreconditionError("make subdivide needs --of GRAPH")
        g = subdivide(_load_graph(args.of), args.k)
    elif family == "theta":
        if not args.lengths:
            raise PreconditionError("make theta needs --lengths a,b,c")
        lengths = _parse_lengths(args.lengths)
        if len(lengths) != 3:
            raise PreconditionError("theta needs exactly three lengths")
        g = make_theta(*lengths)
    elif family in ("complete", "cycle", "path"):
        if args.n is None:
            raise PreconditionError(f"make {family} needs -n")
        g = from_spec(FamilySpec(tag=family, sizes=(args.n,)))
    elif family == "complete_bipartite":
        if args.a is None or args.b is None:
            raise PreconditionError("make complete_bipartite needs -a and -b")
        g = from_spec(FamilySpec(tag=family, sizes=(args.a, args.b)))
    elif family == "random_connected":
        if args.vertices is None or args.edges is None:
            raise PreconditionError("make random_connected needs --vertices and --edges")
        g = make_random_connected(
            args.vertices, args.edges, seed=args.seed, min_len=args.min_len
        )
    elif family == "random_cactus":
        if args.blocks is None:
            raise PreconditionError("make random_cactus needs --blocks")
        g = make_random_cactus(args.blocks, seed=args.seed, min_len=args.min_len)
    else:  # pragma: no cover - argparse restricts choices
        raise PreconditionError(f"unknown family {family!r}")
    if args.scale is not None:
        g = scale(g, as_rational(args.scale))
    _write_graph(g, args.out)
    return 0


def cmd_subdivide(args) -> int:
    g = subdivide(_load_graph(args.graph), args.k)
    _write_graph(g, args.out)
    return 0


def _theta_json(t: theta.Theta) -> dict:
    return {
        "u": t.u,
        "v": t.v,
        "paths": [
            {
                "edges": [[eid, bool(fwd)] for eid, fwd in p.edges],
                "length": format_rational(p.length),
            }
            for p in t.paths
        ],
        "total_length": format_rational(t.total_length),
    }


def cmd_info(args) -> int:
    started = time.perf_counter()
    g = _load_graph(args.graph)
    t = theta.minimal_theta(g)
    report = {
        "command": "info",
        "inputs": [_digest(args.graph)],
        "vertices": len(g.vertices),
        "edges": len(g.edges),
        "connected": True,
        "theta_containing": t is not None,
        "minimal_theta": None if t is None else _theta_json(t),
    }
    _emit(report, args.out, started)
    return 0


# ---------------------------------------------------------------------------
# witness
# ---------------------------------------------------------------------------


def cmd_witness(args) -> int:
    started = time.perf_counter()
    g = _load_graph(args.graph)
    w = witness.construct_witness(g)
    omega = witness.omega_from_witness(w)
    certificate = {
        "kind": "witness",
        "graph": _digest(args.graph),
        "theta": _theta_json(w.theta),
        "window_start": format_rational(w.window.start),
        "index": w.index,
        "case": w.case,
        "x_points": _points_json(w.points_x),
        "y_points": _points_json(w.points_y),
        "z_points": _points_json(w.points_z),
        "b_points": _points_json(w.b_points),
        "r_points": _points_json(w.r_points),
        "b_labels": _labels(g, w.b_points),
        "r_labels": _labels(g, w.r_points),
        "gap": format_rational(w.gap),
        "omega": _weighting_json(omega),
        "distances": _pair_distances_json(w.metric),
    }
    report = {
        "command": "witness",
        "inputs": [_digest(args.graph)],
        "verdict": "negative type refuted",
        "certificate": certificate,
    }
    _emit(report, args.out, started)
    return 0


# ---------------------------------------------------------------------------
# negtype / gap / l1
# ---------------------------------------------------------------------------


def _metric_inputs(args) -> tuple[MetricGraph, list[Point], FiniteMetric]:
    g = _load_graph(args.graph)
    if not args.points:
        raise PreconditionError("this command needs --points FILE")
    pts = _load_points(g, args.points)
    return g, pts, distance_matrix(g, pts)


def cmd_negtype(args) -> int:
    started = time.perf_counter()
    g, pts, m = _metric_inputs(args)
    result = analysis.is_negative_type(m)
    certificate = {
        "kind": "negative_type",
        "verdict": result.verdict,
        "graph": _digest(args.graph),
        "points": _points_json(pts),
        "labels": _labels(g, pts),
        "basepoint": result.basepoint,
    }
    if result.verdict:
        assert result.transcript is not None
        certificate["transcript"] = {
            "perm": list(result.transcript.perm),
            "diag": [format_rational(v) for v in result.transcript.diag],
            "lower": [
                [format_rational(v) for v in row] for row in result.transcript.lower
            ],
        }
    else:
        assert result.violation is not None
        certificate["violation"] = _weighting_json(result.violation)
        certificate["gamma"] = format_rational(analysis.gamma(m, result.violation))
    report = {
        "command": "negtype",
        "inputs": [_digest(args.graph), _digest(args.points)],
        "verdict": "negative type" if result.verdict else "not negative type",
        "certificate": certificate,
    }
    _emit(report, args.out, started)
    return 0 if result.verdict else 1


def cmd_gap(args) -> int:
    started = time.perf_counter()
    g, pts, m = _metric_inputs(args)
    bracket = analysis.gap_bracket(m, starts=args.starts, iters=args.iters, seed=args.seed)
    certificate = {
        "kind": "gap_bracket",
        "graph": _digest(args.graph),
        "points": _points_json(pts),
        "labels": _labels(g, pts),
        "starts": args.starts,
        "iters": args.iters,
        "seed": args.seed,
        "lower": format_rational(bracket.lower),
        "upper": format_rational(bracket.upper),
        "upper_spectral": format_rational(bracket.upper_spectral),
        "upper_diameter": format_rational(bracket.upper_diameter),
        "spectral_mu": format_rational(bracket.spectral_mu),
        "weighting": _weighting_json(bracket.weighting),
    }
    report = {
        "command": "gap",
        "inputs": [_digest(args.graph), _digest(args.points)],
        "verdict": "bracket produced",
        "certificate": certificate,
    }
    _emit(report, args.out, started)
    return 0


def cmd_l1(args) -> int:
    started = time.perf_counter()
    g, pts, m = _metric_inputs(args)
    result = l1cut.is_l1_embeddable(m, max_points=args.max_cuts_n)
    feasible = isinstance(result, l1cut.CutDecomposition)
    certificate = {
        "kind": "l1",
        "feasible": feasible,
        "graph": _digest(args.graph),
        "points": _points_json(pts),
        "labels": _labels(g, pts),
    }
    if feasible:
        certificate["cuts"] = [
            {
                "members": [point_label(canonical_point(g, pts[i])) for i in cut.members],
                "member_indices": list(cut.members),
                "weight": format_rational(weight),
            }
            for cut, weight in result.entries
        ]
    else:
        pairs = list(itertools.combinations(range(m.size), 2))
        certificate["farkas"] = [
            [i, j, format_rational(v)]
            for (i, j), v in zip(pairs, result.pair_values)
            if v != 0
        ]
    report = {
        "command": "l1",
        "inputs": [_digest(args.graph), _digest(args.points)],
        "verdict": "l1-embeddable" if feasible else "not l1-embeddable",
        "certificate": certificate,
    }
    _emit(report, args.out, started)
    return 0 if feasible else 1


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


class _VerifyFailure(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise _VerifyFailure(message)


# Shape checks: a certificate that is malformed, rather than false, exits 2
# before any exact work.


def _is_index(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _field(cert: dict, name: str, kind: type = object):
    """``cert[name]``, which must be present and of JSON type ``kind``."""
    value = cert.get(name)
    if name not in cert or not isinstance(value, kind) or (
        kind is int and not _is_index(value)
    ):
        raise PreconditionError(f"certificate field {name!r} is missing or malformed")
    return value


def _rows(cert: dict, name: str, indices: int) -> list:
    """``cert[name]`` as a list of rows: ``indices`` integers, then a value."""
    rows = _field(cert, name, list)
    for row in rows:
        if not (
            isinstance(row, list)
            and len(row) == indices + 1
            and all(_is_index(i) for i in row[:indices])
        ):
            raise PreconditionError(
                f"every entry of {name!r} must be {indices} indices and a value"
            )
    return rows


def _points_from_json(g: MetricGraph, cert: dict, name: str) -> list[Point]:
    return [canonical_point(g, graphio.point_from_dict(d)) for d in _field(cert, name, list)]


def _weighting_from_json(cert: dict, name: str) -> analysis.Weighting:
    return analysis.Weighting.from_map({i: v for i, v in _rows(cert, name, 1)})


def _verify_witness(g: MetricGraph, cert: dict) -> str:
    b = _points_from_json(g, cert, "b_points")
    r = _points_from_json(g, cert, "r_points")
    _require(len(b) == 3 and len(r) == 3, "witness must have three B and three R points")
    stored = {(i, j): as_rational(v) for i, j, v in _rows(cert, "distances", 2)}
    pairs = list(itertools.combinations(range(6), 2))
    missing = [p for p in pairs if p not in stored]
    if missing:
        raise PreconditionError(f"witness certificate has no distance for pairs {missing}")
    stated_gap = as_rational(_field(cert, "gap"))
    omega = _weighting_from_json(cert, "omega")
    m = distance_matrix(g, b + r)
    for i, j in pairs:
        _require(
            stored[(i, j)] == m.distance(i, j),
            f"stored distance on pair ({i},{j}) does not match the graph",
        )
    gap_value = witness.gap(m, (0, 1, 2), (3, 4, 5))
    _require(gap_value == stated_gap, "stored gap does not match")
    _require(gap_value >= _GAP_TWELFTH, "gap is below 1/12")
    _require(omega.total == 0, "omega does not sum to zero")
    _require(omega.total_mass == 1, "omega total mass is not one")
    _require(
        analysis.gamma(m, omega) == gap_value / 36,
        "omega energy is not gap/36",
    )
    return f"gap {cert['gap']} reproduced from ambient distances"


def _verify_negtype(g: MetricGraph, cert: dict) -> str:
    pts = _points_from_json(g, cert, "points")
    if _field(cert, "verdict", bool):
        data = _field(cert, "transcript", dict)
        perm = _field(data, "perm", list)
        diag = _field(data, "diag", list)
        lower = _field(data, "lower", list)
        size = len(pts) - 1
        if not (
            all(_is_index(i) for i in perm)
            and sorted(perm) == list(range(size))
            and len(diag) == len(lower) == size
            and all(isinstance(row, list) for row in lower)
        ):
            raise PreconditionError("elimination transcript is malformed")
        transcript = analysis.PSDTranscript(
            perm=tuple(perm),
            diag=tuple(as_rational(v) for v in diag),
            lower=tuple(tuple(as_rational(v) for v in row) for row in lower),
        )
        basepoint = _field(cert, "basepoint", int)
        m = distance_matrix(g, pts)
        gram = analysis.gram_matrix(m, basepoint)
        _require(transcript.verify(gram), "elimination transcript does not factor the Gram matrix")
        return "transcript certifies positive semidefiniteness"
    w = _weighting_from_json(cert, "violation")
    stated_gamma = as_rational(_field(cert, "gamma"))
    m = distance_matrix(g, pts)
    _require(w.total == 0, "violation does not sum to zero")
    _require(w.total_mass == 1, "violation mass is not one")
    value = analysis.gamma(m, w)
    _require(value == stated_gamma, "stored gamma does not match")
    _require(value > 0, "violation energy is not positive")
    return f"violating weighting has energy {cert['gamma']} > 0"


def _verify_gap(g: MetricGraph, cert: dict) -> str:
    pts = _points_from_json(g, cert, "points")
    w = _weighting_from_json(cert, "weighting")
    lower = as_rational(_field(cert, "lower"))
    upper = as_rational(_field(cert, "upper"))
    m = distance_matrix(g, pts)
    _require(w.total == 0, "weighting does not sum to zero")
    _require(w.total_mass == 1, "weighting mass is not one")
    _require(analysis.gamma(m, w) == lower, "weighting does not achieve the lower bound")
    _require(lower <= upper, "bracket is empty")
    return "lower bound reproduced exactly by its weighting"


def _verify_l1(g: MetricGraph, cert: dict) -> str:
    pts = _points_from_json(g, cert, "points")
    n = len(pts)
    if _field(cert, "feasible", bool):
        entries = []
        for entry in _field(cert, "cuts", list):
            if not isinstance(entry, dict):
                raise PreconditionError("every cut must be an object")
            members = _field(entry, "member_indices", list)
            if not all(_is_index(i) for i in members):
                raise PreconditionError("cut member indices must be integers")
            entries.append(
                (l1cut.Cut.from_members(n, members), as_rational(_field(entry, "weight")))
            )
        m = distance_matrix(g, pts)
        try:
            l1cut.CutDecomposition(metric=m, entries=tuple(entries))
        except (ThetaGapError, InternalCheckError) as exc:
            raise _VerifyFailure(f"decomposition failed: {exc}") from exc
        return f"{len(entries)} cuts reproduce the metric exactly"
    pairs = list(itertools.combinations(range(n), 2))
    values = {(i, j): Fraction(0) for i, j in pairs}
    for i, j, v in _rows(cert, "farkas", 2):
        if (i, j) not in values:
            raise PreconditionError(f"farkas entry names ({i}, {j}), not a pair of {n} points")
        values[(i, j)] = as_rational(v)
    m = distance_matrix(g, pts)
    try:
        l1cut.FarkasCertificate(
            metric=m, pair_values=tuple(values[p] for p in pairs)
        )
    except (ThetaGapError, InternalCheckError) as exc:
        raise _VerifyFailure(f"separating vector failed: {exc}") from exc
    return "separating vector verified against every cut"


_VERIFIERS: dict[str, Callable[[MetricGraph, dict], str]] = {
    "witness": _verify_witness,
    "negative_type": _verify_negtype,
    "gap_bracket": _verify_gap,
    "l1": _verify_l1,
}


def cmd_verify(args) -> int:
    started = time.perf_counter()
    doc = json.loads(_read_text(args.certificate))
    cert = doc.get("certificate", doc) if isinstance(doc, dict) else doc
    if not isinstance(cert, dict):
        raise PreconditionError("certificate must be a JSON object")
    kind = cert.get("kind")
    if kind not in _VERIFIERS:
        raise PreconditionError(f"unknown certificate kind {kind!r}")
    digest = cert.get("graph", {})
    if not isinstance(digest, dict):
        raise PreconditionError("certificate field 'graph' is not an object")
    g = _load_graph(args.graph)
    expected = digest.get("sha256")
    actual = _digest(args.graph)["sha256"]
    report = {
        "command": "verify",
        "inputs": [_digest(args.certificate), _digest(args.graph)],
        "certificate_kind": kind,
    }
    if expected is not None and expected != actual:
        report["valid"] = False
        report["detail"] = "certificate was issued for a different graph file"
        _emit(report, args.out, started)
        return 1
    try:
        detail = _VERIFIERS[kind](g, cert)
    except _VerifyFailure as exc:
        report["valid"] = False
        report["detail"] = str(exc)
        _emit(report, args.out, started)
        return 1
    report["valid"] = True
    report["detail"] = detail
    _emit(report, args.out, started)
    return 0


# ---------------------------------------------------------------------------
# check-paper
# ---------------------------------------------------------------------------


class _CheckFailure(Exception):
    pass


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise _CheckFailure(message)


def _check_witness_unit_theta() -> str:
    g = make_theta(1, 1, 1)
    w = witness.construct_witness(g)
    _expect(w.gap == _GAP_TWELFTH, f"gap {w.gap} != 1/12")
    b = sorted(point_label(p) for p in w.b_points)
    r = sorted(point_label(p) for p in w.r_points)
    _expect(b == ["u", "v", "v"], f"B is {b}")
    _expect(r == ["e1@1/12", "e2@11/12", "e3@11/12"], f"R is {r}")
    _expect(w.index == 1, f"index {w.index}")
    return "gap 1/12 with B={u,v,v} and R at offsets 1/12"


def _check_witness_theta222() -> str:
    w = witness.construct_witness(make_theta(2, 2, 2))
    _expect(w.gap == _GAP_TWELFTH, f"gap {w.gap} != 1/12")
    return "gap exactly 1/12"


def _check_minimal_theta_k4() -> str:
    g = from_spec(FamilySpec(tag="complete", sizes=(4,)))
    t = theta.minimal_theta(g)
    _expect(t is not None, "no theta found in K4")
    lengths = tuple(p.length for p in t.paths)
    _expect(lengths == (1, 2, 2), f"lengths {lengths}")
    _expect(t.total_length == 5, f"total {t.total_length}")
    return "minimal theta has lengths (1, 2, 2), total 5"


def _check_minimal_theta_k23() -> str:
    g = from_spec(FamilySpec(tag="complete_bipartite", sizes=(2, 3)))
    t = theta.minimal_theta(g)
    _expect(t is not None, "no theta found in K2,3")
    lengths = tuple(p.length for p in t.paths)
    _expect(lengths == (2, 2, 2), f"lengths {lengths}")
    _expect({t.u, t.v} == {"a1", "a2"}, f"branches {t.u},{t.v}")
    return "minimal theta has lengths (2, 2, 2) between the degree-3 vertices"


def _check_gamma_constant() -> str:
    w = witness.construct_witness(make_theta(1, 1, 1))
    omega = witness.omega_from_witness(w)
    value = analysis.gamma(w.metric, omega)
    _expect(value == Fraction(1, 432), f"gamma {value} != 1/432")
    return "witness weighting has energy exactly 1/432"


def _check_bracket_two_point() -> str:
    m = FiniteMetric.from_rows(("p", "q"), [[0, 1], [1, 0]])
    bracket = analysis.gap_bracket(m, starts=8, iters=60, seed=0)
    _expect(bracket.lower == Fraction(-1, 4), f"lower {bracket.lower}")
    _expect(bracket.upper >= Fraction(-1, 4), f"upper {bracket.upper}")
    return "bracket pins -1/4 from below and above"


def _check_bracket_upper_unit_theta() -> str:
    g = make_theta(1, 1, 1)
    pts = [
        Vertex("u"),
        Vertex("v"),
        canonical_point(g, EdgePoint("e1", Fraction(1, 3))),
        canonical_point(g, EdgePoint("e2", Fraction(1, 2))),
        canonical_point(g, EdgePoint("e3", Fraction(1, 4))),
        canonical_point(g, EdgePoint("e1", Fraction(2, 3))),
    ]
    m = distance_matrix(g, pts)
    bracket = analysis.gap_bracket(m, starts=8, iters=80, seed=0)
    bound = Fraction(1) + Fraction(1, 10**6)
    _expect(bracket.upper <= bound, f"upper {bracket.upper} above 1 + 1e-6")
    return f"upper end {format_rational(bracket.upper)} <= 1"


def _check_k4_cut_sum() -> str:
    _, dec = l1cut.k4_explicit_decomposition()
    _expect(len(dec.entries) == 12, f"{len(dec.entries)} cuts")
    sides = {min(len(c.members), 16 - len(c.members)) for c, _ in dec.entries}
    _expect(sides == {6}, f"side sizes {sides}")
    return "12 six-vertex sets sum to twice the metric; weights 1/2 reproduce it"


def _check_k4_lp() -> str:
    _, dec = l1cut.k4_explicit_decomposition()
    result = l1cut.is_l1_embeddable(dec.metric, max_points=16)
    _expect(
        isinstance(result, l1cut.CutDecomposition),
        "LP reported the 2-subdivision of K4 as not l1",
    )
    return f"exact LP feasible with {len(result.entries)} cuts"


def _check_k23_subdivision() -> str:
    g0 = from_spec(FamilySpec(tag="complete_bipartite", sizes=(2, 3)))
    sw = witness.subdivision_witness(g0, 180)
    _expect(
        sw.gap_continuous == Fraction(181, 12),
        f"continuous gap {sw.gap_continuous}",
    )
    _expect(sw.gap_rounded > 0, f"rounded gap {sw.gap_rounded}")
    result = analysis.is_negative_type(sw.metric_rounded)
    _expect(not result.verdict, "rounded vertex metric passed the negative-type test")
    _expect(result.violation is not None, "missing violation certificate")
    return (
        f"continuous gap 181/12, rounded gap {format_rational(sw.gap_rounded)} > 0, "
        "rounded vertices refute negative type"
    )


def _check_theta_free_controls() -> str:
    controls = [
        from_spec(FamilySpec(tag="cycle", sizes=(6,))),
        from_spec(FamilySpec(tag="path", sizes=(5,))),
        make_random_cactus(6, seed=3),
    ]
    rng = random.Random(0)
    for g in controls:
        _expect(not theta.contains_theta(g), "control graph contains a theta")
        names = list(g.vertices)
        sample = names if len(names) <= 8 else sorted(rng.sample(names, 8))
        m = distance_matrix(g, [Vertex(v) for v in sample])
        _expect(analysis.is_negative_type(m).verdict, "control metric not negative type")
        result = l1cut.is_l1_embeddable(m)
        _expect(
            isinstance(result, l1cut.CutDecomposition),
            "control metric not l1-embeddable",
        )
    return "cycle, path, and cactus controls are theta-free, negative type, and l1"


def _check_random_witness_batch() -> str:
    found = 0
    seed = 0
    while found < 20:
        seed += 1
        n = 4 + seed % 5
        g = make_random_connected(n, n + 1 + seed % 4, seed=seed)
        if not theta.contains_theta(g):
            continue
        w = witness.construct_witness(g)
        _expect(w.gap >= _GAP_TWELFTH, f"seed {seed}: gap {w.gap} below 1/12")
        omega = witness.omega_from_witness(w)
        _expect(
            analysis.gamma(w.metric, omega) == w.gap / 36,
            f"seed {seed}: energy is not gap/36",
        )
        found += 1
    return "20 random theta-containing graphs all gave gap >= 1/12"


def _check_distance_spots() -> str:
    g = make_theta(1, 1, 1)
    d = distance(
        g,
        EdgePoint("e1", Fraction(1, 3)),
        EdgePoint("e2", Fraction(1, 3)),
    )
    _expect(d == Fraction(2, 3), f"unit theta distance {d}")
    g2 = make_theta(1, 2, 3)
    d2 = distance(
        g2,
        EdgePoint("e2", Fraction(1)),
        EdgePoint("e3", Fraction(3, 2)),
    )
    _expect(d2 == Fraction(5, 2), f"midpoint distance {d2}")
    fine = subdivide(from_spec(FamilySpec(tag="complete", sizes=(4,))), 2)
    _expect(
        (len(fine.vertices), len(fine.edges)) == (16, 18),
        f"2-subdivision of K4 has {len(fine.vertices)} vertices, {len(fine.edges)} edges",
    )
    return "exact spot distances and subdivision counts verified"


def _check_chain_consistency() -> str:
    g = from_spec(FamilySpec(tag="cycle", sizes=(4,)))
    m = distance_matrix(g, [Vertex(v) for v in g.vertices])
    r1 = analysis.check_chain(m)
    _expect(r1.ok, f"C4 chain violations: {r1.violations}")
    _expect(r1.l1_embeddable is True and r1.negative_type, "C4 should pass both")
    w = witness.construct_witness(make_theta(1, 1, 1))
    r2 = analysis.check_chain(w.metric)
    _expect(r2.ok, f"witness chain violations: {r2.violations}")
    _expect(
        r2.l1_embeddable is False and not r2.negative_type,
        "witness metric should fail both",
    )
    _, dec = l1cut.k4_explicit_decomposition()
    r3 = analysis.check_chain(dec.metric, max_points=16)
    _expect(r3.ok, f"K4 subdivision chain violations: {r3.violations}")
    _expect(
        r3.l1_embeddable is True and r3.negative_type and r3.positive_eigenvalues == 1,
        "K4 subdivision should satisfy the whole chain",
    )
    return "implication chain consistent on C4, the witness metric, and the K4 subdivision"


_CHECKS: list[tuple[str, Callable[[], str]]] = [
    ("witness_unit_theta_exact", _check_witness_unit_theta),
    ("witness_theta_222", _check_witness_theta222),
    ("minimal_theta_k4", _check_minimal_theta_k4),
    ("minimal_theta_k23", _check_minimal_theta_k23),
    ("gamma_energy_floor", _check_gamma_constant),
    ("bracket_two_point", _check_bracket_two_point),
    ("bracket_upper_unit_theta", _check_bracket_upper_unit_theta),
    ("k4_cut_sum", _check_k4_cut_sum),
    ("k4_lp_feasible", _check_k4_lp),
    ("k23_subdivision_rounding", _check_k23_subdivision),
    ("theta_free_controls", _check_theta_free_controls),
    ("random_witness_batch", _check_random_witness_batch),
    ("distance_spot_checks", _check_distance_spots),
    ("chain_consistency", _check_chain_consistency),
]


def cmd_check_paper(args) -> int:
    started = time.perf_counter()
    if args.list:
        for name, _ in _CHECKS:
            sys.stdout.write(name + "\n")
        return 0
    results = []
    failed = 0
    for name, fn in _CHECKS:
        t0 = time.perf_counter()
        try:
            detail = fn()
            status = "pass"
        except _CheckFailure as exc:
            detail = str(exc)
            status = "fail"
        except (ThetaGapError, InternalCheckError) as exc:
            detail = f"{type(exc).__name__}: {exc}"
            status = "fail"
        if status == "fail":
            failed += 1
        results.append(
            {
                "name": name,
                "status": status,
                "detail": detail,
                "seconds": round(time.perf_counter() - t0, 3),
            }
        )
    report = {
        "command": "check-paper",
        "checks": results,
        "passed": len(results) - failed,
        "failed": failed,
    }
    _emit(report, args.out, started)
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thetagap",
        description="metric-graph negative-type toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_make = sub.add_parser("make", help="construct a graph from a named family")
    p_make.add_argument(
        "family",
        choices=[*FAMILY_TAGS, "subdivide"],
    )
    p_make.add_argument("--lengths", help="comma-separated rationals (theta)")
    p_make.add_argument("-n", type=int, help="size (complete, cycle, path)")
    p_make.add_argument("-a", type=int, help="first side (complete_bipartite)")
    p_make.add_argument("-b", type=int, help="second side (complete_bipartite)")
    p_make.add_argument("--vertices", type=int, help="vertex count (random_connected)")
    p_make.add_argument("--edges", type=int, help="edge count (random_connected)")
    p_make.add_argument("--blocks", type=int, help="block count (random_cactus)")
    p_make.add_argument("--seed", type=int, default=0)
    p_make.add_argument("--min-len", default="1", help="minimum edge length (rational)")
    p_make.add_argument("--scale", help="multiply all lengths by this rational")
    p_make.add_argument("--of", help="input graph (subdivide)")
    p_make.add_argument("-k", type=int, default=1, help="subdivision parameter")
    p_make.add_argument("--out", help="output file (default stdout)")
    p_make.set_defaults(handler=cmd_make)

    p_sub = sub.add_parser("subdivide", help="k-subdivide a unit-length graph")
    p_sub.add_argument("graph")
    p_sub.add_argument("-k", type=int, required=True)
    p_sub.add_argument("--out", help="output file (default stdout)")
    p_sub.set_defaults(handler=cmd_subdivide)

    p_info = sub.add_parser("info", help="graph summary and theta status")
    p_info.add_argument("graph")
    p_info.add_argument("--out")
    p_info.set_defaults(handler=cmd_info)

    p_wit = sub.add_parser("witness", help="six-point negative-type violation")
    p_wit.add_argument("graph")
    p_wit.add_argument("--out")
    p_wit.set_defaults(handler=cmd_witness)

    p_neg = sub.add_parser("negtype", help="exact negative-type decision")
    p_neg.add_argument("graph")
    p_neg.add_argument("--points", required=True)
    p_neg.add_argument("--out")
    p_neg.set_defaults(handler=cmd_negtype)

    p_gap = sub.add_parser("gap", help="bracket the negative-type gap")
    p_gap.add_argument("graph")
    p_gap.add_argument("--points", required=True)
    p_gap.add_argument("--starts", type=int, default=24)
    p_gap.add_argument("--iters", type=int, default=200)
    p_gap.add_argument("--seed", type=int, default=0)
    p_gap.add_argument("--out")
    p_gap.set_defaults(handler=cmd_gap)

    p_l1 = sub.add_parser("l1", help="exact l1-embeddability decision")
    p_l1.add_argument("graph")
    p_l1.add_argument("--points", required=True)
    p_l1.add_argument("--max-cuts-n", type=int, default=14)
    p_l1.add_argument("--out")
    p_l1.set_defaults(handler=cmd_l1)

    p_ver = sub.add_parser("verify", help="re-check a certificate against a graph")
    p_ver.add_argument("certificate")
    p_ver.add_argument("graph")
    p_ver.add_argument("--out")
    p_ver.set_defaults(handler=cmd_verify)

    p_chk = sub.add_parser("check-paper", help="run the reproduction suite")
    p_chk.add_argument("--list", action="store_true", help="list checks without running")
    p_chk.add_argument("--out")
    p_chk.set_defaults(handler=cmd_check_paper)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except InternalCheckError:
        traceback.print_exc()
        return 70
    except ThetaGapError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
