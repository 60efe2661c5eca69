"""Command-line surface: graph construction, verdicts, certificates, checks.

Every verdict-bearing command emits a JSON report whose ``certificate``
section contains enough data (points embedded, rationals as "p/q" strings)
for the ``verify`` subcommand to re-check the claim using only exact distance
evaluation and rational arithmetic.  Reports are deterministic for identical
inputs and seeds except for the trailing wall-time field.

Exit codes: 0 when the queried property holds (or a bracket/report was
produced), 1 when it is refuted with a certificate (or verification fails),
2 on usage or input errors.  Internal invariant failures exit 70.

``main`` builds only the parser of the command named in its first argument;
``--help``, a missing command and an unknown one get the parser of every
command.  Each parser is built once per process.  Each input file is read
and hashed once.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import math
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
    _literal_reader,
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


# ---------------------------------------------------------------------------
# i/o helpers
# ---------------------------------------------------------------------------


def _read(path: str) -> tuple[str, dict]:
    """A file read once: its UTF-8 text, newlines translated as in text
    mode, and its digest for the report."""
    with open(path, "rb") as fh:
        data = fh.read()
    text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    return text, {"path": path, "sha256": hashlib.sha256(data).hexdigest()}


def _load_graph(path: str) -> tuple[MetricGraph, dict]:
    text, digest = _read(path)
    return graphio.loads_graph(text), digest


def _load_points(g: MetricGraph, path: str) -> tuple[list[Point], dict]:
    text, digest = _read(path)
    return [canonical_point(g, p) for p in graphio.loads_points(text)], digest


_encode_str = json.encoder.encode_basestring_ascii


class _Unwritten(Exception):
    """A value ``_write`` leaves to ``json.dumps``."""


def _write(value: object, out: list[str], newline: str) -> None:
    """Append the indent-2 JSON of ``value`` to ``out``, where ``newline``
    is a line break and the indent of the line ``value`` starts on."""
    kind = type(value)
    if kind is str:
        out.append(_encode_str(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif kind is int:
        out.append(int.__repr__(value))
    elif kind is float and math.isfinite(value):
        out.append(float.__repr__(value))
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        opening = "{" + inner
        for key, item in value.items():
            if type(key) is not str:
                raise _Unwritten
            out.append(opening)
            out.append(_encode_str(key))
            out.append(": ")
            _write(item, out, inner)
            opening = "," + inner
        out.append(newline + "}")
    elif kind is list or kind is tuple:
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        if type(value[0]) is str:
            try:  # the common list of rationals as strings, in one join
                out.append("[" + inner + ("," + inner).join(map(_encode_str, value)))
                out.append(newline + "]")
                return
            except TypeError:  # an item that is not a string
                pass
        opening = "[" + inner
        for item in value:
            out.append(opening)
            _write(item, out, inner)
            opening = "," + inner
        out.append(newline + "]")
    else:
        raise _Unwritten


def _dumps(report: object) -> str:
    """Exactly ``json.dumps(report, indent=2)``, joined from strings that
    ``encode_basestring_ascii`` encodes; the standard library would take
    its pure-Python encoder for any indent.  A value of another type (or
    a key that is not a string, or a float that is not finite) sends the
    whole report to ``json.dumps``."""
    out: list[str] = []
    try:
        _write(report, out, "\n")
    except _Unwritten:
        return json.dumps(report, indent=2)
    return "".join(out)


def _emit(report: dict, out: Optional[str], started: float) -> None:
    report["wall_time_s"] = round(time.perf_counter() - started, 6)
    text = _dumps(report) + "\n"
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
        g = subdivide(_load_graph(args.of)[0], args.k)
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
        g = make_random_connected(args.vertices, args.edges, seed=args.seed)
    elif family == "random_cactus":
        if args.blocks is None:
            raise PreconditionError("make random_cactus needs --blocks")
        g = make_random_cactus(args.blocks, seed=args.seed)
    else:  # pragma: no cover - argparse restricts choices
        raise PreconditionError(f"unknown family {family!r}")
    if args.scale is not None:
        g = scale(g, as_rational(args.scale))
    _write_graph(g, args.out)
    return 0


def cmd_subdivide(args) -> int:
    g = subdivide(_load_graph(args.graph)[0], args.k)
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
    g, digest = _load_graph(args.graph)
    t = theta.minimal_theta(g)
    report = {
        "command": "info",
        "inputs": [digest],
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
    g, digest = _load_graph(args.graph)
    w = witness.construct_witness(g)
    omega = witness.omega_from_witness(w)
    certificate = {
        "kind": "witness",
        "graph": digest,
        "theta": _theta_json(w.theta),
        "window_start": format_rational(w.window_start),
        "index": w.index,
        "case": w.case,
        "x_points": _points_json(w.points_x),
        "y_points": _points_json(w.points_y),
        "z_points": _points_json(w.points_z),
        "b_points": _points_json(w.b_points),
        "r_points": _points_json(w.r_points),
        "b_labels": list(w.metric.labels[:3]),
        "r_labels": list(w.metric.labels[3:]),
        "gap": format_rational(w.gap),
        "omega": _weighting_json(omega),
        "distances": _pair_distances_json(w.metric),
    }
    report = {
        "command": "witness",
        "inputs": [digest],
        "verdict": "negative type refuted",
        "certificate": certificate,
    }
    _emit(report, args.out, started)
    return 0


# ---------------------------------------------------------------------------
# negtype / gap / l1
# ---------------------------------------------------------------------------


def _metric_inputs(args) -> tuple[list[Point], FiniteMetric, list[dict]]:
    """The points, their metric and the two files' digests."""
    g, graph_digest = _load_graph(args.graph)
    pts, points_digest = _load_points(g, args.points)
    return pts, distance_matrix(g, pts), [graph_digest, points_digest]


def _emit_metric_report(
    args,
    started: float,
    pts: list[Point],
    m: FiniteMetric,
    digests: list[dict],
    verdict: str,
    head: dict,
    body: dict,
) -> None:
    """The report of negtype, gap or l1: its certificate holds the ``head``
    fields, the graph digest, the points and their labels (those of ``m``),
    then ``body``."""
    certificate = {
        **head,
        "graph": digests[0],
        "points": _points_json(pts),
        "labels": list(m.labels),
        **body,
    }
    report = {
        "command": args.command,
        "inputs": digests,
        "verdict": verdict,
        "certificate": certificate,
    }
    _emit(report, args.out, started)


def cmd_negtype(args) -> int:
    started = time.perf_counter()
    pts, m, digests = _metric_inputs(args)
    result = analysis.is_negative_type(m)
    body: dict = {"basepoint": result.basepoint}
    if result.verdict:
        t = result.transcript
        body["transcript"] = {
            "perm": list(t.perm),
            "diag": [format_rational(v) for v in t.diag],
            "lower": [[format_rational(v) for v in row] for row in t.lower],
        }
    else:
        body["violation"] = _weighting_json(result.violation)
        body["gamma"] = format_rational(result.energy)
    verdict = "negative type" if result.verdict else "not negative type"
    head = {"kind": "negative_type", "verdict": result.verdict}
    _emit_metric_report(args, started, pts, m, digests, verdict, head, body)
    return 0 if result.verdict else 1


# The five rational bounds of a gap certificate, written and re-read by name.
_GAP_BOUNDS = ("lower", "upper", "upper_spectral", "upper_diameter", "spectral_mu")


def cmd_gap(args) -> int:
    started = time.perf_counter()
    pts, m, digests = _metric_inputs(args)
    bracket = analysis.gap_bracket(m, starts=args.starts, iters=args.iters, seed=args.seed)
    body = {
        "starts": args.starts,
        "iters": args.iters,
        "seed": args.seed,
        **{name: format_rational(getattr(bracket, name)) for name in _GAP_BOUNDS},
        "weighting": _weighting_json(bracket.weighting),
    }
    head = {"kind": "gap_bracket"}
    _emit_metric_report(args, started, pts, m, digests, "bracket produced", head, body)
    return 0


def cmd_l1(args) -> int:
    started = time.perf_counter()
    pts, m, digests = _metric_inputs(args)
    result = l1cut.is_l1_embeddable(m, max_points=args.max_cuts_n)
    feasible = isinstance(result, l1cut.CutDecomposition)
    if feasible:
        labels = m.labels
        body = {
            "cuts": [
                {
                    "members": [labels[i] for i in cut.members],
                    "member_indices": list(cut.members),
                    "weight": format_rational(weight),
                }
                for cut, weight in result.entries
            ]
        }
    else:
        pairs = itertools.combinations(range(m.size), 2)
        body = {
            "farkas": [
                [i, j, format_rational(v)]
                for (i, j), v in zip(pairs, result.pair_values)
                if v != 0
            ]
        }
    verdict = "l1-embeddable" if feasible else "not l1-embeddable"
    head = {"kind": "l1", "feasible": feasible}
    _emit_metric_report(args, started, pts, m, digests, verdict, head, body)
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
# before any exact work.  The exact checks themselves live in the library's
# certificate constructors and helpers, which raise InternalCheckError on a
# false claim; here stored values are only compared with re-derived ones.


def _is_index(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


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
    if len({tuple(row[:indices]) for row in rows}) != len(rows):
        raise PreconditionError(f"{name!r} lists the same indices twice")
    return rows


def _points_from_json(g: MetricGraph, cert: dict, name: str) -> list[Point]:
    return [canonical_point(g, graphio.point_from_dict(d)) for d in _field(cert, name, list)]


def _weighting_from_json(cert: dict, name: str, n: int) -> analysis.Weighting:
    """``cert[name]`` as a weighting on the certificate's ``n`` points."""
    rows = _rows(cert, name, 1)
    for i, _ in rows:
        if i >= n:
            raise PreconditionError(f"{name!r} names index {i}, not one of the {n} points")
    return analysis.Weighting.from_map({i: v for i, v in rows})


def _metric(g: MetricGraph, pts: list[Point], labels: list) -> FiniteMetric:
    """The metric of a certificate's points, whose stored labels must be theirs."""
    _require(labels == [point_label(p) for p in pts], "stored labels do not match the points")
    return distance_matrix(g, pts)


def _verify_witness(g: MetricGraph, cert: dict) -> str:
    b = _points_from_json(g, cert, "b_points")
    r = _points_from_json(g, cert, "r_points")
    if len(b) != 3 or len(r) != 3:
        raise PreconditionError("witness must have three B and three R points")
    stored = {(i, j): as_rational(v) for i, j, v in _rows(cert, "distances", 2)}
    pairs = list(itertools.combinations(range(6), 2))
    if sorted(stored) != pairs:
        raise PreconditionError("witness distances must be those of the 15 pairs i < j")
    stated_gap = as_rational(_field(cert, "gap"))
    omega = _weighting_from_json(cert, "omega", 6)
    labels = _field(cert, "b_labels", list) + _field(cert, "r_labels", list)
    m = _metric(g, b + r, labels)
    for i, j in pairs:
        _require(
            stored[(i, j)] == m.distance(i, j),
            f"stored distance on pair ({i},{j}) does not match the graph",
        )
    gap_value = witness.gap(m, (0, 1, 2), (3, 4, 5))
    _require(gap_value == stated_gap, "stored gap does not match")
    witness.check_omega(m, gap_value, omega)
    return f"gap {cert['gap']} reproduced from ambient distances"


def _verify_negtype(g: MetricGraph, cert: dict) -> str:
    pts = _points_from_json(g, cert, "points")
    labels = _field(cert, "labels", list)
    basepoint = _field(cert, "basepoint", int)
    if basepoint >= len(pts):
        raise PreconditionError(f"basepoint {basepoint} is not one of the {len(pts)} points")
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
            and all(isinstance(row, list) and len(row) == size for row in lower)
        ):
            raise PreconditionError("elimination transcript is malformed")
        read = _literal_reader()
        transcript = analysis.PSDTranscript(
            perm=tuple(perm),
            diag=tuple(map(read, diag)),
            lower=tuple(tuple(map(read, row)) for row in lower),
        )
        _require(
            transcript.verify(*analysis._scaled_gram(_metric(g, pts, labels), basepoint)),
            "elimination transcript does not factor the Gram matrix",
        )
        return "transcript certifies positive semidefiniteness"
    w = _weighting_from_json(cert, "violation", len(pts))
    stated_gamma = as_rational(_field(cert, "gamma"))
    value = analysis.violation_energy(_metric(g, pts, labels), w)
    _require(value == stated_gamma, "stored gamma does not match")
    return f"violating weighting has energy {cert['gamma']} > 0"


def _verify_gap(g: MetricGraph, cert: dict) -> str:
    pts = _points_from_json(g, cert, "points")
    labels = _field(cert, "labels", list)
    w = _weighting_from_json(cert, "weighting", len(pts))
    bounds = {name: as_rational(_field(cert, name)) for name in _GAP_BOUNDS}
    analysis.GapBracket(metric=_metric(g, pts, labels), weighting=w, **bounds)
    return "lower bound reproduced by its weighting, upper bounds by spectral_mu and diam/4"


def _verify_l1(g: MetricGraph, cert: dict) -> str:
    pts = _points_from_json(g, cert, "points")
    labels = _field(cert, "labels", list)
    n = len(pts)
    if _field(cert, "feasible", bool):
        m = _metric(g, pts, labels)
        entries = []
        for entry in _field(cert, "cuts", list):
            if not isinstance(entry, dict):
                raise PreconditionError("every cut must be an object")
            members = _field(entry, "member_indices", list)
            if not all(_is_index(i) and i < n for i in members):
                raise PreconditionError("cut member indices must be indices of the points")
            if len(set(members)) != len(members):
                raise PreconditionError("cut member indices must not repeat")
            _require(
                _field(entry, "members", list) == [labels[i] for i in members],
                "cut member labels do not match the points",
            )
            entries.append(
                (l1cut.Cut.from_members(n, members), as_rational(_field(entry, "weight")))
            )
        l1cut.CutDecomposition(metric=m, entries=tuple(entries))
        return f"{len(entries)} cuts reproduce the metric exactly"
    pairs = list(itertools.combinations(range(n), 2))
    values = {(i, j): Fraction(0) for i, j in pairs}
    for i, j, v in _rows(cert, "farkas", 2):
        if (i, j) not in values:
            raise PreconditionError(f"farkas entry names ({i}, {j}), not a pair of {n} points")
        values[(i, j)] = as_rational(v)
    pair_values = tuple(values[p] for p in pairs)
    l1cut.FarkasCertificate(metric=_metric(g, pts, labels), pair_values=pair_values)
    return "separating vector verified against every cut"


_VERIFIERS: dict[str, Callable[[MetricGraph, dict], str]] = {
    "witness": _verify_witness,
    "negative_type": _verify_negtype,
    "gap_bracket": _verify_gap,
    "l1": _verify_l1,
}


def cmd_verify(args) -> int:
    started = time.perf_counter()
    text, cert_digest = _read(args.certificate)
    doc = graphio.loads_json(text)
    cert = doc.get("certificate", doc) if isinstance(doc, dict) else doc
    if not isinstance(cert, dict):
        raise PreconditionError("certificate must be a JSON object")
    kind = cert.get("kind")
    if not isinstance(kind, str) or kind not in _VERIFIERS:
        raise PreconditionError(f"unknown certificate kind {kind!r}")
    expected = _field(_field(cert, "graph", dict), "sha256", str)
    g, graph_digest = _load_graph(args.graph)
    report = {
        "command": "verify",
        "inputs": [cert_digest, graph_digest],
        "certificate_kind": kind,
    }
    # a false claim, stated or found by a certificate constructor, exits 1
    try:
        _require(
            expected == graph_digest["sha256"],
            "certificate was issued for a different graph file",
        )
        detail, valid = _VERIFIERS[kind](g, cert), True
    except (_VerifyFailure, InternalCheckError) as exc:
        detail, valid = str(exc), False
    report.update(valid=valid, detail=detail)
    _emit(report, args.out, started)
    return 0 if valid else 1


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
    _expect(w.gap == witness._TWELFTH, f"gap {w.gap} != 1/12")
    b = sorted(point_label(p) for p in w.b_points)
    r = sorted(point_label(p) for p in w.r_points)
    _expect(b == ["u", "v", "v"], f"B is {b}")
    _expect(r == ["e1@1/12", "e2@11/12", "e3@11/12"], f"R is {r}")
    _expect(w.index == 1, f"index {w.index}")
    return "gap 1/12 with B={u,v,v} and R at offsets 1/12"


def _check_witness_theta222() -> str:
    w = witness.construct_witness(make_theta(2, 2, 2))
    _expect(w.gap == witness._TWELFTH, f"gap {w.gap} != 1/12")
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
    m = dec.metric
    result = l1cut.is_l1_embeddable(m, max_points=16)
    _expect(
        isinstance(result, l1cut.CutDecomposition),
        "LP reported the 2-subdivision of K4 as not l1",
    )
    # is_l1_embeddable solves the 16 independent face cuts once, so the
    # exact simplex runs on the same face here
    face_lp = l1cut._Phase1(m, columns=(l1cut._equality_face(m)[1] == 0).nonzero()[0])
    _expect(face_lp.solve()[0] == 0, "the face LP found no decomposition")
    # the decomposition is unique, so both must find the hand-built one
    for found, name in ((result, "LP"), (face_lp.decomposition(), "face LP")):
        _expect(
            set(found.entries) == set(dec.entries),
            f"{name} decomposition differs from the hand-built one",
        )
    return f"exact LP feasible with {len(result.entries)} cuts"


@functools.cache
def _k23_subdivision_witness() -> witness.SubdivisionWitness:
    g0 = from_spec(FamilySpec(tag="complete_bipartite", sizes=(2, 3)))
    return witness.subdivision_witness(g0, 180)


def _check_k23_subdivision() -> str:
    sw = _k23_subdivision_witness()
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


def _check_proposed_refutations() -> str:
    unit = witness.construct_witness(make_theta(1, 1, 1)).metric
    k23 = _k23_subdivision_witness().metric_rounded
    energies = []
    for name, m in (("unit theta", unit), ("K2,3 subdivision", k23)):
        G = analysis._gram_array(m)
        A = G.tolist()
        w = analysis._proposed_violation(G, A)
        held, _ = analysis.psd_decompose(A, 2 * m.den)
        _expect(w is not None, f"{name}: no float proposal passes the integer check")
        _expect(not held, f"{name}: the elimination holds what the proposal refutes")
        energies.append(analysis.violation_energy(m, w))
    _expect(energies[0] == Fraction(1, 432), f"unit theta: proposed gamma {energies[0]} != 1/432")
    return (
        f"float proposals refute the unit theta (gamma 1/432) and K2,3 "
        f"(gamma {format_rational(energies[1])}), as the elimination does"
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
        _expect(w.gap >= witness._TWELFTH, f"seed {seed}: gap {w.gap} below 1/12")
        witness.omega_from_witness(w)  # checks that its energy is gap/36
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
    ("proposal_matches_elimination", _check_proposed_refutations),
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


_GRAPH = (("graph",), {})
_POINTS = (("--points",), {"required": True})

# Every command: its help line, its handler and its arguments as
# (flags, add_argument options); each also takes --out.
_COMMANDS: dict[str, tuple[str, Callable[..., int], list[tuple[tuple[str, ...], dict]]]] = {
    "make": ("construct a graph from a named family", cmd_make, [
        (("family",), {"choices": [*FAMILY_TAGS, "subdivide"]}),
        (("--lengths",), {"help": "comma-separated rationals (theta)"}),
        (("-n",), {"type": int, "help": "size (complete, cycle, path)"}),
        (("-a",), {"type": int, "help": "first side (complete_bipartite)"}),
        (("-b",), {"type": int, "help": "second side (complete_bipartite)"}),
        (("--vertices",), {"type": int, "help": "vertex count (random_connected)"}),
        (("--edges",), {"type": int, "help": "edge count (random_connected)"}),
        (("--blocks",), {"type": int, "help": "block count (random_cactus)"}),
        (("--seed",), {"type": int, "default": 0}),
        (("--scale",), {"help": "multiply all lengths by this rational"}),
        (("--of",), {"help": "input graph (subdivide)"}),
        (("-k",), {"type": int, "default": 1, "help": "subdivision parameter"}),
    ]),
    "subdivide": ("k-subdivide a unit-length graph", cmd_subdivide, [
        _GRAPH,
        (("-k",), {"type": int, "required": True}),
    ]),
    "info": ("graph summary and theta status", cmd_info, [_GRAPH]),
    "witness": ("six-point negative-type violation", cmd_witness, [_GRAPH]),
    "negtype": ("exact negative-type decision", cmd_negtype, [_GRAPH, _POINTS]),
    "gap": ("bracket the negative-type gap", cmd_gap, [
        _GRAPH,
        _POINTS,
        (("--starts",), {"type": int, "default": 24}),
        (("--iters",), {"type": int, "default": 200}),
        (("--seed",), {"type": int, "default": 0}),
    ]),
    "l1": ("exact l1-embeddability decision", cmd_l1, [
        _GRAPH,
        _POINTS,
        (("--max-cuts-n",), {"type": int, "default": l1cut.DEFAULT_MAX_POINTS}),
    ]),
    "verify": ("re-check a certificate against a graph", cmd_verify, [
        (("certificate",), {}),
        _GRAPH,
    ]),
    "check-paper": ("run the reproduction suite", cmd_check_paper, [
        (("--list",), {"action": "store_true", "help": "list checks without running"}),
    ]),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every command, or of the one named ``command``."""
    parser = argparse.ArgumentParser(
        prog="thetagap",
        description="metric-graph negative-type toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, arguments) in _COMMANDS.items():
        if command not in (None, name):
            continue
        p = sub.add_parser(name, help=help_text)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        p.add_argument("--out", help="output file; a report is also printed")
        p.set_defaults(handler=handler)
    return parser


# Building a parser takes several times as long as parsing with it.
_parser = functools.cache(build_parser)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    named = argv[0] if argv and argv[0] in _COMMANDS else None
    args = _parser(named).parse_args(argv)
    try:
        return args.handler(args)
    except InternalCheckError:
        traceback.print_exc()
        return 70
    except ThetaGapError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
