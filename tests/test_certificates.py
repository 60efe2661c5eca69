"""Certificates end to end: frozen reports, and what ``verify`` must reject.

Six certificate shapes are produced on the unit theta and on C4: a witness,
a negative-type verdict held and refuted, a gap bracket, and an l1 verdict
that embeds and one that is refuted.  Their reports must equal the golden
files in ``tests/golden/`` apart from ``wall_time_s`` and the input paths.
``verify`` must reject every certificate with one checked value changed
(exit 1, or exit 2 where the change leaves the value's domain), a gap
bracket whose spectral_mu is lowered with its bounds restated to match, and
every field of the wrong JSON type with exit 2 and a one-line error.
"""

import contextlib
import copy
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from thetagap import EdgePoint, Vertex, dumps_points
from thetagap.cli import main

GOLDEN = Path(__file__).parent / "golden"

_THETA_POINTS = [
    Vertex("u"),
    Vertex("v"),
    Vertex("v"),
    EdgePoint("e1", Fraction(1, 12)),
    EdgePoint("e2", Fraction(11, 12)),
    EdgePoint("e3", Fraction(11, 12)),
]

# shape: (graph, command line after the graph, exit code of the producer)
_SHAPES = {
    "witness": ("theta", ["witness"], 0),
    "negtype_held": ("c4", ["negtype", "--points", "c4_points"], 0),
    "negtype_refuted": ("theta", ["negtype", "--points", "theta_points"], 1),
    "gap": ("theta", ["gap", "--points", "theta_points"], 0),
    "l1_embeds": ("c4", ["l1", "--points", "c4_points"], 0),
    "l1_refuted": ("theta", ["l1", "--points", "theta_points"], 1),
}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def made(tmp_path_factory):
    """Input files and each shape's (code, report, certificate path)."""
    d = tmp_path_factory.mktemp("certs")
    files = {name: d / f"{name}.json" for name in ("theta", "c4", "theta_points", "c4_points")}
    assert _run(["make", "theta", "--lengths", "1,1,1", "--out", files["theta"]])[0] == 0
    assert _run(["make", "cycle", "-n", "4", "--out", files["c4"]])[0] == 0
    files["theta_points"].write_text(dumps_points(_THETA_POINTS))
    files["c4_points"].write_text(dumps_points([Vertex(f"v{i}") for i in range(1, 5)]))
    shapes = {}
    for shape, (graph, argv, _) in _SHAPES.items():
        cert = d / f"{shape}.cert.json"
        argv = [argv[0], files[graph], *(files.get(a, a) for a in argv[1:]), "--out", cert]
        code, out, _ = _run(argv)
        shapes[shape] = (code, json.loads(out), cert)
    return files, shapes


def _verify(made, shape, cert, tmp_path):
    files, _ = made
    path = tmp_path / "changed.json"
    path.write_text(json.dumps({"certificate": cert}))
    return _run(["verify", path, files[_SHAPES[shape][0]]])


def _certificate(made, shape):
    return copy.deepcopy(made[1][shape][1]["certificate"])


# ---------------------------------------------------------------------------
# golden reports
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("shape", sorted(_SHAPES))
def test_report_matches_golden(made, shape):
    code, report, _ = made[1][shape]
    assert code == _SHAPES[shape][2]
    del report["wall_time_s"]
    for digest in report["inputs"] + [report["certificate"]["graph"]]:
        del digest["path"]
    assert json.dumps(report, indent=2) + "\n" == (GOLDEN / f"{shape}.json").read_text()


@pytest.mark.parametrize("shape", sorted(_SHAPES))
def test_every_shape_verifies(made, shape, tmp_path):
    code, out, _ = _verify(made, shape, _certificate(made, shape), tmp_path)
    assert code == 0 and json.loads(out)["valid"] is True


# ---------------------------------------------------------------------------
# deterministic regressions
# ---------------------------------------------------------------------------


def _assert_rejected(made, shape, cert, tmp_path):
    code, out, _ = _verify(made, shape, cert, tmp_path)
    assert code == 1 and json.loads(out)["valid"] is False
    return json.loads(out)["detail"]


def _plus(value, delta):
    return str(Fraction(value) + delta)


@pytest.mark.parametrize(
    "edit",
    [
        lambda c: c.update(upper=c["lower"]),
        lambda c: c.update(upper_diameter=_plus(c["upper_diameter"], 1)),
        lambda c: c.update(upper_spectral=_plus(c["upper_spectral"], Fraction(-1, 10**6))),
        lambda c: c.update(spectral_mu=_plus(c["spectral_mu"], Fraction(1, 10**6))),
    ],
    ids=["upper_is_lower", "upper_diameter_off_by_one", "upper_spectral_off", "spectral_mu_alone"],
)
def test_verify_rederives_every_gap_bound(made, edit, tmp_path):
    cert = _certificate(made, "gap")
    edit(cert)
    _assert_rejected(made, "gap", cert, tmp_path)


@settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(cut=st.fractions(min_value=Fraction(1, 10**4), max_value=Fraction(1, 2)))
def test_verify_replays_the_mu_test(made, tmp_path, cut):
    # lower spectral_mu and restate upper_spectral and upper to match it:
    # only the semidefiniteness test behind spectral_mu can reject
    cert = _certificate(made, "gap")
    mu = Fraction(cert["spectral_mu"]) * (1 - cut)
    assert mu > 0
    cert.update(spectral_mu=str(mu), upper_spectral=str(mu / 2))
    cert["upper"] = str(min(mu / 2, Fraction(cert["upper_diameter"])))
    assert Fraction(cert["upper"]) >= Fraction(cert["lower"])
    assert "spectral_mu" in _assert_rejected(made, "gap", cert, tmp_path)


@pytest.mark.parametrize(
    "shape, field",
    [
        ("witness", "b_labels"),
        ("witness", "r_labels"),
        ("negtype_held", "labels"),
        ("negtype_refuted", "labels"),
        ("gap", "labels"),
        ("l1_embeds", "labels"),
        ("l1_refuted", "labels"),
    ],
)
def test_verify_rejects_relabelled_points(made, shape, field, tmp_path):
    for relabel in (lambda labels: labels[::-1], lambda labels: labels[:-1]):
        cert = _certificate(made, shape)
        cert[field] = relabel(cert[field])
        assert cert[field] != _certificate(made, shape)[field]
        assert "labels" in _assert_rejected(made, shape, cert, tmp_path)


def test_verify_rejects_relabelled_cut_members(made, tmp_path):
    cert = _certificate(made, "l1_embeds")
    cert["cuts"][0]["members"] = ["v3", "v4"]
    _assert_rejected(made, "l1_embeds", cert, tmp_path)


@pytest.mark.parametrize("shape", ["negtype_held", "negtype_refuted"])
@pytest.mark.parametrize("basepoint", ["x", None, [], -1, 6, 1.5, True])
def test_verify_malformed_basepoint_exits_2(made, shape, basepoint, tmp_path):
    cert = _certificate(made, shape)
    cert["basepoint"] = basepoint
    code, _, err = _verify(made, shape, cert, tmp_path)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "shape, edit, message",
    [
        ("negtype_held", lambda c: c["transcript"]["lower"][0].pop(), "transcript"),
        ("negtype_held", lambda c: c["transcript"]["lower"][-1].append("0"), "transcript"),
        ("witness", lambda c: c["b_points"].pop(), "three B and three R"),
        ("witness", lambda c: c["r_points"].append(c["r_points"][0]), "three B and three R"),
    ],
    ids=["short_lower_row", "long_lower_row", "two_b_points", "four_r_points"],
)
def test_verify_rejects_a_row_of_the_wrong_length_with_exit_2(
    made, shape, edit, message, tmp_path
):
    cert = _certificate(made, shape)
    edit(cert)
    code, _, err = _verify(made, shape, cert, tmp_path)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize(
    "shape, count, body",
    [
        ("l1_embeds", 0, {"cuts": []}),
        ("l1_refuted", 0, {"farkas": []}),
        ("gap", 0, {"weighting": []}),
        ("gap", 1, {"weighting": []}),
    ],
    ids=["l1_cuts_0", "l1_farkas_0", "gap_0", "gap_1"],
)
def test_verify_refuses_the_point_counts_the_producer_refuses(
    made, shape, count, body, tmp_path
):
    # a certificate over too few points exits 2 with the producer's message
    files, _ = made
    graph, argv, _ = _SHAPES[shape]
    points = tmp_path / "few.json"
    points.write_text(dumps_points(_THETA_POINTS[:count]))  # only gap keeps a point
    produced = _run([argv[0], files[graph], "--points", points])
    cert = _certificate(made, shape)
    cert.update(points=cert["points"][:count], labels=cert["labels"][:count], **body)
    code, out, err = _verify(made, shape, cert, tmp_path)
    assert (code, out) == (2, "") and err.count("\n") == 1
    assert produced == (2, "", err)


# ---------------------------------------------------------------------------
# fuzz: one changed field
# ---------------------------------------------------------------------------


def _leaves(shape, cert):
    """(path, kind) of every checked value whose change makes the claim false."""
    out = []
    for name in ("points", "b_points", "r_points"):
        out += [((name, i), "point") for i in range(len(cert.get(name, ())))]
    for name in ("labels", "b_labels", "r_labels"):
        out += [((name, i), "label") for i in range(len(cert.get(name, ())))]
    for name in ("gap", "gamma", "lower", "upper", "upper_spectral", "upper_diameter", "spectral_mu"):
        if name in cert:
            out.append(((name,), "rational"))
    for name in ("omega", "violation", "weighting", "distances"):
        rows = cert.get(name, ())
        out += [((name, k, len(row) - 1), "rational") for k, row in enumerate(rows)]
    if "transcript" in cert:
        t = cert["transcript"]
        out += [(("transcript", "diag", k), "rational") for k in range(len(t["diag"]))]
        out += [
            (("transcript", "lower", i, j), "rational")
            for i in range(len(t["lower"]))
            for j in range(i)
        ]
    for k, cut in enumerate(cert.get("cuts", ())):
        out.append((("cuts", k, "weight"), "rational"))
        out += [(("cuts", k, "members", i), "label") for i in range(len(cut["members"]))]
    out += [(("farkas", k, 2), "farkas") for k in range(len(cert.get("farkas", ())))]
    return out


def _get(cert, path):
    for key in path:
        cert = cert[key]
    return cert


def _put(cert, path, value):
    _get(cert, path[:-1])[path[-1]] = value


_OTHER_POINTS = {
    "theta": [{"vertex": "u"}, {"vertex": "v"}]
    + [{"edge": f"e{k}", "offset": "1/2"} for k in (1, 2, 3)],
    "c4": [{"vertex": f"v{k}"} for k in range(1, 5)]
    + [{"edge": f"e{k}", "offset": "1/2"} for k in range(1, 5)],
}
_DELTAS = st.fractions(min_value=-3, max_value=3, max_denominator=40).filter(bool)
_FUZZ = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@_FUZZ
@given(data=st.data())
def test_verify_never_accepts_a_changed_value(made, tmp_path, data):
    shape = data.draw(st.sampled_from(sorted(_SHAPES)))
    cert = _certificate(made, shape)
    path, kind = data.draw(st.sampled_from(_leaves(shape, cert)))
    old = _get(cert, path)
    if kind == "point":
        new = data.draw(st.sampled_from(_OTHER_POINTS[_SHAPES[shape][0]]))
    elif kind == "label":
        new = data.draw(st.text(max_size=6))
    elif kind == "rational":
        new = _plus(old, data.draw(_DELTAS))
    else:
        # more than the vector's whole mass on one pair makes every cut
        # separating that pair positive, whatever the other entries are
        mass = sum(abs(Fraction(v)) for _, _, v in cert["farkas"])
        new = _plus(old, mass + data.draw(st.integers(1, 5)))
    assume(new != old)
    _put(cert, path, new)
    code, out, err = _verify(made, shape, cert, tmp_path)
    assert code in (1, 2), (shape, path, new, code)
    assert "Traceback" not in err
    if code == 1:
        assert json.loads(out)["valid"] is False


# The JSON type of each checked top-level field; every other one is a list.
_FIELD_TYPES = {
    "graph": "object",
    "transcript": "object",
    "verdict": "bool",
    "feasible": "bool",
    "basepoint": "index",
    "gap": "rational",
    "gamma": "rational",
    "lower": "rational",
    "upper": "rational",
    "upper_spectral": "rational",
    "upper_diameter": "rational",
    "spectral_mu": "rational",
}
_CHECKED = {
    "witness": ("b_points", "r_points", "b_labels", "r_labels", "distances", "gap", "omega"),
    "negtype_held": ("points", "labels", "basepoint", "verdict", "transcript"),
    "negtype_refuted": ("points", "labels", "basepoint", "verdict", "violation", "gamma"),
    "gap": ("points", "labels", "weighting", "lower", "upper", "upper_spectral",
            "upper_diameter", "spectral_mu"),
    "l1_embeds": ("points", "labels", "feasible", "cuts"),
    "l1_refuted": ("points", "labels", "feasible", "farkas"),
}
_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(allow_nan=False, allow_infinity=False).filter(lambda x: x != int(x)),
    st.sampled_from(["", "x", "1/0", "1.5", "p/q"]),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.sampled_from(["a", "sha256"]), st.integers(), max_size=1),
)


def _wrong_type(kind, value) -> bool:
    is_index = isinstance(value, int) and not isinstance(value, bool) and value >= 0
    return {
        "object": not isinstance(value, dict),
        "bool": not isinstance(value, bool),
        "index": not is_index,
        # none of the junk strings is a rational literal
        "rational": not isinstance(value, (int, str)) or isinstance(value, bool),
        "list": not isinstance(value, list),
    }[kind]


@_FUZZ
@given(data=st.data())
def test_verify_rejects_a_wrongly_typed_field_with_exit_2(made, tmp_path, data):
    shape = data.draw(st.sampled_from(sorted(_SHAPES)))
    cert = _certificate(made, shape)
    field = data.draw(st.sampled_from(("graph",) + _CHECKED[shape]))
    kind = _FIELD_TYPES.get(field, "list")
    value = data.draw(_JUNK.filter(lambda v: _wrong_type(kind, v)))
    cert[field] = value
    code, _, err = _verify(made, shape, cert, tmp_path)
    assert code == 2, (shape, field, value, code)
    assert err.startswith("error: ") and err.count("\n") == 1
