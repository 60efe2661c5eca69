"""Command-line behavior: reports, certificates, exit codes."""

import argparse
import enum
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetagap.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


@pytest.fixture
def theta_file(tmp_path, capsys):
    path = tmp_path / "theta.json"
    assert main(["make", "theta", "--lengths", "1,1,1", "--out", str(path)]) == 0
    capsys.readouterr()
    return str(path)


@pytest.fixture
def c4_file(tmp_path, capsys):
    path = tmp_path / "c4.json"
    assert main(["make", "cycle", "-n", "4", "--out", str(path)]) == 0
    capsys.readouterr()
    return str(path)


@pytest.fixture
def witness_points_file(tmp_path):
    from thetagap import EdgePoint, Vertex, dumps_points

    path = tmp_path / "pts.json"
    path.write_text(
        dumps_points(
            [
                Vertex("u"),
                Vertex("v"),
                Vertex("v"),
                EdgePoint("e1", Fraction(1, 12)),
                EdgePoint("e2", Fraction(11, 12)),
                EdgePoint("e3", Fraction(11, 12)),
            ]
        )
    )
    return str(path)


# ---------------------------------------------------------------------------
# construction and info
# ---------------------------------------------------------------------------


def test_make_writes_a_loadable_graph(theta_file):
    from thetagap import loads_graph

    g = loads_graph(open(theta_file).read())
    assert set(g.vertices) == {"u", "v"}
    assert len(g.edges) == 3


def test_make_is_deterministic(tmp_path, capsys):
    args = ["make", "random_connected", "--vertices", "6", "--edges", "9", "--seed", "3"]
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second


def test_make_missing_parameters_exit_2(capsys):
    code, _ = run(capsys, "make", "theta")
    assert code == 2


def test_make_unknown_family_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["make", "moebius"])
    assert exc.value.code == 2


def test_info_reports_theta_status(theta_file, c4_file, capsys):
    code, doc = run_json(capsys, "info", theta_file)
    assert code == 0
    assert doc["theta_containing"] is True
    assert doc["minimal_theta"]["total_length"] == "3"
    code, doc = run_json(capsys, "info", c4_file)
    assert code == 0
    assert doc["theta_containing"] is False
    assert doc["minimal_theta"] is None


def test_missing_file_exits_2(capsys):
    code, _ = run(capsys, "info", "no-such-file.json")
    assert code == 2


def test_malformed_graph_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _ = run(capsys, "info", str(path))
    assert code == 2


def test_non_string_edge_endpoint_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    for end in (["a"], {}):
        edge = {"id": "e", "ends": [end, "b"], "length": "1"}
        path.write_text(json.dumps({"vertices": ["a", "b"], "edges": [edge]}))
        _assert_one_line_error(capsys, "info", str(path))


def test_graph_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"vertices": ["\xe9"], "edges": []}')
    assert "can't decode byte 0xe9" in _assert_one_line_error(capsys, "info", str(path))


_HUGE = "1" + "0" * 5000


def test_rational_literal_past_the_int_string_limit_exits_2(tmp_path, capsys):
    path = tmp_path / "huge.json"
    edge = {"id": "e", "ends": ["a", "b"], "length": _HUGE}
    path.write_text(json.dumps({"vertices": ["a", "b"], "edges": [edge]}))
    assert "5001 characters" in _assert_one_line_error(capsys, "info", str(path))
    # the same length as a JSON number
    text = json.dumps({"vertices": ["a", "b"], "edges": [edge]})
    path.write_text(text.replace(f'"{_HUGE}"', _HUGE))
    _assert_one_line_error(capsys, "info", str(path))


def test_point_offset_past_the_int_string_limit_exits_2(theta_file, tmp_path, capsys):
    path = tmp_path / "pts.json"
    points = [{"vertex": "u"}, {"edge": "e1", "offset": f"1/{_HUGE}"}]
    path.write_text(json.dumps({"points": points}))
    _assert_one_line_error(capsys, "negtype", theta_file, "--points", str(path))


def test_certificate_rational_past_the_int_string_limit_exits_2(
    theta_file, witness_points_file, tmp_path, capsys
):
    cert = tmp_path / "gap.json"
    run(capsys, "gap", theta_file, "--points", witness_points_file, "--starts", "2",
        "--out", str(cert))
    doc = json.loads(cert.read_text())
    doc["certificate"]["spectral_mu"] = _HUGE
    cert.write_text(json.dumps(doc))
    _assert_one_line_error(capsys, "verify", str(cert), theta_file)


def test_subdivide_scales_counts(theta_file, tmp_path, capsys):
    out = tmp_path / "fine.json"
    code, _ = run(capsys, "subdivide", theta_file, "-k", "2", "--out", str(out))
    assert code == 0
    from thetagap import loads_graph

    g = loads_graph(out.read_text())
    assert len(g.vertices) == 2 + 3 * 2
    assert len(g.edges) == 3 * 3


# ---------------------------------------------------------------------------
# witness pipeline
# ---------------------------------------------------------------------------


def test_witness_report_and_verify_round_trip(theta_file, tmp_path, capsys):
    cert = tmp_path / "wit.json"
    code, doc = run_json(capsys, "witness", theta_file, "--out", str(cert))
    assert code == 0
    assert doc["certificate"]["gap"] == "1/12"
    assert sorted(doc["certificate"]["b_labels"]) == ["u", "v", "v"]
    code, doc = run_json(capsys, "verify", str(cert), theta_file)
    assert code == 0
    assert doc["valid"] is True


def test_verify_rejects_tampered_gap(theta_file, tmp_path, capsys):
    cert = tmp_path / "wit.json"
    run(capsys, "witness", theta_file, "--out", str(cert))
    doc = json.loads(cert.read_text())
    doc["certificate"]["gap"] = "1/2"
    cert.write_text(json.dumps(doc))
    code, report = run_json(capsys, "verify", str(cert), theta_file)
    assert code == 1
    assert report["valid"] is False


def test_verify_rejects_wrong_graph(theta_file, c4_file, tmp_path, capsys):
    cert = tmp_path / "wit.json"
    run(capsys, "witness", theta_file, "--out", str(cert))
    code, report = run_json(capsys, "verify", str(cert), c4_file)
    assert code == 1
    assert "different graph" in report["detail"]


def test_verify_unknown_kind_exits_2(theta_file, tmp_path, capsys):
    cert = tmp_path / "odd.json"
    for kind in ("mystery", ["negative_type"], {"negative_type": 1}):
        cert.write_text(json.dumps({"certificate": {"kind": kind}}))
        _assert_one_line_error(capsys, "verify", str(cert), theta_file)


def _assert_one_line_error(capsys, *argv):
    code = main(list(argv))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


def test_verify_truncated_distances_exits_2(theta_file, tmp_path, capsys):
    cert = tmp_path / "wit.json"
    run(capsys, "witness", theta_file, "--out", str(cert))
    doc = json.loads(cert.read_text())
    doc["certificate"]["distances"] = doc["certificate"]["distances"][:3]
    cert.write_text(json.dumps(doc))
    _assert_one_line_error(capsys, "verify", str(cert), theta_file)


@pytest.mark.parametrize("content", [[], [{"kind": "witness"}], {"certificate": []}])
def test_verify_non_object_certificate_exits_2(theta_file, tmp_path, capsys, content):
    cert = tmp_path / "list.json"
    cert.write_text(json.dumps(content))
    _assert_one_line_error(capsys, "verify", str(cert), theta_file)


def _drop(key):
    return lambda cert: cert.pop(key)


def _set(key, value):
    return lambda cert: cert.update({key: value})


def _truncate_first(key):
    return lambda cert: cert[key].__setitem__(0, cert[key][0][:2])


def _repeat_first_member(cert):
    # labels and indices stay consistent, so only the repeat is wrong
    cut = cert["cuts"][0]
    cut["member_indices"].append(cut["member_indices"][0])
    cut["members"].append(cut["members"][0])


@pytest.mark.parametrize(
    "source, mutate",
    [
        ("witness", _set("graph", "x")),
        ("witness", _drop("graph")),
        ("witness", _set("graph", {})),
        ("witness", lambda cert: cert["graph"].update(sha256=5)),
        ("witness", _set("omega", 5)),
        ("witness", _truncate_first("distances")),
        ("witness", _drop("b_points")),
        ("witness", lambda cert: cert["b_points"].__setitem__(0, {"vertex": ["u"]})),
        ("witness", lambda cert: cert["omega"].insert(0, [cert["omega"][0][0], "5"])),
        ("witness", lambda cert: cert["distances"].append([0, 9, "7"])),
        ("l1_refuted", _set("farkas", 5)),
        ("l1_refuted", _truncate_first("farkas")),
        ("l1_refuted", _drop("feasible")),
        ("l1_refuted", lambda cert: cert["farkas"].append([99, 100, "1"])),
        ("l1_refuted", lambda cert: cert["farkas"].append(cert["farkas"][0][:2] + ["-9"])),
        ("l1_embeds", lambda cert: cert["cuts"][0].pop("weight")),
        ("l1_embeds", lambda cert: cert["cuts"][0]["member_indices"].append(99)),
        ("l1_embeds", _repeat_first_member),
    ],
    ids=[
        "witness_graph_not_object",
        "witness_no_graph",
        "witness_graph_without_digest",
        "witness_digest_not_string",
        "witness_omega_not_list",
        "witness_distance_row_short",
        "witness_no_b_points",
        "witness_vertex_id_not_string",
        "witness_omega_index_twice",
        "witness_distance_pair_out_of_range",
        "l1_farkas_not_list",
        "l1_farkas_row_short",
        "l1_no_feasible",
        "l1_farkas_pair_out_of_range",
        "l1_farkas_pair_twice",
        "l1_cut_without_weight",
        "l1_cut_member_out_of_range",
        "l1_cut_member_twice",
    ],
)
def test_verify_malformed_certificate_exits_2(
    source, mutate, theta_file, c4_file, witness_points_file, tmp_path, capsys
):
    from thetagap import Vertex, dumps_points

    c4_points = tmp_path / "c4pts.json"
    c4_points.write_text(dumps_points([Vertex(f"v{i}") for i in range(1, 5)]))
    graph, argv = {
        "witness": (theta_file, ["witness", theta_file]),
        "l1_refuted": (theta_file, ["l1", theta_file, "--points", witness_points_file]),
        "l1_embeds": (c4_file, ["l1", c4_file, "--points", str(c4_points)]),
    }[source]
    cert = tmp_path / "cert.json"
    run(capsys, *argv, "--out", str(cert))
    doc = json.loads(cert.read_text())
    mutate(doc["certificate"])
    cert.write_text(json.dumps(doc))
    _assert_one_line_error(capsys, "verify", str(cert), graph)


@pytest.mark.parametrize(
    "entries", [[[7, "1/6"]], [[0, "1/2"], [7, "-1/2"]]], ids=["alone", "balanced"]
)
@pytest.mark.parametrize("name", ["omega", "violation", "weighting"])
def test_verify_weighting_index_outside_the_points_exits_2(
    name, entries, theta_file, witness_points_file, tmp_path, capsys
):
    # the same malformed index exits 2 whatever the other entries say
    argv = {
        "omega": ["witness", theta_file],
        "violation": ["negtype", theta_file, "--points", witness_points_file],
        "weighting": ["gap", theta_file, "--points", witness_points_file, "--starts", "2"],
    }[name]
    cert = tmp_path / "cert.json"
    run(capsys, *argv, "--out", str(cert))
    doc = json.loads(cert.read_text())
    doc["certificate"][name] = entries
    cert.write_text(json.dumps(doc))
    err = _assert_one_line_error(capsys, "verify", str(cert), theta_file)
    assert err == f"error: '{name}' names index 7, not one of the 6 points\n"


def test_witness_without_theta_exits_2(c4_file, capsys):
    code, _ = run(capsys, "witness", c4_file)
    assert code == 2


# ---------------------------------------------------------------------------
# negative type, bracket, l1
# ---------------------------------------------------------------------------


def test_negtype_true_with_verified_transcript(c4_file, tmp_path, capsys):
    from thetagap import Vertex, dumps_points

    pts = tmp_path / "pts.json"
    pts.write_text(dumps_points([Vertex(f"v{i}") for i in range(1, 5)]))
    cert = tmp_path / "neg.json"
    code, doc = run_json(
        capsys, "negtype", c4_file, "--points", str(pts), "--out", str(cert)
    )
    assert code == 0
    assert doc["certificate"]["verdict"] is True
    code, report = run_json(capsys, "verify", str(cert), c4_file)
    assert code == 0 and report["valid"] is True


def test_negtype_false_with_violation(theta_file, witness_points_file, tmp_path, capsys):
    cert = tmp_path / "neg.json"
    code, doc = run_json(
        capsys, "negtype", theta_file, "--points", witness_points_file,
        "--out", str(cert),
    )
    assert code == 1
    assert doc["certificate"]["verdict"] is False
    assert doc["certificate"]["violation"]
    code, report = run_json(capsys, "verify", str(cert), theta_file)
    assert code == 0 and report["valid"] is True


def _set_transcript(*changes):
    def mutate(cert):
        t = cert["transcript"]
        for (key, *at), value in changes:
            target = t[key]
            for i in at[:-1]:
                target = target[i]
            target[at[-1]] = value

    return mutate


@pytest.mark.parametrize(
    "mutate, message",
    [
        (_set_transcript((("diag", 1), "x"), (("lower", 2, 0), "y")), "not a rational literal: 'x'"),
        (_set_transcript((("lower", 2, 1), "z"), (("lower", 2, 2), "w")), "not a rational literal: 'z'"),
        (_set_transcript((("lower", 0, 0), 1), (("lower", 1, 1), True)), "not a rational: True"),
        (_set_transcript((("lower", 1, 0), "1/2"), (("lower", 2, 2), 1.5)), "not a rational: 1.5"),
        (_set_transcript((("diag", 0), "2"), (("lower", 2, 0), "1/0")), "not a rational literal: '1/0'"),
    ],
    ids=["first_of_two", "after_repeated_literals", "bool_after_int", "float", "zero_denominator"],
)
def test_transcript_literals_name_the_first_bad_one(c4_file, tmp_path, capsys, mutate, message):
    from thetagap import Vertex, dumps_points

    pts = tmp_path / "pts.json"
    pts.write_text(dumps_points([Vertex(f"v{i}") for i in range(1, 5)]))
    cert = tmp_path / "neg.json"
    run(capsys, "negtype", c4_file, "--points", str(pts), "--out", str(cert))
    doc = json.loads(cert.read_text())
    assert doc["certificate"]["transcript"]["lower"][1][0] == "1/2"  # read twice below
    mutate(doc["certificate"])
    cert.write_text(json.dumps(doc))
    err = _assert_one_line_error(capsys, "verify", str(cert), c4_file)
    assert err == f"error: {message}\n"


def test_verify_rejects_tampered_violation(theta_file, witness_points_file, tmp_path, capsys):
    cert = tmp_path / "neg.json"
    run(capsys, "negtype", theta_file, "--points", witness_points_file, "--out", str(cert))
    doc = json.loads(cert.read_text())
    doc["certificate"]["gamma"] = "1/7"
    cert.write_text(json.dumps(doc))
    code, report = run_json(capsys, "verify", str(cert), theta_file)
    assert code == 1 and report["valid"] is False


def test_gap_bracket_report(theta_file, witness_points_file, tmp_path, capsys):
    cert = tmp_path / "gap.json"
    code, doc = run_json(
        capsys, "gap", theta_file, "--points", witness_points_file,
        "--starts", "6", "--iters", "50", "--out", str(cert),
    )
    assert code == 0
    c = doc["certificate"]
    assert Fraction(c["lower"]) <= Fraction(c["upper"])
    assert Fraction(c["lower"]) > 0  # these six points refute negative type
    code, report = run_json(capsys, "verify", str(cert), theta_file)
    assert code == 0 and report["valid"] is True


def test_l1_infeasible_then_feasible(theta_file, witness_points_file, c4_file, tmp_path, capsys):
    cert = tmp_path / "l1a.json"
    code, doc = run_json(
        capsys, "l1", theta_file, "--points", witness_points_file, "--out", str(cert)
    )
    assert code == 1
    assert doc["certificate"]["feasible"] is False
    assert doc["certificate"]["farkas"]
    code, report = run_json(capsys, "verify", str(cert), theta_file)
    assert code == 0 and report["valid"] is True

    from thetagap import Vertex, dumps_points

    pts = tmp_path / "c4pts.json"
    pts.write_text(dumps_points([Vertex(f"v{i}") for i in range(1, 5)]))
    cert2 = tmp_path / "l1b.json"
    code, doc = run_json(
        capsys, "l1", c4_file, "--points", str(pts), "--out", str(cert2)
    )
    assert code == 0
    assert doc["certificate"]["feasible"] is True
    code, report = run_json(capsys, "verify", str(cert2), c4_file)
    assert code == 0 and report["valid"] is True


def test_l1_on_eleven_star_leaves_verifies_without_a_simplex(tmp_path, capsys, monkeypatch):
    # every cut of these leaves is on the equality face, more cuts than
    # pairs, so the float proposal's columns decide below twelve points too
    from thetagap import Vertex, dumps_points, l1cut

    def refuse(*args, **kwargs):
        raise AssertionError("the exact simplex ran")

    monkeypatch.setattr(l1cut, "_Phase1", refuse)
    graph = tmp_path / "star.json"
    graph.write_text(
        json.dumps(
            {
                "vertices": ["c"] + [f"l{i}" for i in range(1, 12)],
                "edges": [
                    {"id": f"e{i}", "ends": ["c", f"l{i}"], "length": str(i)}
                    for i in range(1, 12)
                ],
            }
        )
    )
    pts = tmp_path / "leaves.json"
    pts.write_text(dumps_points([Vertex(f"l{i}") for i in range(1, 12)]))
    cert = tmp_path / "l1.json"
    code, doc = run_json(capsys, "l1", str(graph), "--points", str(pts), "--out", str(cert))
    assert code == 0 and doc["certificate"]["feasible"] is True
    code, report = run_json(capsys, "verify", str(cert), str(graph))
    assert code == 0 and report["valid"] is True


def test_l1_refutation_past_one_int64_limb_verifies(theta_file, tmp_path, capsys, monkeypatch):
    # the witness plus five edge points at offsets j/997: the omega_i omega_j
    # refutation of the elimination's lifted direction needs more than one
    # int64 limb per cut sum.  A float proposal has entries of at most 2^20,
    # so it is switched off to make the elimination refute.
    from thetagap import EdgePoint, Vertex, analysis, dumps_points
    from thetagap.l1cut import _primitive_integers

    monkeypatch.setattr(analysis, "_float_directions", lambda G: [])

    pts = tmp_path / "pts.json"
    extra = [("e1", 583), ("e1", 262), ("e1", 508), ("e2", 484), ("e3", 389)]
    pts.write_text(
        dumps_points(
            [Vertex("u"), Vertex("v"), Vertex("v")]
            + [EdgePoint("e1", Fraction(1, 12)), EdgePoint("e2", Fraction(11, 12))]
            + [EdgePoint("e3", Fraction(11, 12))]
            + [EdgePoint(e, Fraction(j, 997)) for e, j in extra]
        )
    )
    cert = tmp_path / "l1.json"
    code, doc = run_json(capsys, "l1", theta_file, "--points", str(pts), "--out", str(cert))
    assert code == 1
    values = [Fraction(v) for _, _, v in doc["certificate"]["farkas"]]
    assert sum(map(abs, _primitive_integers(values))) >= 1 << 62
    code, report = run_json(capsys, "verify", str(cert), theta_file)
    assert code == 0 and report["valid"] is True


def test_l1_cap_exits_2(c4_file, tmp_path, capsys):
    from thetagap import Vertex, dumps_points

    pts = tmp_path / "pts.json"
    pts.write_text(dumps_points([Vertex(f"v{i}") for i in range(1, 5)]))
    code, _ = run(capsys, "l1", c4_file, "--points", str(pts), "--max-cuts-n", "3")
    assert code == 2


def test_verify_refuses_a_21_point_refutation_at_once(
    theta_file, witness_points_file, tmp_path, capsys
):
    cert = tmp_path / "l1.json"
    run(capsys, "l1", theta_file, "--points", witness_points_file, "--out", str(cert))
    doc = json.loads(cert.read_text())
    # 21 points, so the check would visit 2^20 - 1 cuts
    doc["certificate"]["points"] = [{"vertex": "u"}, {"vertex": "v"}] * 10 + [{"vertex": "u"}]
    doc["certificate"]["labels"] = ["u", "v"] * 10 + ["u"]
    doc["certificate"]["farkas"] = [[0, 1, "1"]]
    cert.write_text(json.dumps(doc))
    start = time.perf_counter()
    _assert_one_line_error(capsys, "verify", str(cert), theta_file)
    assert time.perf_counter() - start < 0.5


def _scipy_modules_after(code, timeout):
    """The scipy modules loaded once ``code`` has run in a fresh process."""
    code += "\nimport sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=timeout,
        check=True,
    ).stdout
    return out.strip().splitlines()[-1]


def test_importing_the_cli_loads_no_scipy():
    # the package imports scipy nowhere
    assert _scipy_modules_after("import thetagap.cli", timeout=60) == "[]"


def test_l1_on_the_k4_subdivision_and_check_paper_load_no_scipy(tmp_path, capsys):
    # all decide their l1 questions on the equality face alone; the
    # cactus's face of 29 cuts over 12 points is dependent, and the 5 leaves
    # of a star keep no equality, so their face is all 15 cuts over 10 pairs
    from thetagap import Vertex, dumps_points, loads_graph

    k4, graph = tmp_path / "k4.json", tmp_path / "k4_k2.json"
    cactus, star = tmp_path / "cactus.json", tmp_path / "star.json"
    assert main(["make", "complete", "-n", "4", "--out", str(k4)]) == 0
    assert main(["subdivide", str(k4), "-k", "2", "--out", str(graph)]) == 0
    make_cactus = ["make", "random_cactus", "--blocks", "7", "--seed", "29", "--out", str(cactus)]
    assert main(make_cactus) == 0
    assert main(["make", "complete_bipartite", "-a", "1", "-b", "5", "--out", str(star)]) == 0
    capsys.readouterr()
    vertices = loads_graph(graph.read_text()).vertices
    assert len(vertices) == 16
    points = tmp_path / "k4_k2.points.json"
    points.write_text(dumps_points([Vertex(v) for v in vertices]))
    g = loads_graph(cactus.read_text())
    ends = [end for e in g.edges for end in e.ends]
    cactus_points = tmp_path / "cactus.points.json"
    cactus_points.write_text(dumps_points([Vertex(v) for v in g.vertices if ends.count(v) < 3]))
    leaves = tmp_path / "star.points.json"
    leaves.write_text(dumps_points([Vertex(v) for v in loads_graph(star.read_text()).vertices[1:]]))
    calls = [
        ["l1", str(graph), "--points", str(points), "--max-cuts-n", "16"],
        ["l1", str(cactus), "--points", str(cactus_points)],
        ["l1", str(star), "--points", str(leaves)],
        ["check-paper"],
    ]
    code = (
        "import contextlib, io\n"
        "from thetagap.cli import main\n"
        f"for argv in {calls!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv"
    )
    assert _scipy_modules_after(code, timeout=120) == "[]"


def test_l1_on_the_twelve_leaves_of_a_star_loads_no_scipy(tmp_path, capsys):
    # the face of the 12 leaves of K1,12 is all 2047 cuts, more than the 66
    # pairs, so ``l1`` takes the float proposal before the exact simplex
    from thetagap import Vertex, dumps_points, loads_graph

    star, leaves = tmp_path / "star.json", tmp_path / "star.points.json"
    assert main(["make", "complete_bipartite", "-a", "1", "-b", "12", "--out", str(star)]) == 0
    capsys.readouterr()
    leaves.write_text(dumps_points([Vertex(v) for v in loads_graph(star.read_text()).vertices[1:]]))
    code = (
        "import contextlib, io, json\n"
        "from thetagap.cli import main\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        f"    assert main(['l1', {str(star)!r}, '--points', {str(leaves)!r}]) == 0\n"
        "assert json.loads(out.getvalue())['certificate']['feasible'] is True"
    )
    assert _scipy_modules_after(code, timeout=120) == "[]"


def test_l1_on_empty_points_exits_2(c4_file, tmp_path, capsys):
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps({"points": []}))
    for command in ("negtype", "gap", "l1"):
        err = _assert_one_line_error(capsys, command, c4_file, "--points", str(pts))
        assert "needs at least" in err


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

# argparse's output at 80 columns, as the parser of all nine commands gave it
# before ``main`` built only the named command's parser.
_USAGE = """\
usage: thetagap [-h]
                {make,subdivide,info,witness,negtype,gap,l1,verify,check-paper}
                ...
"""
_SURFACE = {
    (): (2, "", _USAGE + "thetagap: error: the following arguments are required: command\n"),
    ("nope",): (
        2,
        "",
        _USAGE
        + "thetagap: error: argument command: invalid choice: 'nope' (choose from 'make', "
        "'subdivide', 'info', 'witness', 'negtype', 'gap', 'l1', 'verify', 'check-paper')\n",
    ),
    ("verify",): (
        2,
        "",
        "usage: thetagap verify [-h] [--out OUT] certificate graph\n"
        "thetagap verify: error: the following arguments are required: certificate, graph\n",
    ),
    ("--help",): (
        0,
        _USAGE
        + """
metric-graph negative-type toolkit

positional arguments:
  {make,subdivide,info,witness,negtype,gap,l1,verify,check-paper}
    make                construct a graph from a named family
    subdivide           k-subdivide a unit-length graph
    info                graph summary and theta status
    witness             six-point negative-type violation
    negtype             exact negative-type decision
    gap                 bracket the negative-type gap
    l1                  exact l1-embeddability decision
    verify              re-check a certificate against a graph
    check-paper         run the reproduction suite

options:
  -h, --help            show this help message and exit
""",
        "",
    ),
    ("gap", "--help"): (
        0,
        """\
usage: thetagap gap [-h] --points POINTS [--starts STARTS] [--iters ITERS]
                    [--seed SEED] [--out OUT]
                    graph

positional arguments:
  graph

options:
  -h, --help       show this help message and exit
  --points POINTS
  --starts STARTS
  --iters ITERS
  --seed SEED
  --out OUT        output file; a report is also printed
""",
        "",
    ),
}


@pytest.mark.parametrize("argv", list(_SURFACE), ids=lambda argv: " ".join(argv) or "none")
def test_usage_help_and_errors_are_unchanged(monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out, captured.err) == _SURFACE[argv]


@pytest.mark.parametrize(
    "argv",
    [
        ["make", "random_connected", "--vertices", "6", "--edges", "8", "--scale", "1/2"],
        ["subdivide", "g.json", "-k", "3", "--out", "o.json"],
        ["info", "g.json"],
        ["witness", "g.json", "--out", "w.json"],
        ["negtype", "g.json", "--points", "p.json"],
        ["gap", "g.json", "--points", "p.json", "--starts", "4", "--iters", "9", "--seed", "2"],
        ["l1", "g.json", "--points", "p.json", "--max-cuts-n", "12"],
        ["verify", "c.json", "g.json"],
        ["check-paper", "--list"],
    ],
    ids=lambda argv: argv[0],
)
def test_the_named_command_parser_reads_what_the_full_parser_reads(argv):
    assert build_parser(argv[0]).parse_args(argv) == build_parser().parse_args(argv)


# ---------------------------------------------------------------------------
# one parser per process and the report writer
# ---------------------------------------------------------------------------


_VOLATILE = re.compile(r'("wall_time_s": )[0-9.e-]+|("sha256": )"[0-9a-f]{64}"')


def _masked(text):
    return _VOLATILE.sub(lambda m: (m.group(1) or m.group(2)) + "0", text)


def test_every_command_twice_in_one_process_gives_the_same_bytes(tmp_path, capsys):
    theta, cycle, sub = (str(tmp_path / f"{name}.json") for name in ("theta", "c5", "sub"))
    points = tmp_path / "pts.json"
    points.write_text(json.dumps({"points": [{"vertex": f"v{i}"} for i in range(1, 6)]}))
    pts = str(points)
    cert = {k: str(tmp_path / f"{k}.cert.json") for k in ("witness", "negtype", "gap", "l1")}
    commands = [
        ["make", "theta", "--lengths", "1,1,1", "--out", theta],
        ["make", "cycle", "-n", "5", "--scale", "2/3", "--out", cycle],
        ["make", "random_cactus", "--blocks", "4", "--seed", "2"],
        ["subdivide", theta, "-k", "2", "--out", sub],
        ["info", sub],
        ["witness", theta, "--out", cert["witness"]],
        ["negtype", cycle, "--points", pts, "--out", cert["negtype"]],
        ["gap", cycle, "--points", pts, "--starts", "3", "--iters", "20", "--out", cert["gap"]],
        ["l1", cycle, "--points", pts, "--out", cert["l1"]],
        ["verify", cert["witness"], theta],
        ["verify", cert["negtype"], cycle],
        ["verify", cert["gap"], cycle],
        ["verify", cert["l1"], cycle],
        ["check-paper", "--list"],
    ]
    first = {}
    for argv in commands:
        code, out = run(capsys, *argv)
        first[tuple(argv)] = (code, _masked(out))
    # an argparse error in between, on a parser the next calls reuse
    with pytest.raises(SystemExit) as exc:
        main(["gap", cycle, "--starts", "x"])
    assert exc.value.code == 2 and "invalid int value" in capsys.readouterr().err
    for argv in reversed(commands):
        code, out = run(capsys, *argv)
        assert (code, _masked(out)) == first[tuple(argv)], argv
    assert [code for code, _ in first.values()] == [0] * len(commands)


def test_main_builds_no_parser_for_a_command_it_has_run(monkeypatch, capsys):
    commands = [("make", "path", "-n", "3"), ("check-paper", "--list"), ("nope",)]

    def run_all():
        for argv in commands:
            try:
                run(capsys, *argv)
            except SystemExit:  # the unknown command, with the full parser
                capsys.readouterr()

    run_all()
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(
        argparse.ArgumentParser, "__init__", lambda self, *a, **kw: built.append(kw) or init(self, *a, **kw)
    )
    for _ in range(3):
        run_all()
    assert built == []


_STRINGS = st.text(max_size=6) | st.sampled_from(
    ["", "\x00\x1f\x7f", '"\\/', "\n\r\t\b\f", "é ü", "  ", "\U0001f600", "\ud800", "p/q"]
)
_SCALARS = (
    _STRINGS
    | st.integers()
    | st.integers(min_value=2**63 - 2, max_value=2**200)
    | st.integers(max_value=-(2**64)).filter(lambda x: x > -(10**200))
    | st.booleans()
    | st.none()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 0.0, 1e-07, 1e16, 0.1, 5e-324, 1.7976931348623157e308])
)


def _nested(leaves):
    return st.recursive(
        leaves,
        lambda kids: st.lists(kids, max_size=4)
        | st.lists(kids, max_size=4).map(tuple)
        | st.dictionaries(_STRINGS, kids, max_size=4),
        max_leaves=24,
    )


@settings(max_examples=300, deadline=None)
@given(_nested(_SCALARS))
def test_the_report_writer_gives_the_bytes_of_json_dumps(value):
    from thetagap.cli import _dumps

    assert _dumps(value) == json.dumps(value, indent=2)


class _Count(int):
    pass


class _Word(str):
    pass


class _Color(enum.IntEnum):
    RED = 1


# values the writer does not take itself
_ODD = st.sampled_from(
    [
        {1: "a"},
        {None: 0, 2.5: [1]},
        {(1, 2): "tuple key"},
        _Count(7),
        _Word("w"),
        _Color.RED,
        float("nan"),
        float("inf"),
        -float("inf"),
        Fraction(1, 3),
        {1, 2},
        b"bytes",
    ]
)


def _outcome(write, value):
    try:
        return write(value)
    except Exception as exc:  # the writer must fail as json.dumps fails
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(_nested(_SCALARS | _ODD))
def test_any_other_type_goes_to_json_dumps(value):
    from thetagap import cli

    assert _outcome(cli._dumps, value) == _outcome(lambda v: json.dumps(v, indent=2), value)


@pytest.mark.parametrize("value", [[1, {2: 3}], {"a": [Fraction(1, 2)]}, ("x", _Color.RED)])
def test_the_writer_hands_an_odd_value_to_json_dumps(monkeypatch, value):
    from thetagap import cli

    calls = []
    dumps = json.dumps
    monkeypatch.setattr(cli.json, "dumps", lambda v, **kw: calls.append(v) or dumps(v, **kw))
    assert _outcome(cli._dumps, value) == _outcome(lambda v: dumps(v, indent=2), value)
    assert calls == [value]


# ---------------------------------------------------------------------------
# reproduction suite
# ---------------------------------------------------------------------------


def test_check_paper_list_names_only(capsys):
    code, out = run(capsys, "check-paper", "--list")
    assert code == 0
    names = out.strip().splitlines()
    assert "witness_unit_theta_exact" in names
    assert len(names) == len(set(names)) >= 12


def test_check_paper_passes_every_check(capsys):
    code, report = run_json(capsys, "check-paper")
    assert code == 0
    assert report["failed"] == 0
    assert report["passed"] == 15
    assert all(check["status"] == "pass" for check in report["checks"])


def test_the_ci_workflow_runs_the_tier1_command_and_check_paper():
    yaml = pytest.importorskip("yaml")
    root = Path(__file__).resolve().parents[1]
    workflow = yaml.safe_load((root / ".github" / "workflows" / "tier1.yml").read_text())
    steps = [step.get("run", "") for job in workflow["jobs"].values() for step in job["steps"]]
    assert any("python -m pytest -q --continue-on-collection-errors" in run for run in steps)
    assert any("python -m thetagap check-paper" in run for run in steps)
    limits = [job.get("timeout-minutes") for job in workflow["jobs"].values()]
    assert all(type(t) is int and 0 < t <= 60 for t in limits)


def test_the_ci_workflow_checks_the_readme_test_count():
    yaml = pytest.importorskip("yaml")
    root = Path(__file__).resolve().parents[1]
    workflow = yaml.safe_load((root / ".github" / "workflows" / "tier1.yml").read_text())
    steps = {step.get("name"): step.get("run", "") for job in workflow["jobs"].values() for step in job["steps"]}
    check = steps["README test count"]
    assert "python -m pytest --collect-only -q" in check
    assert "The suite" in check and "README.md" in check
    assert 'test "$collected" = "$documented"' in check
    assert re.search(r"The suite \(\d+ tests\)", (root / "README.md").read_text())


def test_the_ci_workflow_runs_a_bench_smoke_of_every_workload():
    yaml = pytest.importorskip("yaml")
    root = Path(__file__).resolve().parents[1]
    workflow = yaml.safe_load((root / ".github" / "workflows" / "tier1.yml").read_text())
    steps = {step.get("name"): step.get("run", "") for job in workflow["jobs"].values() for step in job["steps"]}
    smoke = steps["Bench smoke"]
    workloads = [w["name"] for w in json.loads((root / "BENCHMARK.json").read_text())["workloads"]]
    assert "python3 bench/run.py --workload \"$workload\" --seed 1 --seconds 1" in smoke
    loop = next(line for line in smoke.splitlines() if line.startswith("for workload in"))
    assert sorted(loop.split(";")[0].split()[3:]) == sorted(workloads)
    assert "set -o pipefail" in smoke
    assert '["correct"] is True' in smoke


def test_the_ci_bench_smoke_makes_one_traced_run():
    yaml = pytest.importorskip("yaml")
    root = Path(__file__).resolve().parents[1]
    workflow = yaml.safe_load((root / ".github" / "workflows" / "tier1.yml").read_text())
    steps = {step.get("name"): step.get("run", "") for job in workflow["jobs"].values() for step in job["steps"]}
    smoke = steps["Bench smoke"]
    traced = "python3 bench/run.py --workload metric-points --seed 1 --seconds 1 --trace 1"
    assert smoke.count(traced) == 1
    after = smoke[smoke.index(traced):]
    assert '["correct"] is True' in after
