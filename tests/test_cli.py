"""Command-line behavior: reports, certificates, exit codes."""

import json
from fractions import Fraction

import pytest

from thetagap.cli import main


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
    cert.write_text(json.dumps({"certificate": {"kind": "mystery"}}))
    code, _ = run(capsys, "verify", str(cert), theta_file)
    assert code == 2


def _assert_one_line_error(capsys, *argv):
    code = main(list(argv))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


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


def test_l1_cap_exits_2(c4_file, tmp_path, capsys):
    from thetagap import Vertex, dumps_points

    pts = tmp_path / "pts.json"
    pts.write_text(dumps_points([Vertex(f"v{i}") for i in range(1, 5)]))
    code, _ = run(capsys, "l1", c4_file, "--points", str(pts), "--max-cuts-n", "3")
    assert code == 2


def test_l1_on_empty_points_exits_2(c4_file, tmp_path, capsys):
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps({"points": []}))
    _assert_one_line_error(capsys, "l1", c4_file, "--points", str(pts))


# ---------------------------------------------------------------------------
# reproduction suite
# ---------------------------------------------------------------------------


def test_check_paper_list_names_only(capsys):
    code, out = run(capsys, "check-paper", "--list")
    assert code == 0
    names = out.strip().splitlines()
    assert "witness_unit_theta_exact" in names
    assert len(names) == len(set(names)) >= 12
