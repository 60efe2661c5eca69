"""The names the benchmark harness in ``bench/`` takes from the package.

The harness runs against the package as it stands in a checkout, and
``bench/`` is not edited together with the package, so a rename or deletion
in ``thetagap`` would break the benchmark without breaking any other test.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from thetagap import dumps_graph, dumps_points
from thetagap.cli import main
from thetagap.core import FiniteMetric, Vertex, distance_matrix
from thetagap.families import FamilySpec, from_spec, make_theta
from thetagap.l1cut import CutDecomposition, FarkasCertificate, is_l1_embeddable
from thetagap.witness import construct_witness

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _package_imports(path):
    """(module, name or None) for every import of ``thetagap`` in one file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "thetagap":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "thetagap":
                    yield alias.name, None


@pytest.mark.parametrize("path", sorted(BENCH.glob("*.py")), ids=lambda p: p.name)
def test_every_package_import_of_the_bench_resolves(path):
    missing = []
    for module_name, name in _package_imports(path):
        try:
            module = importlib.import_module(module_name)
            if name is not None and not hasattr(module, name):
                importlib.import_module(f"{module_name}.{name}")
        except ImportError:
            missing.append(module_name if name is None else f"{module_name}.{name}")
    assert not missing, f"bench/{path.name} imports {missing}, which do not exist"


def test_every_traced_function_exists():
    for layer, name, _ in _load_spans().TRACED:
        assert callable(getattr(importlib.import_module(f"thetagap.{layer}"), name, None)), (
            f"bench/spans.py traces thetagap.{layer}.{name}, which does not exist"
        )


def test_traced_results_rebuild_from_their_fields():
    rebuild = _load_spans()._rebuild
    k23 = from_spec(FamilySpec(tag="complete_bipartite", sizes=(2, 3)))
    metric = distance_matrix(k23, [Vertex(v) for v in k23.vertices])
    rebuild(metric)
    cycle = from_spec(FamilySpec(tag="cycle", sizes=(4,)))
    embeds = is_l1_embeddable(distance_matrix(cycle, [Vertex(v) for v in cycle.vertices]))
    refuted = is_l1_embeddable(construct_witness(make_theta(1, 1, 1)).metric)
    assert isinstance(embeds, CutDecomposition) and isinstance(refuted, FarkasCertificate)
    rebuild(embeds)
    rebuild(refuted)


def test_rebuilding_a_distance_matrix_reads_no_distance(monkeypatch):
    # the rebuild stands for the metric check alone, on the integers
    def no_distance(self, i, j):
        raise AssertionError("a distance was read")

    k23 = from_spec(FamilySpec(tag="complete_bipartite", sizes=(2, 3)))
    metric = distance_matrix(k23, [Vertex(v) for v in k23.vertices])
    monkeypatch.setattr(FiniteMetric, "distance", no_distance)
    _load_spans()._rebuild(metric)


def _traced_calls(tmp_path, command):
    """The span call counts of one CLI call on the vertices of a 4-cycle."""
    cycle = from_spec(FamilySpec(tag="cycle", sizes=(4,)))
    graph, points = tmp_path / "c4.json", tmp_path / "c4pts.json"
    graph.write_text(dumps_graph(cycle))
    points.write_text(dumps_points([Vertex(v) for v in cycle.vertices]))
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        code = tracer.command(lambda: main([command, str(graph), "--points", str(points)]))
    finally:
        tracer.uninstall()
    assert code == 0
    return tracer.calls


def test_one_negtype_call_counts_one_elimination(tmp_path, capsys):
    calls = _traced_calls(tmp_path, "negtype")
    assert calls["analysis.is_negative_type"] == 1
    assert calls["analysis.psd_decompose"] == 1
    assert calls["analysis.psd_decompose_from_l1cut"] == 0


def test_one_l1_call_counts_one_elimination_under_l1cut(tmp_path, capsys):
    calls = _traced_calls(tmp_path, "l1")
    assert calls["l1cut.is_l1_embeddable"] == 1
    assert calls["analysis.psd_decompose"] == 1
    assert calls["analysis.psd_decompose_from_l1cut"] == 1
