"""Where floating point may enter the package.

Floats only propose or screen; every verdict is an exact certificate.
The four float entry points are ``l1cut._float_proposal`` (a float64
phase-1 simplex on numpy alone proposes a cut support),
``l1cut._unique_decomposition`` (a ``numpy.linalg`` least-squares solve
screens cut columns before their exact solve), ``analysis._mu_ladder``
(``numpy.linalg`` proposes the first mu rung) and
``analysis._float_directions`` (``numpy.linalg`` proposes the directions
that may refute negative type).  The package imports scipy nowhere, and a
``numpy.linalg`` use anywhere else would be a new float path into a
decision, so either fails here.  The mu test itself, the integer factor
and its caller, must not touch a float or numpy at all, and neither may
the check that accepts a proposed direction, the normalization that makes
it a violation, nor the exact solve that decides on screened columns.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "thetagap"


def _uses(path):
    """(qualified name of the innermost enclosing def or class, or None at
    module level, kind) for each scipy import and numpy.linalg use."""

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = node.name if scope is None else f"{scope}.{node.name}"
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "scipy":
                    yield scope, "scipy"
                if alias.name.startswith("numpy.linalg"):
                    yield scope, "numpy.linalg"
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.split(".")[0] == "scipy":
                yield scope, "scipy"
            if module.startswith("numpy.linalg") or (
                module == "numpy" and any(a.name == "linalg" for a in node.names)
            ):
                yield scope, "numpy.linalg"
        elif isinstance(node, ast.Attribute) and node.attr == "linalg":
            yield scope, "numpy.linalg"
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope)

    yield from visit(ast.parse(path.read_text(), filename=str(path)), None)


def _found(kind):
    return {
        (path.stem, scope)
        for path in sorted(PACKAGE.glob("*.py"))
        for scope, what in _uses(path)
        if what == kind
    }


def test_scipy_is_imported_nowhere():
    assert _found("scipy") == set()


def test_numpy_linalg_is_used_only_by_two_eigen_proposals_and_one_screen():
    assert _found("numpy.linalg") == {
        ("analysis", "_mu_ladder"),
        ("analysis", "_float_directions"),
        ("l1cut", "_unique_decomposition"),
    }


def _assert_integer_only(*names):
    tree = ast.parse((PACKAGE / "analysis.py").read_text())
    defs = {
        node.name: node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in names
    }
    assert len(defs) == len(names)
    for name, node in defs.items():
        for sub in ast.walk(node):
            assert not (isinstance(sub, ast.Name) and sub.id in ("float", "np", "numpy")), name
            assert not (isinstance(sub, ast.Constant) and isinstance(sub.value, float)), name


def test_the_mu_test_decides_on_integers_alone():
    _assert_integer_only("_mu_certifies", "_factor_certifies")


def test_a_proposed_violation_is_checked_and_normalized_on_integers_alone():
    _assert_integer_only("_form", "_violation_of", "_weighting_of")


def test_an_exact_solve_decides_on_integers_alone():
    _assert_integer_only("_eliminate", "_bareiss_update", "_solve", "_back_substitute")
