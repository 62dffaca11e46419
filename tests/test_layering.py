"""The campaign layers stay layered (DESIGN §14): ``grid/``, ``analysis/``
and ``slo/`` sit below the harness and reach up into it exactly once —
for the cell itself — and the pool decision has one asker."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _trees(*packages):
    for package in packages:
        for path in sorted((SRC / package).rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def _harness_imports(path, tree):
    """(file, enclosing function) of every import of ``repro.harness``."""
    depth = len(path.relative_to(SRC).parts)  # ``..`` from here is ``repro``
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = [alias.name for alias in node.names]
            if node.level == 0:
                up = module.startswith("repro.harness") or (
                    module == "repro" and "harness" in names)
            else:
                up = node.level == depth and (
                    module.split(".")[0] == "harness"
                    or (not module and "harness" in names))
            if up:
                found.append((path.relative_to(SRC).as_posix(), scope))
        elif isinstance(node, ast.Import):
            if any(a.name.startswith("repro.harness") for a in node.names):
                found.append((path.relative_to(SRC).as_posix(), scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, None)
    return found


def test_only_the_cell_import_reaches_up_into_the_harness():
    found = [
        hit
        for path, tree in _trees("grid", "analysis", "slo")
        for hit in _harness_imports(path, tree)
    ]
    assert found == [("grid/executor.py", "_run_cell")]


def test_the_pool_decision_has_one_call_site():
    calls = [
        (path.relative_to(SRC).as_posix(), node.lineno)
        for path, tree in _trees(".")
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None))
        == "should_parallelise"
    ]
    assert [file for file, _line in calls] == ["grid/executor.py"], calls
