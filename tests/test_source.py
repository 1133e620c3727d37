"""Checks over the package source itself."""

import ast
import importlib
import importlib.util
from pathlib import Path

import rfq


def test_no_assert_statements():
    # `python -O` strips asserts, so an invariant must raise a real error
    sources = sorted(Path(rfq.__file__).parent.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_traced_modules_stay_importable():
    # the benchmark's tracer imports rfq.<module> for every module it lists
    # and fails outright on a missing one; a class or function it lists
    # that is gone is reported as absent instead
    path = Path(__file__).parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    modules = sorted({mod for mod, _, _ in tracer.TRACED})
    assert modules
    for mod in modules:
        importlib.import_module(f"rfq.{mod}")


# Entry points a caller outside the package uses, each documented in
# README: the bundle API and the query methods of the classes the
# benchmark's tracer times queries through.  oracle.py and corpus.py
# serve the tests and the benchmark as a whole.
ENTRY_POINTS = {
    "from_values", "from_tokens", "from_bytes", "to_bytes", "save", "load",
    "to_original", "query_majorities", "query_minority", "query_mode", "explain",
    "size_report",
}
ENTRY_MODULES = {"oracle.py", "corpus.py"}


def test_public_defs_have_a_caller():
    """Every public function or method in the package is referenced, by
    name, somewhere in the package, or is a documented entry point, so
    API that only tests call does not creep back in."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(rfq.__file__).parent.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    uncalled = sorted(
        f"{name}:{node.lineno} {node.name}"
        for name, tree in trees.items() if name not in ENTRY_MODULES
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
        and node.name not in used and node.name not in ENTRY_POINTS
    )
    assert uncalled == []
