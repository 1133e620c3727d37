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
