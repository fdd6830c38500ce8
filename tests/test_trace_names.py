"""The benchmark tracer's patch targets exist in the package.

bench/layertrace.py wraps functions of mono3dt by name, listed in its
SPANS table, when a benchmark runs with --trace 1. A function renamed or
deleted here would break that run rather than a test; this test reads
SPANS from the file with ast, without importing bench/, and resolves
every name.
"""

import ast
import importlib
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parents[1] / "bench" / "layertrace.py"


def traced_names() -> list:
    """The (module, attribute) keys of SPANS in bench/layertrace.py; attribute may be Class.method."""
    for node in ast.parse(LAYERTRACE.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(getattr(target, "id", None) == "SPANS" for target in node.targets):
            return list(ast.literal_eval(node.value))
    raise AssertionError(f"no SPANS assignment in {LAYERTRACE}")


def test_every_traced_name_resolves():
    names = traced_names()
    assert ("geometry", "project_box") in names and ("association", "Tracker.step") in names
    for module, attribute in names:
        owner = importlib.import_module(f"mono3dt.{module}")
        for part in attribute.split("."):
            assert hasattr(owner, part), f"mono3dt.{module}.{attribute}"
            owner = getattr(owner, part)
        assert callable(owner), f"mono3dt.{module}.{attribute}"
