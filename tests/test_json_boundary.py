"""Every JSON text the package reads is decoded in one place, io.read_json.

read_json turns any failure to decode a file into a ParseError naming
path:line; a json.loads or json.load anywhere else in src/mono3dt would
read around it. This test reads the package with ast and fails on any
reference to either function outside read_json, a `from json import` of
them included.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mono3dt"
DECODERS = {"load", "loads"}
BOUNDARY = ("io.py", "read_json")


def decoder_uses(path: Path):
    """(node, inside the boundary) for each json.load/json.loads reference or import in path."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    inside = {
        id(sub)
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and (path.name, node.name) == BOUNDARY
        for sub in ast.walk(node)
    }
    for node in ast.walk(tree):
        attribute = isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "json"
        imported = isinstance(node, ast.ImportFrom) and node.module == "json"
        if (attribute and node.attr in DECODERS) or (imported and DECODERS & {alias.name for alias in node.names}):
            yield node, id(node) in inside


def test_json_is_decoded_only_in_read_json():
    uses = [(path.name, node, inside) for path in sorted(PACKAGE.glob("*.py")) for node, inside in decoder_uses(path)]
    outside = [f"{name}:{node.lineno}" for name, node, inside in uses if not inside]
    assert not outside, f"JSON decoded outside io.read_json: {outside}"
    # the boundary itself decodes, so the test cannot pass on a renamed helper
    assert any(inside for _, _, inside in uses)
