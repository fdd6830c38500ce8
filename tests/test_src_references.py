"""Every module-level function of the package has a use in the package.

A function that only tests call is code the program carries for its tests;
this test reads src/mono3dt with ast and fails on any module-level
function that no name or attribute in src/ refers to, apart from its own
body, unless the allowlist below keeps it for a stated reason.
"""

import ast
from pathlib import Path

from test_trace_names import traced_names

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mono3dt"

ALLOWED = {
    # the benchmark tracer (bench/layertrace.py) wraps these by name
    *(attribute for _, attribute in traced_names() if "." not in attribute),
    # one-pair forms that tests compare the batched functions against
    "iou_2d",
    "project_point",
    "affinity_deep",
    # the paper's 3D estimation metrics, which acceptance criterion 9 checks
    "depth_metrics",
    "orientation_score",
    "dimension_score",
    "center_score",
    "ap_3d",
}


def referenced_names(node) -> set:
    """The names and attribute names that node's subtree refers to."""
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    }


def test_every_function_is_used_in_the_package():
    # each top-level statement of each module with the names it refers to
    statements = [
        (f"{path.name}: ", node, referenced_names(node))
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    unused = [
        where + function.name
        for where, function, _ in statements
        if isinstance(function, ast.FunctionDef) and function.name not in ALLOWED
        # uses outside the function itself: its own recursive calls do not count
        and not any(function.name in names for _, node, names in statements if node is not function)
    ]
    assert not unused, f"functions with no use in src/mono3dt: {unused}"
