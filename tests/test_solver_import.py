"""The package resolves linear_sum_assignment in one place, without scipy.optimize.

data._load_linear_sum_assignment loads SciPy's compiled _lsap extension
by its file path, so no process pays for importing all of scipy.optimize;
the public import is only its fallback. These tests read the package
with ast and fail on any import of scipy.optimize outside that fallback,
check that importing the CLI leaves scipy.optimize unloaded, and check
that the loaded solver answers as the public one does.
"""

import ast
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy
import scipy.optimize

from mono3dt import association, data
from mono3dt.data import linear_sum_assignment

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "mono3dt"
BOUNDARY = ("data.py", "_load_linear_sum_assignment")


def optimize_imports(path: Path):
    """(node, inside the fallback) for each import of scipy.optimize, or of a name from it, in path."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    inside = {
        id(sub)
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and (path.name, node.name) == BOUNDARY
        for sub in ast.walk(node)
    }
    for node in ast.walk(tree):
        imported = isinstance(node, ast.Import) and any(
            alias.name.startswith("scipy.optimize") for alias in node.names
        )
        imported_from = isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy.optimize")
        if imported or imported_from:
            yield node, id(node) in inside


def test_scipy_optimize_imported_only_in_the_fallback():
    uses = [(path.name, node, inside) for path in sorted(PACKAGE.glob("*.py")) for node, inside in optimize_imports(path)]
    outside = [f"{name}:{node.lineno}" for name, node, inside in uses if not inside]
    assert not outside, f"scipy.optimize imported outside data._load_linear_sum_assignment: {outside}"
    # the fallback itself imports it, so the test cannot pass on a renamed helper
    assert any(inside for _, _, inside in uses)


def test_cli_import_leaves_scipy_optimize_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c", "import mono3dt.cli, sys; print('scipy.optimize' in sys.modules)"],
        cwd=SRC,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_falls_back_to_the_public_import(monkeypatch, tmp_path):
    # a SciPy whose optimize/_lsap extension is not where the loader looks
    monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
    assert data._load_linear_sum_assignment() is scipy.optimize.linear_sum_assignment


def masked_with_dummies(rng, n, m):
    """The padded matrix solve_assignment builds: masked entries at MASKED_VALUE, then n zero dummy columns."""
    padded = np.zeros((n, m + n))
    values = rng.uniform(0.0, 1.0, size=(n, m))
    padded[:, :m] = np.where(rng.uniform(size=(n, m)) < 0.6, values, association.MASKED_VALUE)
    return padded


def seeded_matrices():
    rng = np.random.default_rng(24)
    for shape in [(6, 6), (5, 9), (9, 5), (20, 34), (1, 1)]:
        yield f"random-{shape[0]}x{shape[1]}", rng.normal(size=shape)
    for shape in [(6, 6), (4, 7), (7, 4)]:
        # every entry one of three values: many optimal assignments tie exactly
        yield f"ties-{shape[0]}x{shape[1]}", rng.integers(0, 3, size=shape).astype(float)
    yield "constant-5x8", np.ones((5, 8))
    for n, m in [(7, 10), (10, 7), (12, 12)]:
        yield f"masked-{n}x{m}", masked_with_dummies(rng, n, m)
    yield "empty-0x3", np.zeros((0, 3))


@pytest.mark.parametrize("maximize", [False, True])
@pytest.mark.parametrize("name, cost", list(seeded_matrices()), ids=[name for name, _ in seeded_matrices()])
def test_same_assignment_as_scipy_optimize(name, cost, maximize):
    rows, cols = linear_sum_assignment(cost, maximize=maximize)
    expected_rows, expected_cols = scipy.optimize.linear_sum_assignment(cost, maximize=maximize)
    np.testing.assert_array_equal(rows, expected_rows)
    np.testing.assert_array_equal(cols, expected_cols)


@pytest.mark.parametrize(
    "cost",
    [np.array([[1.0, np.nan], [0.5, 2.0]]), np.full((3, 3), np.inf)],
    ids=["nan", "infeasible-inf"],
)
def test_same_error_as_scipy_optimize(cost):
    with pytest.raises(ValueError) as expected:
        scipy.optimize.linear_sum_assignment(cost)
    with pytest.raises(ValueError) as raised:
        linear_sum_assignment(cost)
    assert str(raised.value) == str(expected.value)
