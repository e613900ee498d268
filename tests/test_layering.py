"""Layering: the estimation core and the PGO loop do not import telemetry.

Observability observes; it does not steer.  Drift detection lives in
:mod:`repro.core.drift`, so nothing under ``repro.core`` or ``repro.pgo``
may import :mod:`repro.obs.health` at runtime — an import under
``if TYPE_CHECKING:`` (annotations only) is allowed.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
GUARDED = ("core", "pgo")
FORBIDDEN = "repro.obs.health"


def _type_checking_nodes(tree: ast.AST) -> set[int]:
    """ids of every node inside an ``if TYPE_CHECKING:`` body."""
    exempt: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.If):
            name = getattr(node.test, "id", None) or getattr(node.test, "attr", None)
            if name == "TYPE_CHECKING":
                for stmt in node.body:
                    exempt.update(id(sub) for sub in ast.walk(stmt))
    return exempt


def runtime_imports_of(path: Path, target: str) -> list[int]:
    """Line numbers where ``path`` imports ``target`` outside TYPE_CHECKING."""
    tree = ast.parse(path.read_text(), filename=str(path))
    exempt = _type_checking_nodes(tree)
    parent, _, leaf = target.rpartition(".")
    lines = []
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, ast.Import):
            hit = any(
                a.name == target or a.name.startswith(target + ".") for a in node.names
            )
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            hit = (
                node.module == target
                or node.module.startswith(target + ".")
                or (node.module == parent and any(a.name == leaf for a in node.names))
            )
        else:
            continue
        if hit:
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("package", GUARDED)
def test_no_runtime_import_of_obs_health(package):
    offenders = {
        str(path.relative_to(SRC)): lines
        for path in sorted((SRC / package).rglob("*.py"))
        if (lines := runtime_imports_of(path, FORBIDDEN))
    }
    assert offenders == {}, f"runtime imports of {FORBIDDEN}: {offenders}"


def test_scanner_sees_every_import_form(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from typing import TYPE_CHECKING\n"
        "import repro.obs.health\n"
        "from repro.obs import health\n"
        "from repro.obs.health import residual_signals\n"
        "if TYPE_CHECKING:\n"
        "    from repro.obs.health import EstimatorHealthMonitor\n"
        "def f():\n"
        "    from repro.obs.health import AlertEvent\n"
        "from repro.obs import trace\n"
    )
    assert runtime_imports_of(module, FORBIDDEN) == [2, 3, 4, 8]
