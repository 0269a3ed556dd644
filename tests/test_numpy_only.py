"""The package runs on numpy alone: no module imports scipy, not even lazily.

numpy itself is imported only where the package simulates: ``analytic``,
the numpy-free base, imports it nowhere.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cavitytherm"


def imported_packages(path: Path) -> list[tuple[int, str]]:
    """``(line, top-level package)`` of every absolute import in ``path``, nested ones too."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [(node.lineno, m.split(".")[0]) for m in modules]
    return found


def test_no_package_module_imports_scipy():
    offenders = [f"{path.name}:{line}" for path in sorted(PACKAGE.rglob("*.py"))
                 for line, package in imported_packages(path) if package == "scipy"]
    assert offenders == []


def test_analytic_imports_no_numpy_even_inside_a_function():
    path = PACKAGE / "analytic.py"
    assert [line for line, package in imported_packages(path) if package == "numpy"] == []
    names = {node.id for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Name)}
    assert names.isdisjoint({"np", "numpy"})


def test_validate_passes_with_scipy_unimportable(src_env):
    code = ("import sys; sys.modules['scipy'] = None; "
            "from cavitytherm import cli; sys.exit(cli.main(['validate']))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=src_env)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("27 checks, 27 passed, 0 failed,")
