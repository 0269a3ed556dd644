"""The package runs on numpy alone: no module imports scipy, not even lazily."""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cavitytherm"


def test_no_package_module_imports_scipy():
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno}" for m in modules
                          if m.split(".")[0] == "scipy"]
    assert offenders == []


def test_validate_passes_with_scipy_unimportable(src_env):
    code = ("import sys; sys.modules['scipy'] = None; "
            "from cavitytherm import cli; sys.exit(cli.main(['validate']))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=src_env)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("27 checks, 27 passed, 0 failed,")
