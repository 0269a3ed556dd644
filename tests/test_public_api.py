"""The package's public surface: the root's exports and the README quick start."""

from __future__ import annotations

import re
from pathlib import Path

import cavitytherm

README = Path(__file__).resolve().parents[1] / "README.md"

ROOT_EXPORTS = {
    "__version__", "LEVEL_E", "LEVEL_G", "CoherentPrep", "PhysicalParams",
    "ProtocolConfig", "run_protocol", "sweep_interaction_time",
}


def test_root_exports_the_protocol_entry_points_only():
    assert len(cavitytherm.__all__) == len(ROOT_EXPORTS)
    assert set(cavitytherm.__all__) == ROOT_EXPORTS
    for name in cavitytherm.__all__:
        assert getattr(cavitytherm, name) is not None, name


def test_readme_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None, "no python block under the README's Quick start"
    exec(compile(block.group(1), f"{README}:quick-start", "exec"), {})
    pe, temperature = map(float, capsys.readouterr().out.split())
    assert 0.0 < pe < 0.5
    assert temperature > 0.0
