"""Fixtures shared by the test modules."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="session")
def src_env() -> dict[str, str]:
    """Environment for a child ``python`` that imports this checkout's ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env
