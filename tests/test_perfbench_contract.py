"""The names the benchmark in ``perfbench/`` reaches into the package by.

``perfbench/run.py --trace 1`` looks up every ``(module, attribute)`` in
``perfbench/tracing.py::LAYERS`` and fails if one is gone, and
``perfbench/workloads.py`` calls ``coherence_from_propagator`` with
positional arguments. Renaming or deleting either breaks the benchmark, not
the package's own tests, so this file reads ``LAYERS`` from the source
(``ast`` only, no benchmark import) and holds the package to it.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

from cavitytherm import LEVEL_E, LEVEL_G, PhysicalParams, dynamics

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_layers() -> list[tuple[str, str, str]]:
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets)):
            return list(ast.literal_eval(node.value))
    raise AssertionError(f"no LAYERS assignment in {TRACING}")


@pytest.mark.parametrize("layer, module, attr", traced_layers())
def test_traced_layer_resolves(layer, module, attr):
    assert module.startswith("cavitytherm"), layer
    assert callable(getattr(importlib.import_module(module), attr)), layer


@pytest.mark.parametrize("level", [LEVEL_E, LEVEL_G])
def test_coherence_from_propagator_positional_call(level):
    # The benchmark's call: (t, alpha, params, level, n_max).
    value = dynamics.coherence_from_propagator(1.5, 3.0, PhysicalParams(), level, 60)
    assert isinstance(value, complex)
    assert abs(value) <= 0.5
