"""The names the benchmark in ``perfbench/`` reaches into the package by.

``perfbench/run.py --trace 1`` looks up every ``(module, attribute)`` in
``perfbench/tracing.py::LAYERS`` and fails if one is gone; ``perfbench/run.py``
times the validation check named by its ``ORACLE_CHECK`` on its own; and
``perfbench/workloads.py`` calls ``coherence_from_propagator`` with
positional arguments and builds ``ProtocolConfig`` by keyword. Renaming or
deleting any of these breaks the benchmark, not the package's own tests, so
this file reads ``LAYERS`` and ``ORACLE_CHECK`` from the source (``ast``
only, no benchmark import) and holds the package to them.
"""

from __future__ import annotations

import ast
import importlib
import math
from pathlib import Path

import numpy as np
import pytest

from cavitytherm import (
    LEVEL_E,
    LEVEL_G,
    CoherentPrep,
    PhysicalParams,
    ProtocolConfig,
    dynamics,
    protocol,
    validation,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def module_constant(path: Path, name: str):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == name for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no {name} assignment in {path}")


def traced_layers() -> list[tuple[str, str, str]]:
    return list(module_constant(PERFBENCH / "tracing.py", "LAYERS"))


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


def test_oracle_check_is_a_validation_check():
    name = module_constant(PERFBENCH / "run.py", "ORACLE_CHECK")
    passed, detail = getattr(validation, name)()
    # A numpy comparison yields np.bool_; the battery and the benchmark
    # only take its truth value.
    assert isinstance(passed, (bool, np.bool_))
    assert isinstance(detail, str)


@pytest.mark.parametrize("mode", protocol.PULSE_MODES)
def test_workload_protocol_config(mode):
    # The keywords and calls of the benchmark's sweep workloads.
    config = ProtocolConfig(prep=CoherentPrep(6.0), interaction_time=0.0,
                            initial_beta=0.7, pulse_mode=mode)
    assert config.timescales().half_revival == pytest.approx(6.0 * math.pi)
