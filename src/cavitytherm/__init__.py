"""Cavity-assisted temperature control of a two-level atom.

A small simulation library for the resonant interaction of one two-level
atom with a coherent cavity field: exact truncated-space dynamics, the
collapse-era closed forms, a phase-locked half-pulse protocol that converts
the revived coherence into a tunable effective temperature, and the
floor/ceiling temperature bounds of that protocol. A CLI (``cavitytherm``)
wraps single runs, sweeps, figure data, and a self-validation battery.

The package root exports the protocol's entry points (``__all__``); every
other name is imported from the module that defines it: ``.hilbert``,
``.analytic``, ``.dynamics``, ``.protocol``, ``.validation`` or ``.cli``.
"""

from __future__ import annotations

from importlib import import_module

__version__ = "0.1.0"

# Load order: importing the package loads only the numpy-free ``analytic``;
# each numpy-backed name loads its module on first access (PEP 562), so the
# closed-form CLI commands import no numpy. Benchmark timings move with it.
from .analytic import LEVEL_E, LEVEL_G, PhysicalParams

_ON_FIRST_USE = {
    "CoherentPrep": ".hilbert", "ProtocolConfig": ".protocol",
    "run_protocol": ".protocol", "sweep_interaction_time": ".protocol",
}

__all__ = [
    "__version__", "LEVEL_E", "LEVEL_G", "CoherentPrep", "PhysicalParams",
    "ProtocolConfig", "run_protocol", "sweep_interaction_time",
]


def __getattr__(name: str):
    if name not in _ON_FIRST_USE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(_ON_FIRST_USE[name], __name__), name)
    globals()[name] = value
    return value
