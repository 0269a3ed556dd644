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

__version__ = "0.1.0"

# Load order hilbert, analytic, dynamics, protocol: benchmark timings move with it.
from .hilbert import LEVEL_E, LEVEL_G, CoherentPrep, PhysicalParams
from .protocol import ProtocolConfig, run_protocol, sweep_interaction_time

__all__ = [
    "__version__", "LEVEL_E", "LEVEL_G", "CoherentPrep", "PhysicalParams",
    "ProtocolConfig", "run_protocol", "sweep_interaction_time",
]
