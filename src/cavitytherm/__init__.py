"""Cavity-assisted temperature control of a two-level atom.

A small simulation library for the resonant interaction of one two-level
atom with a coherent cavity field: exact truncated-space dynamics, the
collapse-era closed forms, a phase-locked half-pulse protocol that converts
the revived coherence into a tunable effective temperature, and the
floor/ceiling temperature bounds of that protocol. A CLI (``cavitytherm``)
wraps single runs, sweeps, figure data, and a self-validation battery.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .analytic import (
    CollapseTime,
    TemperatureReading,
    Timescales,
    ValidityWarning,
    collapse_condition_time,
    lambert_w0,
    pe_after_pulse_analytic,
    pe_half_revival,
    rho01_analytic,
    rho11_analytic,
    t_max,
    t_min,
    temperature_from_pe,
)
from .dynamics import (
    coherence_from_propagator,
    evolve_atom_field_mixture,
    hamiltonian_matrix,
    propagate,
)
from .hilbert import (
    LEVEL_E,
    LEVEL_G,
    AtomDensity,
    CoherentPrep,
    JointPureState,
    PhysicalParams,
    TruncationError,
    atom_density_from_bloch,
    bloch_vector,
    coherent_amplitudes,
    coherent_joint_state,
    coherent_mass,
    default_cutoff,
    partial_trace_field,
    poisson_weight,
    product_state,
    thermal_atom,
    trace_distance,
)
from .protocol import (
    ProtocolConfig,
    ProtocolResult,
    SweepPoint,
    ValidityFlags,
    cooling_axis_azimuth,
    initial_state_independence,
    pi_half_pulse,
    run_protocol,
    sweep_interaction_time,
)

__all__ = [
    "__version__",
    "AtomDensity", "CoherentPrep", "CollapseTime",
    "JointPureState", "LEVEL_E", "LEVEL_G", "PhysicalParams",
    "ProtocolConfig", "ProtocolResult", "SweepPoint", "TemperatureReading",
    "Timescales", "TruncationError", "ValidityFlags", "ValidityWarning",
    "atom_density_from_bloch", "bloch_vector",
    "coherence_from_propagator", "coherent_amplitudes",
    "coherent_joint_state", "coherent_mass", "collapse_condition_time",
    "cooling_axis_azimuth", "default_cutoff",
    "evolve_atom_field_mixture", "hamiltonian_matrix",
    "initial_state_independence", "lambert_w0",
    "partial_trace_field", "pe_after_pulse_analytic", "pe_half_revival",
    "pi_half_pulse", "poisson_weight", "product_state", "propagate",
    "rho01_analytic", "rho11_analytic",
    "run_protocol", "sweep_interaction_time", "t_max",
    "t_min", "temperature_from_pe", "thermal_atom", "trace_distance",
]
