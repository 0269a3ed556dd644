"""The end-to-end temperature-control procedure.

Pipeline: prepare a (by default thermal) atom and a coherent cavity field,
let them interact for a chosen time, trace out the field, apply an
instantaneous lossless half pulse phase-locked to the drive, and read the
resulting diagonal state out as a temperature. Sweeping the interaction
time tunes the readout temperature between a floor near the half-revival
time and a ceiling at the collapse-condition time.

Orientation convention (fixed project-wide): Bloch components are
``(x, y, z) = (2 Re rho01, 2 Im rho01, 2 rho11 - 1)`` with
``rho01 = <g|rho|e>``, rotations are right-handed about their axis, and a
quarter turn about the equatorial axis at azimuth ``a`` sends an equatorial
Bloch vector at azimuth ``psi`` to ``z = |r| sin(psi - a)``. The
post-collapse coherence sits at azimuth ``omega t - phi + pi/2``, so the
cooling pulse axis is ``omega t - phi + pi``, which lands the state on the
south pole (minimum excited population).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .analytic import TemperatureReading, Timescales, temperature_from_pe
from .dynamics import FieldStep, check_interaction_time
from .hilbert import (
    AtomDensity,
    CoherentPrep,
    PhysicalParams,
    thermal_atom,
    trace_distance,
)

PULSE_MODES = ("explicit_unitary", "diagonalize")

# Largest off-diagonal magnitude the explicit pulse may leave before the
# result is flagged.
PULSE_RESIDUAL_TOLERANCE = 0.05

_EIGENVALUE_SLACK = 1e-12


def pi_half_pulse(rho: AtomDensity, axis_angle: float) -> AtomDensity:
    """Quarter-turn rotation of the atom about an equatorial Bloch axis.

    The right-handed rotation of the Bloch vector ``v`` by ``pi/2`` about
    ``n = (cos(axis_angle), sin(axis_angle), 0)``, in closed form
    ``v' = (n.v) n + n x v``. It is the conjugation of ``rho`` by
    ``U = exp(-i (pi/4) n.sigma)``. Unitary, so the eigenvalues (and Bloch
    length) are preserved to rounding; an equatorial Bloch vector
    perpendicular to the axis is carried onto a pole, making the result
    diagonal. In halves of the Bloch components, ``rho01 = (x + i y) / 2``
    and ``rho11 - 1/2 = z / 2``.
    """
    cos_a, sin_a = math.cos(axis_angle), math.sin(axis_angle)
    half_x, half_y = rho.rho01.real, rho.rho01.imag
    half_z = rho.rho11 - 0.5
    along = half_x * cos_a + half_y * sin_a
    return AtomDensity(
        rho11=0.5 + (half_y * cos_a - half_x * sin_a),
        rho01=complex(along * cos_a + half_z * sin_a, along * sin_a - half_z * cos_a),
    )


def cooling_axis_azimuth(t: float, phi: float = 0.0,
                         params: PhysicalParams | None = None) -> float:
    """Pulse axis azimuth that rotates the post-collapse coherence to -z.

    The experimenter knows the lab-frame phase of the slow coherence
    (azimuth ``omega t - phi + pi/2``) without measuring the state; the
    right-handed quarter turn about the equatorial axis a quarter turn
    ahead, ``omega t - phi + pi``, sends it to the south pole.
    """
    params = params or PhysicalParams()
    return params.omega * t - phi + math.pi


@dataclass(frozen=True)
class ValidityFlags:
    """Where the interaction time sits relative to the protocol's window."""

    collapse_completed: bool
    within_half_revival: bool
    pulse_residual_ok: bool = True

    @property
    def in_window(self) -> bool:
        return self.collapse_completed and self.within_half_revival


@dataclass(frozen=True)
class ProtocolConfig:
    """Complete description of one protocol run.

    Exactly one of ``initial_pe`` (diagonal atom with that excited
    population) and ``initial_beta`` (thermal atom at that inverse
    temperature) must be given. ``pulse_mode`` selects between physically
    applying the phase-locked pulse (``explicit_unitary``) and the axis-free
    reference that diagonalizes the pre-pulse state (``diagonalize``).
    The field must hold light: a vacuum ``prep`` has no revival timescale
    and is rejected here ("n_bar must be positive, got 0.0").
    """

    prep: CoherentPrep
    interaction_time: float
    physical: PhysicalParams = field(default_factory=PhysicalParams)
    initial_pe: float | None = None
    initial_beta: float | None = None
    pulse_mode: str = "explicit_unitary"

    def __post_init__(self) -> None:
        if (self.initial_pe is None) == (self.initial_beta is None):
            raise ValueError(
                "exactly one of initial_pe and initial_beta must be set"
            )
        if self.initial_pe is not None and not 0.0 <= self.initial_pe <= 1.0:
            raise ValueError(f"initial_pe must lie in [0, 1], got {self.initial_pe}")
        # initial_beta = +/-inf is a ground or fully inverted atom.
        if self.initial_beta is not None and math.isnan(self.initial_beta):
            raise ValueError("initial_beta must not be NaN")
        check_interaction_time(self.interaction_time)
        if self.pulse_mode not in PULSE_MODES:
            raise ValueError(
                f"pulse_mode must be one of {PULSE_MODES}, got {self.pulse_mode!r}"
            )
        self.timescales()  # a vacuum prep has none: "n_bar must be positive"

    def initial_atom(self) -> AtomDensity:
        if self.initial_pe is not None:
            return AtomDensity(rho11=self.initial_pe)
        return thermal_atom(self.initial_beta, self.physical.delta_e)

    def timescales(self) -> Timescales:
        return Timescales(self.prep.n_bar, self.physical.g)


@dataclass(frozen=True)
class ProtocolResult:
    """Outcome of one protocol run.

    ``rho_post_pulse`` is the physical post-pulse state of the selected
    mode; ``reading.pe`` is its smallest eigenvalue (which the unitary pulse
    cannot change), so ``reading.pe <= 1/2`` always and equals the excited
    population whenever the pulse diagonalized the state.
    ``pulse_residual`` is the off-diagonal magnitude the pulse left behind
    (exactly 0 in diagonalize mode).
    """

    rho_pre_pulse: AtomDensity
    rho_post_pulse: AtomDensity
    reading: TemperatureReading
    validity: ValidityFlags
    pulse_residual: float


@dataclass(frozen=True)
class SweepPoint:
    """One grid point of an interaction-time sweep.

    ``error`` carries the failure message when the point could not be
    evaluated; the sweep continues past failed points.
    """

    t: float
    result: ProtocolResult | None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def _run_grid(config: ProtocolConfig,
              times: Sequence[float]) -> list[ProtocolResult | Exception]:
    """The protocol at each of ``times``: its result or the exception that stopped it.

    The kernel's field step, the initial atom, the window edges, the field
    phase and the pulse mode are read once, and the kernel evolves every
    time in one :meth:`~cavitytherm.dynamics.FieldStep.evolve_grid` call;
    each point is then pulsed and read out on its own, so a failed point
    leaves the others as they are.
    """
    prep, physical = config.prep, config.physical
    states = FieldStep(prep, physical).evolve_grid(config.initial_atom(), times)
    scales = config.timescales()
    collapse_complete, half_revival = scales.collapse_complete, scales.half_revival
    phi, delta_e = prep.phi, physical.delta_e
    explicit = config.pulse_mode == "explicit_unitary"
    outcomes: list[ProtocolResult | Exception] = []
    for t, rho_pre in zip(times, states):
        if isinstance(rho_pre, ValueError):
            outcomes.append(rho_pre)
            continue
        try:
            if explicit:
                rho_post = pi_half_pulse(rho_pre, cooling_axis_azimuth(t, phi, physical))
            else:
                rho_post = AtomDensity(rho11=rho_pre.eigenvalues()[0], rho01=0j)
            residual = abs(rho_post.rho01)
            pe = rho_post.eigenvalues()[0]
            if pe < 0.0:
                if pe < -_EIGENVALUE_SLACK:
                    raise ValueError(f"post-pulse state has negative eigenvalue {pe}")
                pe = 0.0
            outcomes.append(ProtocolResult(
                rho_pre_pulse=rho_pre,
                rho_post_pulse=rho_post,
                reading=temperature_from_pe(pe, delta_e),
                validity=ValidityFlags(
                    collapse_completed=t >= collapse_complete,
                    within_half_revival=t <= half_revival,
                    pulse_residual_ok=residual <= PULSE_RESIDUAL_TOLERANCE,
                ),
                pulse_residual=residual,
            ))
        except Exception as exc:  # noqa: BLE001 - per-point errors are data
            outcomes.append(exc)
    return outcomes


def run_protocol(config: ProtocolConfig) -> ProtocolResult:
    """Execute the pipeline: interact, trace, pulse, read out.

    The readout converts the smallest eigenvalue of the post-pulse state to
    a temperature; validity flags report whether the interaction time falls
    inside ``[3 tau_collapse, tau_revival / 2]`` and (in explicit mode)
    whether the phase-locked pulse left the state diagonal to within
    ``PULSE_RESIDUAL_TOLERANCE``. A run is the one-point case of
    :func:`sweep_interaction_time`: it raises the exception that the sweep
    would record at its one point.
    """
    (outcome,) = _run_grid(config, (config.interaction_time,))
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def sweep_interaction_time(config: ProtocolConfig,
                           t_grid: Sequence[float]) -> list[SweepPoint]:
    """Run the protocol over an ascending grid of interaction times.

    The field step, initial atom and window edges are built once for the
    whole grid, and the kernel evaluates every time in one grid call before
    the pulse and readout run point by point. A point whose time, state or
    readout is rejected (a negative, infinite or NaN time, one whose Rabi
    angle overflows, a failed pulse or temperature) records the error and
    the sweep goes on; NaN points are left out of the ascending check, so
    they cannot hide a descent around them. A failure of the field itself
    raises for the whole grid.
    """
    t_grid = [float(t) for t in t_grid]
    if not t_grid:
        raise ValueError("t_grid must be nonempty")
    ordered = [t for t in t_grid if not math.isnan(t)]
    if any(b < a for a, b in zip(ordered, ordered[1:])):
        raise ValueError("t_grid must be ascending")
    return [SweepPoint(t=t, result=None, error=str(outcome))
            if isinstance(outcome, Exception) else SweepPoint(t=t, result=outcome)
            for t, outcome in zip(t_grid, _run_grid(config, t_grid))]


def initial_state_independence(config: ProtocolConfig, t: float,
                               probe_pes: Sequence[float]) -> float:
    """Max pairwise trace distance of pre-pulse states over probe atoms.

    Runs the interaction (no pulse) from each diagonal initial atom in
    ``probe_pes`` and returns the largest trace distance between any two of
    the reduced states: near zero in the collapse window, where the atom has
    forgotten its initial state, and large at ``t = 0`` or near revivals.
    One field step serves every probe.
    """
    if len(probe_pes) < 2:
        raise ValueError("need at least two probe populations")
    field_step = FieldStep(config.prep, config.physical)
    reduced = [field_step.evolve(AtomDensity(rho11=float(pe)), t) for pe in probe_pes]
    return max(
        trace_distance(a, b)
        for i, a in enumerate(reduced)
        for b in reduced[i + 1:]
    )
