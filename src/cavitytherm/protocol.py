"""The end-to-end temperature-control procedure.

Pipeline: prepare a (by default thermal) atom and a coherent cavity field,
let them interact for a chosen time, trace out the field, apply an
instantaneous lossless half pulse phase-locked to the drive, and read the
resulting diagonal state out as a temperature. Sweeping the interaction
time tunes the readout temperature between a floor near the half-revival
time and a ceiling at the collapse-condition time. :func:`run_protocol`
and :func:`sweep_interaction_time` run one loop over a grid of times,
``_run_grid``; a run is its one-point case.

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

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

from .analytic import (
    PULSE_MODES,
    PhysicalParams,
    TemperatureReading,
    Timescales,
    temperature_from_pe,
)
from .dynamics import FieldStep, check_interaction_time
from .hilbert import (
    _POSITIVITY_SLACK,
    AtomDensity,
    CoherentPrep,
    density_eigenvalues,
    thermal_atom,
    trace_distance,
)

# Largest off-diagonal magnitude the explicit pulse may leave before the
# result is flagged.
PULSE_RESIDUAL_TOLERANCE = 0.05


def pi_half_pulse(rho: AtomDensity, axis_angle: float) -> AtomDensity:
    """Quarter-turn rotation of the atom about an equatorial Bloch axis.

    The right-handed rotation of the Bloch vector ``v`` by ``pi/2`` about
    ``n = (cos(axis_angle), sin(axis_angle), 0)``, in closed form
    ``v' = (n.v) n + n x v``. It is the conjugation of ``rho`` by
    ``U = exp(-i (pi/4) n.sigma)``. Unitary, so the eigenvalues (and Bloch
    length) are preserved to rounding; an equatorial Bloch vector
    perpendicular to the axis is carried onto a pole, making the result
    diagonal. The arithmetic is :func:`_quarter_turn`'s.
    """
    return AtomDensity(*_quarter_turn(rho.rho11, rho.rho01, axis_angle))


def _quarter_turn(rho11: float, rho01: complex,
                  axis_angle: float) -> tuple[float, complex]:
    """:func:`pi_half_pulse` on the state ``(rho11, rho01)``, unchecked.

    In halves of the Bloch components, ``rho01 = (x + i y) / 2`` and
    ``rho11 - 1/2 = z / 2``.
    """
    cos_a, sin_a = math.cos(axis_angle), math.sin(axis_angle)
    half_x, half_y = rho01.real, rho01.imag
    half_z = rho11 - 0.5
    along = half_x * cos_a + half_y * sin_a
    return (0.5 + (half_y * cos_a - half_x * sin_a),
            complex(along * cos_a + half_z * sin_a, along * sin_a - half_z * cos_a))


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


# A sweep builds five objects per point: the kernel's pre-pulse AtomDensity,
# the post-pulse one, a TemperatureReading, a ProtocolResult and a SweepPoint.
# Slots keep each a third smaller and let them be built by setting each slot
# through its descriptor, cheaper than the frozen ``object.__setattr__``.
# Flags are not among them: every point shares one of the eight ``_FLAGS``.
@dataclass(frozen=True, slots=True)
class ValidityFlags:
    """Where the interaction time sits relative to the protocol's window."""

    collapse_completed: bool
    within_half_revival: bool
    pulse_residual_ok: bool = True

    @property
    def in_window(self) -> bool:
        return self.collapse_completed and self.within_half_revival


# The eight flag values, keyed by their fields; a sweep's points share them.
_FLAGS = {key: ValidityFlags(*key) for key in itertools.product((False, True), repeat=3)}


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


@dataclass(frozen=True, slots=True, init=False)
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

    def __init__(self, rho_pre_pulse: AtomDensity, rho_post_pulse: AtomDensity,
                 reading: TemperatureReading, validity: ValidityFlags,
                 pulse_residual: float) -> None:
        _SET_PRE(self, rho_pre_pulse)
        _SET_POST(self, rho_post_pulse)
        _SET_READING(self, reading)
        _SET_VALIDITY(self, validity)
        _SET_RESIDUAL(self, pulse_residual)


@dataclass(frozen=True, slots=True, init=False)
class SweepPoint:
    """One grid point of an interaction-time sweep.

    ``error`` carries the failure message when the point could not be
    evaluated; the sweep continues past failed points.
    """

    t: float
    result: ProtocolResult | None
    error: str | None = None

    def __init__(self, t: float, result: ProtocolResult | None,
                 error: str | None = None) -> None:
        _SET_T(self, t)
        _SET_RESULT(self, result)
        _SET_ERROR(self, error)

    @property
    def ok(self) -> bool:
        return self.error is None


_SET_PRE = ProtocolResult.rho_pre_pulse.__set__
_SET_POST = ProtocolResult.rho_post_pulse.__set__
_SET_READING = ProtocolResult.reading.__set__
_SET_VALIDITY = ProtocolResult.validity.__set__
_SET_RESIDUAL = ProtocolResult.pulse_residual.__set__
_SET_T = SweepPoint.t.__set__
_SET_RESULT = SweepPoint.result.__set__
_SET_ERROR = SweepPoint.error.__set__


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
    (result,) = _run_grid(config, [float(config.interaction_time)])
    if isinstance(result, Exception):
        raise result
    return result


def sweep_interaction_time(config: ProtocolConfig,
                           t_grid: Sequence[float]) -> list[SweepPoint]:
    """Run the protocol over an ascending grid of interaction times.

    One :class:`SweepPoint` per time, each the run of :func:`run_protocol`
    at that time: a failed point holds its message and no result, and a
    point whose time is zero holds the initial atom itself as its
    pre-pulse state. A point whose time, state or readout is rejected (a
    negative, infinite or NaN time, one whose Rabi angle or carrier phase
    overflows, a failed state, pulse or temperature) records the message
    and the sweep goes on; NaN points are left out of the ascending check,
    so they cannot hide a descent around them. An empty or descending
    grid, or a failure of the field itself, raises for the whole grid.
    """
    times = [float(t) for t in t_grid]
    points = _run_grid(config, times)
    for i, (t, result) in enumerate(zip(times, points)):
        points[i] = (SweepPoint(t, None, str(result)) if isinstance(result, Exception)
                     else SweepPoint(t, result))
    return points


def _run_grid(config: ProtocolConfig,
              times: list[float]) -> list[ProtocolResult | Exception]:
    """The protocol at each of ``times`` (Python floats), or the exception that stopped it.

    The field step, the window edges, the field phase and the pulse mode
    are read once, and the kernel evolves and checks every time in one
    :meth:`~cavitytherm.dynamics.FieldStep.evolve_grid` call. Each state
    is then pulsed and read out in scalar ``math`` arithmetic on its
    floats: the pulse of :func:`pi_half_pulse` or the smaller eigenvalue
    of the pre-pulse state, the post-pulse state built and checked by
    ``AtomDensity._checked``, its smaller eigenvalue clamped at 0 within
    the same ``_POSITIVITY_SLACK``, and
    :func:`~cavitytherm.analytic.temperature_from_pe`. A result's
    pre-pulse state is the kernel's and its post-pulse state is that
    checked one. The kernel's list of states is filled in place and
    returned, so a sweep holds one list per grid.
    """
    if not times:
        raise ValueError("t_grid must be nonempty")
    ordered = [t for t in times if not math.isnan(t)]
    if any(b < a for a, b in zip(ordered, ordered[1:])):
        raise ValueError("t_grid must be ascending")
    prep, physical = config.prep, config.physical
    results = FieldStep(prep, physical).evolve_grid(config.initial_atom(), times)
    scales = config.timescales()
    collapse_complete, half_revival = scales.collapse_complete, scales.half_revival
    phi, delta_e = prep.phi, physical.delta_e
    explicit = config.pulse_mode == "explicit_unitary"
    for i, (t, rho) in enumerate(zip(times, results)):
        if isinstance(rho, ValueError):
            continue
        p, c = rho.rho11, rho.rho01
        try:
            if explicit:
                p_post, c_post = _quarter_turn(p, c, cooling_axis_azimuth(t, phi, physical))
            else:
                p_post, c_post = density_eigenvalues(p, c)[0], 0j
            rho_post = AtomDensity._checked(p_post, c_post)
            pe = density_eigenvalues(p_post, c_post)[0]
            if pe < 0.0:
                if pe < -_POSITIVITY_SLACK:
                    raise ValueError(f"post-pulse state has negative eigenvalue {pe}")
                pe = 0.0
            reading = temperature_from_pe(pe, delta_e)
        except Exception as exc:  # noqa: BLE001 - per-point errors are data
            results[i] = exc
            continue
        residual = abs(c_post)
        results[i] = ProtocolResult(
            rho,
            rho_post,
            reading,
            _FLAGS[t >= collapse_complete, t <= half_revival,
                   residual <= PULSE_RESIDUAL_TOLERANCE],
            residual,
        )
    return results


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
