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
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

from .analytic import TemperatureReading, Timescales, temperature_from_pe
from .dynamics import FieldStep, check_interaction_time
from .hilbert import (
    AtomDensity,
    CoherentPrep,
    PhysicalParams,
    check_density,
    density_eigenvalues,
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


# A sweep keeps one of each per-point class (these, AtomDensity and
# TemperatureReading) per time; slots keep them a third smaller.
@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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


class SweepColumns(NamedTuple):
    """The protocol over a grid of interaction times, one tuple per quantity.

    Entry ``i`` of each column is for the time ``t[i]``: the pre- and
    post-pulse states ``rho11_pre``, ``rho01_pre``, ``rho11_post`` and
    ``rho01_post``; the ``reading`` (a ``TemperatureReading``) with its
    ``pe`` and ``temperature``; the ``pulse_residual``; the validity flags
    ``collapse_completed``, ``within_half_revival`` and
    ``pulse_residual_ok``; and ``error``, the failure message or ``None``.
    A failed point is NaN in the float columns, ``None`` in ``reading`` and
    ``False`` in the flags, and ``failures`` holds its exception. Every
    number is a Python float, complex or bool. ``atom`` is the initial
    atom, the pre-pulse state of a zero-time point.

    :func:`sweep_columns` returns these columns and builds no per-point
    object; :func:`sweep_interaction_time` builds a :class:`SweepPoint`
    from them for every time.
    """

    atom: AtomDensity
    t: tuple[float, ...]
    rho11_pre: tuple[float, ...]
    rho01_pre: tuple[complex, ...]
    rho11_post: tuple[float, ...]
    rho01_post: tuple[complex, ...]
    reading: tuple[TemperatureReading | None, ...]
    pe: tuple[float, ...]
    temperature: tuple[float, ...]
    pulse_residual: tuple[float, ...]
    collapse_completed: tuple[bool, ...]
    within_half_revival: tuple[bool, ...]
    pulse_residual_ok: tuple[bool, ...]
    error: tuple[str | None, ...]
    failures: tuple[Exception | None, ...]

    def checked(self) -> SweepColumns:
        """The columns themselves, once no point has failed; else the first failure is raised."""
        for failure in self.failures:
            if failure is not None:
                raise failure
        return self

    def _result(self, i: int) -> ProtocolResult:
        """The ``ProtocolResult`` of point ``i``, which must not have failed.

        The states are built without the checks of ``AtomDensity``: the
        columns of :func:`_run_grid` hold only states it has held to
        :func:`~cavitytherm.hilbert.check_density`, and tuples keep them so.
        """
        t = self.t[i]
        return ProtocolResult(
            self.atom if t == 0.0 else AtomDensity._checked(self.rho11_pre[i], self.rho01_pre[i]),
            AtomDensity._checked(self.rho11_post[i], self.rho01_post[i]),
            self.reading[i],
            ValidityFlags(self.collapse_completed[i], self.within_half_revival[i],
                          self.pulse_residual_ok[i]),
            self.pulse_residual[i],
        )


def _run_grid(config: ProtocolConfig, times: list[float]) -> SweepColumns:
    """The protocol at each of ``times`` (Python floats), as :class:`SweepColumns`.

    The kernel's field step, the initial atom, the window edges, the field
    phase and the pulse mode are read once, and the kernel evolves every
    time into float columns in one
    :meth:`~cavitytherm.dynamics.FieldStep.grid_columns` call. Each point
    is then checked, pulsed and read out in scalar ``math`` arithmetic on
    floats: the pre-pulse state held to
    :func:`~cavitytherm.hilbert.check_density` as an ``AtomDensity`` would
    be, the pulse of :func:`pi_half_pulse` or the smaller eigenvalue of the
    pre-pulse state, the same check on the post-pulse state, its smaller
    eigenvalue clamped at 0 within ``_EIGENVALUE_SLACK``, and
    :func:`~cavitytherm.analytic.temperature_from_pe`. A point records
    the exception that stops it, and the others go on. No per-point object
    is built but the reading; a point's objects are built from the
    columns by :meth:`SweepColumns._result`.
    """
    prep, physical = config.prep, config.physical
    atom = config.initial_atom()
    rho11_pre, rho01_pre, failures = FieldStep(prep, physical).grid_columns(atom, times)
    scales = config.timescales()
    collapse_complete, half_revival = scales.collapse_complete, scales.half_revival
    phi, delta_e = prep.phi, physical.delta_e
    explicit = config.pulse_mode == "explicit_unitary"
    nan, nan_c = math.nan, complex(math.nan, math.nan)
    unset = (nan, nan_c, None, nan, nan, nan, False, False, False)
    # The columns after rho01_pre, in order, appended point by point. No
    # tuple is built from an iterator here: CPython frees such tuples into
    # its free lists without taking them from there, and 20-point sweeps
    # that transposed rows with zip filled them to ~0.4 MB.
    columns = ([], [], [], [], [], [], [], [], [])
    (rho11_post, rho01_post, readings, pes, temperatures, residuals, collapsed, within,
     residual_ok) = columns
    errors: list[str | None] = []
    for i, (t, p, c) in enumerate(zip(times, rho11_pre, rho01_pre)):
        if failures[i] is None:
            try:
                check_density(p, c)
                if explicit:
                    p_post, c_post = _quarter_turn(
                        p, c, cooling_axis_azimuth(t, phi, physical))
                else:
                    p_post, c_post = density_eigenvalues(p, c)[0], 0j
                check_density(p_post, c_post)
                pe = density_eigenvalues(p_post, c_post)[0]
                if pe < 0.0:
                    if pe < -_EIGENVALUE_SLACK:
                        raise ValueError(f"post-pulse state has negative eigenvalue {pe}")
                    pe = 0.0
                reading = temperature_from_pe(pe, delta_e)
            except Exception as exc:  # noqa: BLE001 - per-point errors are data
                failures[i] = exc
            else:
                residual = abs(c_post)
                rho11_post.append(p_post)
                rho01_post.append(c_post)
                readings.append(reading)
                pes.append(reading.pe)
                temperatures.append(reading.temperature)
                residuals.append(residual)
                collapsed.append(t >= collapse_complete)
                within.append(t <= half_revival)
                residual_ok.append(residual <= PULSE_RESIDUAL_TOLERANCE)
                errors.append(None)
                continue
        rho11_pre[i], rho01_pre[i] = nan, nan_c
        for column, value in zip(columns, unset):
            column.append(value)
        errors.append(str(failures[i]))
    return SweepColumns(atom, *[tuple(column) for column in (
        times, rho11_pre, rho01_pre, *columns, errors, failures)])


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
    return _run_grid(config, [float(config.interaction_time)]).checked()._result(0)


def sweep_columns(config: ProtocolConfig, t_grid: Sequence[float]) -> SweepColumns:
    """Run the protocol over an ascending grid of interaction times, as columns.

    The field step, initial atom and window edges are built once for the
    whole grid, and the kernel evaluates every time in one grid call before
    the pulse and readout run point by point in floats (:func:`_run_grid`);
    no ``ProtocolResult`` is built. A point whose time, state or readout is
    rejected (a negative, infinite or NaN time, one whose Rabi angle
    overflows, a failed pulse or temperature) records the error and the
    sweep goes on; NaN points are left out of the ascending check, so they
    cannot hide a descent around them. A failure of the field itself raises
    for the whole grid.
    """
    t_grid = [float(t) for t in t_grid]
    if not t_grid:
        raise ValueError("t_grid must be nonempty")
    ordered = [t for t in t_grid if not math.isnan(t)]
    if any(b < a for a, b in zip(ordered, ordered[1:])):
        raise ValueError("t_grid must be ascending")
    return _run_grid(config, t_grid)


def sweep_interaction_time(config: ProtocolConfig,
                           t_grid: Sequence[float]) -> list[SweepPoint]:
    """Run the protocol over an ascending grid of interaction times.

    One :class:`SweepPoint` per time, built from the columns of
    :func:`sweep_columns` (which has the grid checks and the per-point
    errors): a failed point holds its message and no result, and a point
    whose time is zero holds the initial atom itself as its pre-pulse
    state. Callers that need only some quantities read
    :func:`sweep_columns` and build no point.
    """
    columns = sweep_columns(config, t_grid)
    return [SweepPoint(t, None if error is not None else columns._result(i), error)
            for i, (t, error) in enumerate(zip(columns.t, columns.error))]


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
