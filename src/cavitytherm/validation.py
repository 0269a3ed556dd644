"""Self-validation battery: every library invariant as a named check.

Each check exercises one documented property of the package at default
parameters and reports a pass/fail verdict with the measured numbers. The
battery is what the ``validate`` CLI subcommand runs; it is deterministic
(fixed seeds, single-threaded) and takes 0.11-0.17 s on a 2-core Xeon, Python 3.11.

The half-revival floor check measures the pipeline against the
leading-order floor ``(pi^2 + 4) / (64 n_bar)``, whose relative error
shrinks with ``n_bar``; the paper's ``pi^2 / (32 n_bar)`` estimate does not
converge to the exact floor and is checked only as an upper bound on it.
The initial-state independence check covers the working window
``[3 tau_c, tau_r / 2]`` at the default mean photon number; past the half
revival the first revival's leading tail exceeds its bound at
``n_bar = 36``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import analytic, dynamics, hilbert, protocol

DEFAULT_N_BAR = 36.0
DEFAULT_ALPHA = 6.0 + 0.0j
_SCALES = analytic.Timescales(DEFAULT_N_BAR)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one validation check."""

    name: str
    passed: bool
    detail: str
    duration: float = 0.0


@dataclass(frozen=True)
class ValidationReport:
    """All check outcomes plus the total wall-clock time."""

    checks: tuple[CheckResult, ...]
    total_duration: float

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failed(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def format_report(self) -> str:
        lines = []
        width = max(len(c.name) for c in self.checks)
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            lines.append(f"{mark}  {c.name:<{width}}  {c.detail}")
        n_fail = len(self.failed)
        lines.append(
            f"{len(self.checks)} checks, {len(self.checks) - n_fail} passed, "
            f"{n_fail} failed, {self.total_duration:.1f} s"
        )
        return "\n".join(lines)


_CHECKS: list[tuple[Callable[[], tuple[bool, str]], bool]] = []


def _check(slow: bool = False):
    def wrap(fn: Callable[[], tuple[bool, str]]):
        _CHECKS.append((fn, slow))
        return fn
    return wrap


def _default_config(t: float = 0.0, **overrides) -> protocol.ProtocolConfig:
    kwargs = dict(
        prep=hilbert.CoherentPrep(DEFAULT_ALPHA),
        interaction_time=t,
        initial_beta=1.0,
    )
    kwargs.update(overrides)
    return protocol.ProtocolConfig(**kwargs)


def _excited_joint_state(alpha: complex = DEFAULT_ALPHA) -> hilbert.JointPureState:
    return hilbert.coherent_joint_state(hilbert.LEVEL_E, alpha)


@_check()
def coherent_amplitudes_match_poisson() -> tuple[bool, str]:
    """|c_n|^2 equals the Poisson weight for every retained n."""
    worst = 0.0
    for alpha in (6.0, 6.0 * np.exp(1j * np.pi / 3.0)):
        prep = hilbert.CoherentPrep(alpha)
        n = np.arange(prep.n_max + 1)
        probs = np.abs(hilbert.coherent_amplitudes(prep.alpha, prep.n_max)) ** 2
        worst = max(worst, float(np.max(np.abs(
            probs - hilbert.poisson_weight(n, prep.n_bar)))))
    return worst <= 1e-12, f"max ||c_n|^2 - w(n)| = {worst:.2e} (bound 1e-12)"


@_check()
def evolved_states_are_densities() -> tuple[bool, str]:
    """Partial traces along the pipeline are unit-trace, Hermitian, positive."""
    field_step = dynamics.FieldStep(hilbert.CoherentPrep(DEFAULT_ALPHA))
    atom = hilbert.thermal_atom(1.0)
    worst_det = math.inf
    grid = np.linspace(0.0, _SCALES.tau_revival, 17)
    for t, rho in zip(grid, field_step.evolve_grid(atom, grid)):
        if isinstance(rho, ValueError):
            raise rho
        worst_det = min(worst_det, rho.determinant)
        if rho.eigenvalues()[0] < -1e-12:
            return False, f"negative eigenvalue at t={t:.3f}"
    return worst_det >= -1e-12, (
        f"trace exactly 1 by construction; min det = {worst_det:.2e} "
        f"(bound -1e-12)"
    )


@_check()
def bloch_round_trip() -> tuple[bool, str]:
    """bloch_vector and its inverse are exact inverses."""
    rng = np.random.default_rng(20260815)
    worst = 0.0
    for _ in range(100):
        z = rng.uniform(-1.0, 1.0)
        r = rng.uniform(0.0, math.sqrt(max(1.0 - z * z, 0.0)))
        ang = rng.uniform(0.0, 2.0 * math.pi)
        vec = np.array([r * math.cos(ang), r * math.sin(ang), z])
        back = hilbert.bloch_vector(hilbert.atom_density_from_bloch(vec))
        worst = max(worst, float(np.max(np.abs(back - vec))))
    return worst <= 1e-12, f"max round-trip error = {worst:.2e} (bound 1e-12)"


@_check()
def thermal_temperature_round_trip() -> tuple[bool, str]:
    """thermal_atom then the temperature map recovers 1/beta."""
    worst = 0.0
    for beta in np.logspace(math.log10(0.1), math.log10(10.0), 25):
        reading = analytic.temperature_from_pe(
            hilbert.thermal_atom(float(beta)).rho11)
        worst = max(worst, abs(reading.temperature - 1.0 / beta) * beta)
    return worst <= 1e-10, (
        f"max relative temperature error = {worst:.2e} over beta*delta_e in "
        f"[0.1, 10] (bound 1e-10)"
    )


@_check()
def propagator_unitarity() -> tuple[bool, str]:
    """Closed-form propagation preserves the state norm."""
    state = _excited_joint_state()
    norms = [dynamics.propagate(state, float(t)).norm
             for t in np.linspace(0.0, 2.0 * _SCALES.tau_revival, 41)]
    worst = max(abs(n - state.norm) for n in norms)
    return worst <= 1e-12, f"max norm drift = {worst:.2e} over [0, 2 tau_r] (bound 1e-12)"


@_check()
def propagator_composition() -> tuple[bool, str]:
    """Propagating t1 then t2 equals propagating t1 + t2."""
    state = _excited_joint_state()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        t1, t2 = rng.uniform(0.0, _SCALES.tau_revival, size=2)
        once = dynamics.propagate(state, float(t1 + t2))
        twice = dynamics.propagate(dynamics.propagate(state, float(t1)), float(t2))
        worst = max(worst, float(np.max(np.abs(once.amplitudes - twice.amplitudes))))
    return worst <= 1e-11, f"max composition mismatch = {worst:.2e} (bound 1e-11)"


@_check()
def energy_conservation() -> tuple[bool, str]:
    """<H> is constant along trajectories."""
    state = _excited_joint_state()
    h = dynamics.hamiltonian_matrix(state.params, state.n_max)

    def energy(s: hilbert.JointPureState) -> float:
        return float(np.real(np.vdot(s.amplitudes, h @ s.amplitudes)))

    e0 = energy(state)
    scale = max(1.0, abs(e0))
    worst = max(
        abs(energy(dynamics.propagate(state, float(t))) - e0)
        for t in np.linspace(0.0, _SCALES.tau_revival, 23)
    )
    return worst <= 1e-10 * scale, (
        f"max <H> drift = {worst:.2e} against scale {scale:.1f} (bound 1e-10 relative)"
    )


@_check()
def block_structure_preserved() -> tuple[bool, str]:
    """Amplitudes outside the initial excitation blocks stay exactly zero."""
    n_max = 40
    amps = np.zeros(2 * (n_max + 1), dtype=np.complex128)
    amps[2 * 5 + hilbert.LEVEL_E] = 1.0
    state = hilbert.JointPureState(amps)
    evolved = dynamics.propagate(state, 3.7)
    inside = {2 * 5 + hilbert.LEVEL_E, 2 * 6 + hilbert.LEVEL_G}
    leaked = sum(
        1 for i, a in enumerate(evolved.amplitudes) if i not in inside and a != 0.0
    )
    vac = hilbert.JointPureState(np.eye(1, 2 * (n_max + 1), 0).ravel().astype(complex))
    vac_moved = dynamics.propagate(vac, 2.1).amplitude(hilbert.LEVEL_G, 0) != 1.0 + 0j
    ok = leaked == 0 and not vac_moved
    return ok, f"{leaked} amplitudes leaked outside the block; vacuum moved: {vac_moved}"


@_check()
def coherence_series_matches_trace() -> tuple[bool, str]:
    """The reduced-state kernel equals propagate + partial trace.

    Compares ``rho11`` and ``rho01`` of the photon-number series in
    :func:`~cavitytherm.dynamics.evolve_atom_field_mixture` with the traced
    block propagator for both initial levels. Also verifies the check's own
    sensitivity: a series run at half the true coupling (a splitting
    convention of half the true size) must break the identity visibly.
    """
    times = np.linspace(0.0, 0.8 * _SCALES.tau_revival, 50)
    worst = 0.0
    # The level indices 0 (g) and 1 (e) are also the atoms' excited populations.
    for level in (hilbert.LEVEL_G, hilbert.LEVEL_E):
        state = hilbert.coherent_joint_state(level, DEFAULT_ALPHA)
        for t in times:
            series = dynamics.evolve_atom_field_mixture(
                hilbert.AtomDensity(float(level)), DEFAULT_ALPHA, float(t))
            traced = hilbert.partial_trace_field(dynamics.propagate(state, float(t)))
            worst = max(worst, abs(series.rho11 - traced.rho11),
                        abs(series.rho01 - traced.rho01))
    halved_g = hilbert.PhysicalParams(g=0.5)
    halved = max(
        abs(dynamics.evolve_atom_field_mixture(
            hilbert.AtomDensity(1.0), DEFAULT_ALPHA, float(t), halved_g).rho01
            - dynamics.coherence_from_propagator(float(t), DEFAULT_ALPHA))
        for t in times[1:]
    )
    ok = worst <= 1e-10 and halved > 1e-3
    return ok, (
        f"max series-vs-trace gap = {worst:.2e} (bound 1e-10); gap with a "
        f"halved splitting injected = {halved:.2e} (must exceed 1e-3)"
    )


@_check()
def pulse_preserves_eigenvalues() -> tuple[bool, str]:
    """The half pulse is unitary: eigenvalues are untouched."""
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(60):
        z = rng.uniform(-1.0, 1.0)
        r = rng.uniform(0.0, math.sqrt(max(1.0 - z * z, 0.0)))
        ang, axis = rng.uniform(0.0, 2.0 * math.pi, size=2)
        rho = hilbert.atom_density_from_bloch(
            [r * math.cos(ang), r * math.sin(ang), z])
        before = rho.eigenvalues()
        after = protocol.pi_half_pulse(rho, float(axis)).eigenvalues()
        worst = max(worst, abs(before[0] - after[0]), abs(before[1] - after[1]))
    return worst <= 1e-12, f"max eigenvalue shift = {worst:.2e} (bound 1e-12)"


@_check()
def reading_pe_below_half() -> tuple[bool, str]:
    """The protocol reading never reports more than half excitation."""
    grid = np.linspace(0.0, _SCALES.half_revival, 21)
    worst = max(p.result.reading.pe for m in protocol.PULSE_MODES
                for p in protocol.sweep_interaction_time(_default_config(pulse_mode=m), grid))
    return worst <= 0.5 + 1e-12, f"max reading.pe = {worst:.15f} (bound 0.5 + 1e-12)"


@_check()
def pipeline_determinism() -> tuple[bool, str]:
    """Identical configs produce bit-identical results."""
    t = _SCALES.half_revival * 0.37
    a = protocol.run_protocol(_default_config(t))
    b = protocol.run_protocol(_default_config(t))
    same = (
        a.rho_pre_pulse == b.rho_pre_pulse
        and a.rho_post_pulse == b.rho_post_pulse
        and a.reading == b.reading
        and a.pulse_residual == b.pulse_residual
    )
    return same, "two identical runs compared field-by-field"


@_check()
def reading_matches_analytic_floor() -> tuple[bool, str]:
    """Inside the window the reading tracks the closed-form pulse floor."""
    sweep = protocol.sweep_interaction_time(
        _default_config(), np.linspace(_SCALES.collapse_complete, _SCALES.half_revival, 25))
    worst = max(abs(p.result.reading.pe - analytic.pe_after_pulse_analytic(p.t, DEFAULT_N_BAR))
                for p in sweep)
    return worst <= 0.02, f"max |reading.pe - closed form| = {worst:.4f} (bound 0.02)"


@_check()
def closed_form_coherence_accuracy() -> tuple[bool, str]:
    """The slow-coherence closed form tracks the exact coherence per component."""
    started = time.perf_counter()
    times = np.linspace(_SCALES.collapse_complete,
                        _SCALES.half_revival - _SCALES.collapse_complete, 300)
    field_step = dynamics.FieldStep(hilbert.CoherentPrep(DEFAULT_ALPHA))
    worst = 0.0
    for pe in (0.0, 1.0):  # the atom starts in g, then in e
        for t, rho in zip(times, field_step.evolve_grid(hilbert.AtomDensity(pe), times)):
            gap = rho.rho01 - analytic.rho01_analytic(float(t), DEFAULT_N_BAR)
            worst = max(worst, abs(gap.real), abs(gap.imag))
    elapsed = time.perf_counter() - started
    # The seconds are printed only over budget, so a passing report is the same bytes each run.
    budget = "within the 2 s budget" if elapsed < 2.0 else f"{elapsed:.2f} s (budget 2 s)"
    return worst <= 0.02 and elapsed < 2.0, (
        f"max per-component gap = {worst:.4f} (bound 0.02), both initial "
        f"levels, {budget}"
    )


@_check()
def initial_state_independence_window() -> tuple[bool, str]:
    """Reduced states forget the initial atom inside the working window.

    Samples ``[3 tau_c, tau_r / 2]`` at the default n_bar = 36. Beyond the
    window the first revival's leading tail lifts the trace distance past
    the bound at this n_bar (about 0.044 near 0.79 tau_r).
    """
    config = _default_config()
    at_zero = protocol.initial_state_independence(config, 0.0, (0.0, 1.0))
    worst, worst_t = 0.0, 0.0
    for t in np.linspace(_SCALES.collapse_complete, _SCALES.half_revival, 50):
        d = protocol.initial_state_independence(config, float(t), (0.0, 1.0))
        if d > worst:
            worst, worst_t = d, float(t)
    ok = at_zero >= 0.9 and worst <= 0.02
    return ok, (
        f"distance at t=0: {at_zero:.3f} (need >= 0.9); max over "
        f"[3 tau_c, tau_r/2] {worst:.4f} at t={worst_t:.2f} (bound 0.02)"
    )


@_check()
def population_settles_to_half() -> tuple[bool, str]:
    """Excited population saturates at 1/2 over ``[3 tau_c, 0.8 tau_r]``."""
    field_step = dynamics.FieldStep(hilbert.CoherentPrep(DEFAULT_ALPHA))
    times = np.linspace(_SCALES.collapse_complete, 0.8 * _SCALES.tau_revival, 50)
    worst = max(abs(rho.rho11 - 0.5) for pe in (0.0, 1.0)  # the atom starts in g, then in e
                for rho in field_step.evolve_grid(hilbert.AtomDensity(pe), times))
    return worst <= 0.02, f"max |rho11 - 1/2| = {worst:.4f} (bound 0.02)"


@_check()
def half_revival_floor_accuracy() -> tuple[bool, str]:
    """Pipeline floor vs the leading-order estimate across n_bar.

    The relative error against ``(pi^2 + 4) / (64 n_bar)`` stays within 25%
    and shrinks as n_bar grows; the pipeline floor also lies below the
    paper's ``pi^2 / (32 n_bar)`` at every n_bar.
    """
    rel_errors = []
    below_paper = True
    for n_bar in (25.0, 36.0, 64.0, 100.0):
        alpha = math.sqrt(n_bar)
        scales = analytic.Timescales(n_bar)
        config = protocol.ProtocolConfig(
            prep=hilbert.CoherentPrep(alpha),
            interaction_time=scales.half_revival,
            initial_beta=1.0,
        )
        pe = protocol.run_protocol(config).reading.pe
        estimate = analytic.pe_half_revival(n_bar, variant="leading_order")
        rel_errors.append(abs(pe - estimate) / estimate)
        below_paper = below_paper and pe < analytic.pe_half_revival(n_bar)
    decreasing = all(b < a for a, b in zip(rel_errors, rel_errors[1:]))
    ok = max(rel_errors) <= 0.25 and decreasing and below_paper
    pretty = ", ".join(f"{e:.1%}" for e in rel_errors)
    return ok, (
        f"relative errors vs (pi^2+4)/(64 n_bar) at n_bar=(25,36,64,100): "
        f"{pretty} (bound 25%, must decrease); below pi^2/(32 n_bar) at "
        f"every n_bar: {below_paper}"
    )


@_check()
def temperature_floor_values() -> tuple[bool, str]:
    """Reference floor temperatures at n_bar = 36 and 46."""
    t36 = analytic.t_min(36.0).temperature
    t46 = analytic.t_min(46.0).temperature
    ok = abs(t36 - 0.2105) <= 1e-3 and abs(t46 - 0.2001) <= 1e-3
    return ok, f"T_min(36) = {t36:.4f} (expect 0.2105), T_min(46) = {t46:.4f} (expect 0.2001)"


@_check()
def lambert_w_residuals() -> tuple[bool, str]:
    """Lambert W satisfies its defining equation across nine decades."""
    worst = 0.0
    for x in np.logspace(-3.0, 6.0, 100):
        w = analytic.lambert_w0(float(x))
        worst = max(worst, abs(w * math.exp(w) - x) / max(1.0, x))
    at_e = abs(analytic.lambert_w0(math.e) - 1.0)
    ok = worst <= 1e-10 and at_e <= 1e-12 and analytic.lambert_w0(0.0) == 0.0
    return ok, (
        f"max scaled residual = {worst:.2e} (bound 1e-10); |W(e) - 1| = "
        f"{at_e:.2e} (bound 1e-12)"
    )


@_check()
def collapse_root_and_linearization() -> tuple[bool, str]:
    """Collapse-condition roots are exact; the Lambert form tracks them."""
    worst_res, worst_gap = 0.0, 0.0
    for n_bar in np.logspace(1.0, 3.0, 20):
        ct = analytic.collapse_condition_time(float(n_bar))
        worst_res = max(worst_res, ct.residual)
        if n_bar >= 100.0:
            worst_gap = max(worst_gap, abs(ct.linearized - ct.root) / ct.root)
    ok = worst_res <= 1e-10 and worst_gap <= 0.02
    return ok, (
        f"max defining-equation residual = {worst_res:.2e} (bound 1e-10); "
        f"max linearized gap for n_bar >= 100: {worst_gap:.2%} (bound 2%)"
    )


@_check()
def temperature_ceiling_monotone() -> tuple[bool, str]:
    """Both ceiling variants rise with n_bar; their ratio is recorded."""
    grid = np.logspace(1.0, 3.0, 20)
    numeric = [analytic.t_max(float(n), variant="numeric").temperature for n in grid]
    closed = [analytic.t_max(float(n), variant="closed_form").temperature for n in grid]
    mono = (all(b > a for a, b in zip(numeric, numeric[1:]))
            and all(b > a for a, b in zip(closed, closed[1:])))
    ratios = [c / n for c, n in zip(closed, numeric)]
    return mono, (
        f"both variants monotone increasing on [10, 1000]: {mono}; "
        f"closed_form/numeric ratio spans [{min(ratios):.3f}, {max(ratios):.3f}] "
        f"(recorded, not asserted)"
    )


@_check()
def temperature_floor_monotone() -> tuple[bool, str]:
    """The floor temperature falls as the field grows brighter."""
    grid = np.logspace(1.0, 3.0, 20)
    floors = [analytic.t_min(float(n)).temperature for n in grid]
    mono = all(b < a for a, b in zip(floors, floors[1:]))
    return mono, f"t_min strictly decreasing on [10, 1000]: {mono}"


@_check()
def coherence_phase_advances_at_carrier() -> tuple[bool, str]:
    """The closed-form coherence phase advances at the carrier rate."""
    params = hilbert.PhysicalParams()
    dt = 0.1375
    worst = 0.0
    for t in np.linspace(_SCALES.collapse_complete, _SCALES.half_revival - dt, 40):
        a = analytic.rho01_analytic(float(t), DEFAULT_N_BAR, params)
        b = analytic.rho01_analytic(float(t) + dt, DEFAULT_N_BAR, params)
        # Inside the window the sine factor stays positive, so the whole
        # phase advance is the carrier's omega * dt.
        diff = np.angle(b * np.conj(a))
        expected = (params.omega * dt) % (2.0 * math.pi)
        gap = abs((diff - expected + math.pi) % (2.0 * math.pi) - math.pi)
        worst = max(worst, gap)
    mags_ok = all(
        abs(analytic.rho01_analytic(float(t), DEFAULT_N_BAR)) <= 0.5 + 1e-15
        for t in np.linspace(0.0, 4.0 * _SCALES.tau_revival, 100)
    )
    ok = worst <= 1e-10 and mags_ok
    return ok, (
        f"max phase-advance error = {worst:.2e} rad (bound 1e-10); "
        f"magnitude <= 1/2 everywhere: {mags_ok}"
    )


@_check()
def pulse_floor_identity() -> tuple[bool, str]:
    """The closed-form floor equals 1/2 minus the coherence magnitude."""
    worst = max(
        abs(analytic.pe_after_pulse_analytic(float(t), DEFAULT_N_BAR)
            - (0.5 - abs(analytic.rho01_analytic(float(t), DEFAULT_N_BAR))))
        for t in np.linspace(0.0, _SCALES.half_revival, 60)
    )
    return worst <= 1e-15, f"max identity gap = {worst:.2e} (bound 1e-15)"


@_check(slow=True)
def propagator_vs_ode() -> tuple[bool, str]:
    """Closed-form blocks agree with exp(-i H t) of the dense H.

    ``numpy.linalg.eigh`` gives ``exp(-i H t) = V diag(exp(-i E t)) V^dagger``,
    generic in ``H`` and independent of the block formulas. The name, from an
    earlier ODE oracle, stays: ``perfbench/run.py::ORACLE_CHECK`` looks it up.
    """
    state = _excited_joint_state()
    t = _SCALES.half_revival
    blocks = dynamics.propagate(state, t)
    e, v = np.linalg.eigh(dynamics.hamiltonian_matrix(state.params, state.n_max))
    u = (v * np.exp(-1j * t * e)) @ v.conj().T
    dense = hilbert.JointPureState(u @ state.amplitudes, state.params)
    overlap = abs(np.vdot(blocks.amplitudes, dense.amplitudes))
    deficit = max(0.0, 1.0 - (overlap / (blocks.norm * dense.norm)) ** 2)
    return deficit <= 1e-6, (
        f"fidelity deficit at the half revival = {deficit:.2e} (bound 1e-6)"
    )


@_check()
def sweep_monotone_after_collapse() -> tuple[bool, str]:
    """Past the collapse condition, longer interaction reads out colder.

    Monotonicity and the end-of-window minimum both hold to the sweep's
    stated numerical-noise tolerance of 1e-3: the exact floor has a real
    wiggle of about 1e-4 just before the half revival.
    """
    root = analytic.collapse_condition_time(DEFAULT_N_BAR).root
    config = _default_config()
    pes = [p.result.reading.pe for p in protocol.sweep_interaction_time(
        config, np.linspace(root, _SCALES.half_revival, 60))]
    worst_rise = max(
        (b - a for a, b in zip(pes, pes[1:])), default=0.0)
    full_pes = [p.result.reading.pe for p in protocol.sweep_interaction_time(
        config, np.linspace(0.0, _SCALES.half_revival, 200))]
    end_gap = full_pes[-1] - min(full_pes)
    ok = worst_rise <= 1e-3 and end_gap <= 1e-3
    return ok, (
        f"max pe rise between consecutive points = {worst_rise:.2e} "
        f"(noise bound 1e-3); 200-point sweep's last pe sits {end_gap:.2e} "
        f"above its minimum (noise bound 1e-3)"
    )


@_check()
def ceiling_matches_sweep() -> tuple[bool, str]:
    """The sweep temperature at the collapse condition matches the ceiling."""
    root = analytic.collapse_condition_time(DEFAULT_N_BAR).root
    res = protocol.run_protocol(_default_config(root))
    ceiling = analytic.t_max(DEFAULT_N_BAR, variant="numeric").temperature
    gap = abs(res.reading.temperature - ceiling) / ceiling
    return gap <= 0.10, (
        f"pipeline T at the collapse condition = {res.reading.temperature:.3f} "
        f"vs ceiling {ceiling:.3f}; relative gap {gap:.2%} (bound 10%)"
    )


def run_all_checks(include_slow: bool = True) -> ValidationReport:
    """Run the whole battery and collect a report.

    ``include_slow=False`` leaves out the oracle, ``propagator_vs_ode``, so
    ``perfbench/run.py::battery_times`` can time it apart from the rest.
    """
    results = []
    started = time.perf_counter()
    for fn, slow in _CHECKS:
        if slow and not include_slow:
            continue
        t0 = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:  # noqa: BLE001 - a crash is a failed check
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(
            name=fn.__name__,
            passed=bool(passed),
            detail=detail,
            duration=time.perf_counter() - t0,
        ))
    return ValidationReport(
        checks=tuple(results),
        total_duration=time.perf_counter() - started,
    )
