"""End-to-end acceptance suite for the temperature-control pipeline.

Each test states one headline guarantee of the package at its stated
tolerance. The half-revival floor is measured against the leading-order
estimate ``(pi^2 + 4) / (64 n_bar)`` (derived in
``analytic.pe_half_revival``); the paper's ``pi^2 / (32 n_bar)`` is not the
leading order of the exact floor and is asserted only as an upper bound.
Initial-state independence is asserted over the working window at the
default mean photon number of 36, and over the extended window
``[3 tau_c, 0.8 tau_r]`` at the larger ``n_bar`` where the first revival's
leading tail stays below the bound.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time

import numpy as np
import pytest
import scipy.linalg

from cavitytherm import analytic, dynamics, hilbert, protocol
from cavitytherm.analytic import Timescales
from cavitytherm.hilbert import LEVEL_E, LEVEL_G, PhysicalParams

N_BAR = 36.0
ALPHA = 6.0
SCALES = Timescales(N_BAR)


def pipeline_config(t: float, n_bar: float = N_BAR) -> protocol.ProtocolConfig:
    return protocol.ProtocolConfig(
        prep=hilbert.CoherentPrep(math.sqrt(n_bar)),
        interaction_time=t,
        physical=PhysicalParams(),
        initial_beta=1.0,
    )


def test_slow_coherence_tracks_exact_dynamics_for_both_initial_levels():
    """Closed-form coherence vs propagator, per component, both levels.

    Window [3 tau_c, tau_r/2 - 3 tau_c], tolerance 0.02 per real and
    imaginary part, evaluated fast enough for interactive use.
    """
    started = time.perf_counter()
    t_grid = np.linspace(SCALES.collapse_complete,
                         SCALES.half_revival - SCALES.collapse_complete, 300)
    worst = 0.0
    for level in (LEVEL_G, LEVEL_E):
        state = hilbert.coherent_joint_state(level, ALPHA)
        for t in t_grid:
            exact = hilbert.partial_trace_field(
                dynamics.propagate(state, float(t))).rho01
            approx = analytic.rho01_analytic(float(t), N_BAR)
            worst = max(worst, abs(exact.real - approx.real),
                        abs(exact.imag - approx.imag))
    elapsed = time.perf_counter() - started
    assert worst <= 0.02, (
        f"max per-component coherence gap {worst:.4f} exceeds 0.02")
    assert elapsed < 2.0, f"coherence comparison took {elapsed:.2f} s (budget 2 s)"


def test_atom_forgets_initial_state_through_extended_window():
    """Trace distance between ground- and excited-start reduced states.

    Must exceed 0.9 at t=0 and stay below 0.02 at 50 sample points across
    the working window [3 tau_c, tau_r/2] at n_bar = 36, and across the
    extended window [3 tau_c, 0.8 tau_r] at n_bar = 64 and 100. At
    n_bar = 36 the first revival's leading tail exceeds the bound before
    0.8 tau_r, so the extended window is asserted only where it holds.
    """
    config = pipeline_config(0.0)
    at_zero = protocol.initial_state_independence(config, 0.0, (0.0, 1.0))
    assert at_zero >= 0.9

    for n_bar, upper in ((N_BAR, 0.5), (64.0, 0.8), (100.0, 0.8)):
        scales = Timescales(n_bar)
        config = pipeline_config(0.0, n_bar)
        worst, worst_t = 0.0, 0.0
        for t in np.linspace(scales.collapse_complete,
                             upper * scales.tau_revival, 50):
            d = protocol.initial_state_independence(config, float(t), (0.0, 1.0))
            if d > worst:
                worst, worst_t = d, float(t)
        assert worst <= 0.02, (
            f"initial-state memory at n_bar={n_bar:g}: max trace distance "
            f"{worst:.4f} at t={worst_t:.2f} over [3 tau_c, {upper:g} tau_r] "
            f"exceeds 0.02"
        )


def test_population_saturates_at_half_through_extended_window():
    """|rho11 - 1/2| <= 0.02 over [3 tau_c, 0.8 tau_r] for both levels."""
    worst = 0.0
    for level in (LEVEL_G, LEVEL_E):
        state = hilbert.coherent_joint_state(level, ALPHA)
        for t in np.linspace(SCALES.collapse_complete, 0.8 * SCALES.tau_revival, 50):
            rho = hilbert.partial_trace_field(dynamics.propagate(state, float(t)))
            worst = max(worst, abs(rho.rho11 - 0.5))
    assert worst <= 0.02, f"population strays {worst:.4f} from 1/2 (bound 0.02)"


def test_half_revival_floor_tracks_estimate_across_photon_numbers():
    """Pipeline pe at the half revival vs the leading-order floor.

    Relative error against (pi^2 + 4)/(64 n_bar) must stay within 25% for
    n_bar in {25, 36, 64, 100} and shrink as n_bar grows; the pipeline value
    must lie below the paper's pi^2/(32 n_bar) at every n_bar.
    """
    rel_errors = []
    for n_bar in (25.0, 36.0, 64.0, 100.0):
        t_half = Timescales(n_bar).half_revival
        pe = protocol.run_protocol(pipeline_config(t_half, n_bar)).reading.pe
        assert pe < analytic.pe_half_revival(n_bar), (
            f"pipeline floor {pe:.6f} not below pi^2/(32 n_bar) at "
            f"n_bar={n_bar:g}")
        estimate = analytic.pe_half_revival(n_bar, variant="leading_order")
        rel_errors.append(abs(pe - estimate) / estimate)
    pretty = ", ".join(f"{e:.1%}" for e in rel_errors)
    decreasing = all(b < a for a, b in zip(rel_errors, rel_errors[1:]))
    assert max(rel_errors) <= 0.25 and decreasing, (
        f"leading-order floor errors at n_bar=(25,36,64,100): {pretty} "
        f"(bound 25%, must decrease)"
    )


def test_floor_temperature_reference_values():
    """T_min(36) = 0.2105 and T_min(46) = 0.2001, both to 1e-3."""
    assert analytic.t_min(36.0).temperature == pytest.approx(0.2105, abs=1e-3)
    assert analytic.t_min(46.0).temperature == pytest.approx(0.2001, abs=1e-3)


def test_lambert_w_residuals_across_nine_decades():
    """|W e^W - x| <= 1e-10 max(1,x) on 100 log-spaced points; W(e)=1."""
    for x in np.logspace(-3.0, 6.0, 100):
        w = analytic.lambert_w0(float(x))
        assert abs(w * math.exp(w) - x) <= 1e-10 * max(1.0, float(x))
    assert abs(analytic.lambert_w0(math.e) - 1.0) <= 1e-12


def test_collapse_root_linearization_and_ceiling_monotonicity():
    """Collapse-condition roots, their Lambert linearization, and ceilings.

    The bisection root satisfies its defining equation to 1e-10; the
    linearized root tracks it within 2% from n_bar = 100 up; both ceiling
    variants rise monotonically with n_bar; their ratio is reported, not
    asserted.
    """
    grid = np.logspace(1.0, 3.0, 20)
    for n_bar in grid:
        ct = analytic.collapse_condition_time(float(n_bar))
        assert ct.residual <= 1e-10
        if n_bar >= 100.0:
            assert abs(ct.linearized - ct.root) / ct.root <= 0.02

    numeric = [analytic.t_max(float(n), variant="numeric").temperature
               for n in grid]
    closed = [analytic.t_max(float(n), variant="closed_form").temperature
              for n in grid]
    assert all(b > a for a, b in zip(numeric, numeric[1:]))
    assert all(b > a for a, b in zip(closed, closed[1:]))
    ratios = [c / n for c, n in zip(closed, numeric)]
    print(f"ceiling variant ratio closed_form/numeric spans "
          f"[{min(ratios):.3f}, {max(ratios):.3f}] over n_bar in [10, 1000] "
          f"(reported, not asserted)")


def test_independent_oracles_agree():
    """Block propagator vs dense matrix exponential, and series vs partial trace.

    Fidelity deficit <= 1e-6 at the half revival; the reduced-state
    kernel's photon-number series matches the traced propagator (rho11 and
    rho01, both initial levels) to 1e-10 at 50 times.
    """
    state = hilbert.coherent_joint_state(LEVEL_E, ALPHA)
    t_half = SCALES.half_revival
    blocks = dynamics.propagate(state, t_half)
    h = dynamics.hamiltonian_matrix(state.params, state.n_max)
    dense = scipy.linalg.expm(-1j * t_half * h) @ state.amplitudes
    overlap = abs(np.vdot(blocks.amplitudes, dense))
    deficit = max(0.0, 1.0 - (overlap / (blocks.norm * np.linalg.norm(dense))) ** 2)
    assert deficit <= 1e-6, f"fidelity deficit {deficit:.2e} exceeds 1e-6"

    for level in (LEVEL_G, LEVEL_E):
        joint = hilbert.coherent_joint_state(level, ALPHA)
        for t in np.linspace(0.0, 0.8 * SCALES.tau_revival, 50):
            series = dynamics.evolve_atom_field_mixture(
                hilbert.AtomDensity(float(level)), ALPHA, float(t))
            traced = hilbert.partial_trace_field(dynamics.propagate(joint, float(t)))
            assert abs(series.rho11 - traced.rho11) <= 1e-10
            assert abs(series.rho01 - traced.rho01) <= 1e-10


def test_structural_invariants():
    """Unitarity, density-matrix sanity, pulse spectrum, thermal round trip."""
    state = hilbert.coherent_joint_state(LEVEL_E, ALPHA)
    for t in np.linspace(0.0, SCALES.tau_revival, 21):
        evolved = dynamics.propagate(state, float(t))
        assert abs(evolved.norm - 1.0) <= 1e-12

        rho = hilbert.partial_trace_field(evolved)
        assert rho.rho00 + rho.rho11 == 1.0
        m = rho.as_matrix()
        assert m[1, 0] == np.conj(m[0, 1])
        assert rho.determinant >= -1e-12
        assert rho.eigenvalues()[0] >= -1e-12

    rng = np.random.default_rng(20260815)
    for _ in range(50):
        z = rng.uniform(-1.0, 1.0)
        r = rng.uniform(0.0, math.sqrt(max(1.0 - z * z, 0.0)))
        ang, axis = rng.uniform(0.0, 2.0 * math.pi, size=2)
        rho = hilbert.atom_density_from_bloch(
            [r * math.cos(ang), r * math.sin(ang), z])
        before = rho.eigenvalues()
        after = protocol.pi_half_pulse(rho, float(axis)).eigenvalues()
        assert abs(before[0] - after[0]) <= 1e-12
        assert abs(before[1] - after[1]) <= 1e-12

    for beta in np.logspace(math.log10(0.1), math.log10(10.0), 25):
        pe = hilbert.thermal_atom(float(beta)).rho11
        reading = analytic.temperature_from_pe(pe)
        assert abs(reading.temperature - 1.0 / beta) <= 1e-10 / beta


def test_self_validation_battery_is_clean():
    """The validate subcommand finishes inside a minute and reports no failures."""
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "cavitytherm", "validate"],
        capture_output=True, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"validation battery took {elapsed:.1f} s (budget 60 s)"
    lines = proc.stdout.strip().splitlines()
    failing = "\n".join(line for line in lines if line.startswith("FAIL"))
    assert proc.returncode == 0, (
        f"validation battery exited {proc.returncode}; failing checks:\n"
        f"{failing}\n{lines[-1] if lines else proc.stderr}"
    )
