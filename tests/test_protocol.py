"""End-to-end pipeline: pulse geometry, protocol runs, sweeps, diagnostics."""

from __future__ import annotations

import inspect
import math
import pickle
import tracemalloc
from dataclasses import MISSING, FrozenInstanceError, fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavitytherm import analytic, dynamics, hilbert, protocol
from cavitytherm.analytic import Timescales
from cavitytherm.hilbert import (
    AtomDensity,
    CoherentPrep,
    PhysicalParams,
    atom_density_from_bloch,
    bloch_vector,
)

N_BAR = 36.0
ALPHA = 6.0


def make_config(t: float, **overrides) -> protocol.ProtocolConfig:
    kwargs = dict(
        prep=CoherentPrep(ALPHA),
        interaction_time=t,
        physical=PhysicalParams(),
        initial_beta=1.0,
    )
    kwargs.update(overrides)
    return protocol.ProtocolConfig(**kwargs)


def bounded_bloch(z, frac, ang):
    r = frac * math.sqrt(max(1.0 - z * z, 0.0))
    return atom_density_from_bloch([r * math.cos(ang), r * math.sin(ang), z])


# Pauli matrices in (g, e) row/column ordering, matching the Bloch convention
# x = 2 Re rho01, y = 2 Im rho01 with rho01 = <g|rho|e> (sigma_x sigma_y = i sigma_z).
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
SIGMA_Y = np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=np.complex128)


def pulse_by_matrix(rho: AtomDensity, axis_angle: float) -> AtomDensity:
    """Oracle: conjugate rho by U = exp(-i (pi/4) n.sigma) as 2x2 matrices."""
    axis = math.cos(axis_angle) * SIGMA_X + math.sin(axis_angle) * SIGMA_Y
    u = math.cos(math.pi / 4.0) * np.eye(2) - 1j * math.sin(math.pi / 4.0) * axis
    rotated = u @ rho.as_matrix() @ u.conj().T
    return AtomDensity(rho11=float(rotated[1, 1].real), rho01=complex(rotated[0, 1]))


class TestPiHalfPulse:
    def test_maximally_mixed_is_invariant(self):
        rho = AtomDensity(0.5)
        out = protocol.pi_half_pulse(rho, axis_angle=1.234)
        assert out.rho11 == pytest.approx(0.5, abs=1e-15)
        assert abs(out.rho01) <= 1e-15

    def test_quarter_turn_about_x_sends_minus_y_down(self):
        rho = atom_density_from_bloch([0.0, -1.0, 0.0])
        out = protocol.pi_half_pulse(rho, axis_angle=0.0)
        assert abs(out.rho01) <= 1e-14
        assert out.rho11 == pytest.approx(0.0, abs=1e-14)

    def test_quarter_turn_about_x_sends_plus_y_up(self):
        rho = atom_density_from_bloch([0.0, 1.0, 0.0])
        out = protocol.pi_half_pulse(rho, axis_angle=0.0)
        assert out.rho11 == pytest.approx(1.0, abs=1e-14)

    def test_diagonalizes_quarter_revival_coherence(self):
        scales = Timescales(N_BAR)
        t = 0.25 * scales.tau_revival
        rho = AtomDensity(rho11=0.5, rho01=analytic.rho01_analytic(t, N_BAR))
        axis = protocol.cooling_axis_azimuth(t, phi=0.0)
        out = protocol.pi_half_pulse(rho, axis)
        assert abs(out.rho01) <= 1e-12
        expected_pe = analytic.pe_after_pulse_analytic(t, N_BAR)
        assert out.rho11 == pytest.approx(expected_pe, abs=1e-12)

    def test_axis_is_periodic_in_two_pi(self):
        rho = AtomDensity(rho11=0.4, rho01=0.2 + 0.1j)
        a = protocol.pi_half_pulse(rho, 0.7)
        b = protocol.pi_half_pulse(rho, 0.7 + 2.0 * math.pi)
        assert a.rho11 == pytest.approx(b.rho11, abs=1e-14)
        assert a.rho01 == pytest.approx(b.rho01, abs=1e-14)

    @settings(max_examples=200, deadline=None)
    @given(
        z=st.floats(-1.0, 1.0),
        frac=st.floats(0.0, 1.0),
        ang=st.floats(0.0, 2.0 * math.pi),
        axis=st.floats(-50.0, 50.0),
    )
    def test_closed_form_matches_matrix_oracle(self, z, frac, ang, axis):
        rho = bounded_bloch(z, frac, ang)
        got = protocol.pi_half_pulse(rho, axis)
        want = pulse_by_matrix(rho, axis)
        assert abs(got.rho11 - want.rho11) <= 1e-15
        assert abs(got.rho01 - want.rho01) <= 1e-15

    @settings(max_examples=50, deadline=None)
    @given(
        z=st.floats(-1.0, 1.0),
        frac=st.floats(0.0, 1.0),
        ang=st.floats(0.0, 2.0 * math.pi),
        axis=st.floats(0.0, 2.0 * math.pi),
    )
    def test_preserves_bloch_length_and_eigenvalues(self, z, frac, ang, axis):
        rho = bounded_bloch(z, frac, ang)
        out = protocol.pi_half_pulse(rho, axis)
        assert np.linalg.norm(bloch_vector(out)) == pytest.approx(
            np.linalg.norm(bloch_vector(rho)), abs=1e-12)
        for got, want in zip(out.eigenvalues(), rho.eigenvalues()):
            assert got == pytest.approx(want, abs=1e-12)


class TestCoolingAxis:
    def test_formula(self):
        params = PhysicalParams(delta_e=2.0, g=1.0)
        got = protocol.cooling_axis_azimuth(3.0, phi=0.4, params=params)
        assert got == pytest.approx(2.0 * 3.0 - 0.4 + math.pi)

    def test_sends_analytic_coherence_to_minimum(self):
        for t in (5.0, 9.0, 14.0):
            rho = AtomDensity(rho11=0.5, rho01=analytic.rho01_analytic(t, N_BAR))
            out = protocol.pi_half_pulse(rho, protocol.cooling_axis_azimuth(t))
            assert out.rho11 == pytest.approx(rho.eigenvalues()[0], abs=1e-12)


class TestProtocolConfig:
    def test_exactly_one_initial_state(self):
        with pytest.raises(ValueError, match="exactly one"):
            make_config(1.0, initial_pe=0.3)  # initial_beta also set by default
        with pytest.raises(ValueError, match="exactly one"):
            make_config(1.0, initial_beta=None)

    def test_bounds(self):
        with pytest.raises(ValueError):
            make_config(-1.0)
        with pytest.raises(ValueError):
            make_config(1.0, initial_beta=None, initial_pe=1.5)
        with pytest.raises(ValueError):
            make_config(1.0, pulse_mode="adiabatic")

    @pytest.mark.parametrize("field, value", [
        ("interaction_time", math.nan),
        ("interaction_time", math.inf),
        ("initial_beta", math.nan),
    ])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            make_config(1.0, **{field: value})

    @pytest.mark.parametrize("beta, pe", [(math.inf, 0.0), (-math.inf, 1.0)])
    def test_infinite_beta_is_a_pure_level(self, beta, pe):
        assert make_config(1.0, initial_beta=beta).initial_atom().rho11 == pe

    def test_initial_atom(self):
        thermal = make_config(1.0).initial_atom()
        assert thermal.rho11 == pytest.approx(1.0 / (1.0 + math.e))
        diagonal = make_config(1.0, initial_beta=None, initial_pe=0.25).initial_atom()
        assert diagonal.rho11 == 0.25
        assert diagonal.rho01 == 0j

    def test_timescales(self):
        scales = make_config(1.0).timescales()
        assert scales.n_bar == pytest.approx(N_BAR)


class TestRunProtocol:
    def test_zero_time_reproduces_initial_temperature(self):
        result = protocol.run_protocol(make_config(0.0, pulse_mode="diagonalize"))
        assert result.reading.temperature == pytest.approx(1.0, abs=1e-12)
        assert result.reading.pe == pytest.approx(1.0 / (1.0 + math.e), abs=1e-14)
        assert not result.validity.collapse_completed

    def test_zero_time_reading_is_mode_independent(self):
        explicit = protocol.run_protocol(make_config(0.0))
        diag = protocol.run_protocol(make_config(0.0, pulse_mode="diagonalize"))
        assert explicit.reading.pe == pytest.approx(diag.reading.pe, abs=1e-14)
        # The explicit pulse tips a diagonal state onto the equator, which
        # the residual flag reports without failing the run.
        assert not explicit.validity.pulse_residual_ok
        assert diag.validity.pulse_residual_ok

    def test_half_revival_pe_near_closed_form_floor(self):
        scales = Timescales(N_BAR)
        result = protocol.run_protocol(
            make_config(scales.half_revival, initial_beta=None, initial_pe=0.0))
        floor = analytic.pe_half_revival(N_BAR)
        assert abs(result.reading.pe - floor) / floor <= 0.25

    def test_modes_agree_inside_window(self):
        scales = Timescales(N_BAR)
        for t in np.linspace(scales.collapse_complete, scales.half_revival, 7):
            explicit = protocol.run_protocol(make_config(float(t)))
            diag = protocol.run_protocol(
                make_config(float(t), pulse_mode="diagonalize"))
            assert explicit.reading.pe == pytest.approx(diag.reading.pe, abs=1e-6)

    def test_explicit_pulse_leaves_tiny_residual_in_window(self):
        result = protocol.run_protocol(make_config(9.0))
        assert result.pulse_residual <= 0.05
        assert result.validity.pulse_residual_ok
        assert abs(result.rho_post_pulse.rho01) == result.pulse_residual
        # The residual is read from the post-pulse state, not stored.
        assert [f.name for f in fields(protocol.ProtocolResult)] == [
            "rho_pre_pulse", "rho_post_pulse", "reading", "validity"]
        for mode in protocol.PULSE_MODES:
            for point in protocol.sweep_interaction_time(make_config(0.0, pulse_mode=mode),
                                                         np.linspace(0.0, 40.0, 41)):
                residual = point.result.pulse_residual
                assert residual.hex() == abs(point.result.rho_post_pulse.rho01).hex()

    def test_diagonalize_mode_has_zero_residual(self):
        result = protocol.run_protocol(make_config(9.0, pulse_mode="diagonalize"))
        assert result.pulse_residual == 0.0
        assert result.rho_post_pulse.rho01 == 0j
        points = protocol.sweep_interaction_time(make_config(0.0, pulse_mode="diagonalize"),
                                                 np.linspace(0.0, 40.0, 41))
        assert {point.result.pulse_residual.hex() for point in points} == {(0.0).hex()}

    def test_reading_pe_never_exceeds_half(self):
        for t in (0.0, 1.0, 4.0, 9.0, 18.0, 25.0, 37.0):
            result = protocol.run_protocol(make_config(t))
            assert result.reading.pe <= 0.5 + 1e-12

    def test_reading_matches_closed_form_in_window(self):
        scales = Timescales(N_BAR)
        for t in np.linspace(scales.collapse_complete, scales.half_revival, 9):
            result = protocol.run_protocol(make_config(float(t)))
            approx = analytic.pe_after_pulse_analytic(float(t), N_BAR)
            assert abs(result.reading.pe - approx) <= 0.02

    def test_validity_flags(self):
        scales = Timescales(N_BAR)
        early = protocol.run_protocol(make_config(1.0))
        assert not early.validity.collapse_completed
        assert early.validity.within_half_revival
        assert not early.validity.in_window
        inside = protocol.run_protocol(make_config(9.0))
        assert inside.validity.in_window
        late = protocol.run_protocol(make_config(scales.half_revival + 2.0))
        assert not late.validity.within_half_revival

    def test_deterministic(self):
        a = protocol.run_protocol(make_config(7.7))
        b = protocol.run_protocol(make_config(7.7))
        assert a.reading.pe == b.reading.pe
        assert a.reading.temperature == b.reading.temperature
        assert a.rho_pre_pulse.rho01 == b.rho_pre_pulse.rho01

    @pytest.mark.parametrize("pulse_mode", protocol.PULSE_MODES)
    def test_post_pulse_eigenvalue_within_slack_reads_zero(self, monkeypatch, pulse_mode):
        # A kernel state at the positivity edge: |rho01| = 1/2 + 4e-13 on the
        # equator gives det ~ -4e-13, inside the 1e-12 slack, so the pulsed
        # state's smaller eigenvalue is a rounding below 0 and reads as 0.
        t = 9.0
        edge = AtomDensity(0.5, (0.5 + 4e-13) * 1j * complex(math.cos(t), math.sin(t)))
        assert hilbert.density_eigenvalues(edge.rho11, edge.rho01)[0] < 0.0

        def edge_states(self, atom, times):
            return [edge for _ in times]

        monkeypatch.setattr(dynamics.FieldStep, "_evolve_floats", edge_states)
        result = protocol.run_protocol(make_config(t, pulse_mode=pulse_mode))
        assert result.rho_pre_pulse is edge
        assert result.reading.pe == 0.0
        assert result.reading.temperature == 0.0

    def test_pre_pulse_state_is_returned(self):
        result = protocol.run_protocol(make_config(9.0))
        assert 0.0 <= result.rho_pre_pulse.rho11 <= 1.0
        # In the window the pre-pulse state hugs the equator.
        assert abs(result.rho_pre_pulse.rho11 - 0.5) <= 0.02


class TestSweep:
    def test_single_zero_point(self):
        points = protocol.sweep_interaction_time(
            make_config(0.0, pulse_mode="diagonalize"), [0.0])
        assert len(points) == 1
        assert points[0].ok
        assert points[0].result.reading.temperature == pytest.approx(1.0, abs=1e-12)

    def test_the_grid_is_converted_to_floats_once(self, monkeypatch):
        # The kernel gets the sweep's own list of floats; evolve_grid, which
        # converts its grid again, is not called.
        handed = []
        evolve_floats = dynamics.FieldStep._evolve_floats

        def spy(self, atom, times):
            handed.append(times)
            return evolve_floats(self, atom, times)

        def refuse(self, atom, times):
            raise AssertionError("evolve_grid called")

        monkeypatch.setattr(dynamics.FieldStep, "_evolve_floats", spy)
        monkeypatch.setattr(dynamics.FieldStep, "evolve_grid", refuse)
        grid = np.linspace(0.0, 9.0, 7)
        points = protocol.sweep_interaction_time(make_config(0.0), grid)
        (times,) = handed
        assert times == grid.tolist() and {type(t) for t in times} == {float}
        assert [point.t for point in points] == times
        assert all(point.t is t for point, t in zip(points, times))

    def test_grid_validation(self):
        config = make_config(0.0)
        with pytest.raises(ValueError, match="ascending"):
            protocol.sweep_interaction_time(config, [1.0, 0.5])
        with pytest.raises(ValueError, match="nonempty"):
            protocol.sweep_interaction_time(config, [])

    def test_per_point_errors_are_captured(self):
        points = protocol.sweep_interaction_time(make_config(0.0), [-1.0, 0.0])
        assert not points[0].ok
        assert "interaction_time" in points[0].error
        assert points[0].result is None
        assert points[1].ok

    def test_nan_cannot_hide_a_descent(self):
        with pytest.raises(ValueError, match="ascending"):
            protocol.sweep_interaction_time(make_config(0.0), [1.0, math.nan, 0.5])

    def test_nan_point_is_a_per_point_error(self):
        points = protocol.sweep_interaction_time(make_config(0.0), [0.0, math.nan, 1.0])
        assert [p.ok for p in points] == [True, False, True]
        assert points[1].error == "interaction_time must be non-negative and finite, got nan"
        assert points[1].result is None

    def test_setup_failure_is_recorded_at_every_point(self):
        # A vacuum field has no revival timescale, so no run or sweep can be
        # set up for it: the config rejects it before any point runs.
        with pytest.raises(ValueError, match=r"^n_bar must be positive, got 0\.0$"):
            make_config(0.0, prep=CoherentPrep(0.0))

    @pytest.mark.parametrize("error", [ArithmeticError, ValueError])
    def test_readout_failure_is_the_points_own(self, monkeypatch, error):
        def failing(pe, delta_e=1.0):
            raise error(f"no temperature for pe={pe}")

        monkeypatch.setattr(protocol, "temperature_from_pe", failing)
        with pytest.raises(error, match="^no temperature for pe=") as raised:
            protocol.run_protocol(make_config(9.0))
        assert type(raised.value) is error
        points = protocol.sweep_interaction_time(make_config(0.0), [0.0, 9.0])
        assert [p.result for p in points] == [None, None]
        assert points[0].error == "no temperature for pe=0.2689414213699951"
        assert points[1].error == str(raised.value)

    @pytest.mark.parametrize("pulse_mode", protocol.PULSE_MODES)
    @pytest.mark.parametrize("initial", [dict(initial_beta=0.7),
                                         dict(initial_beta=None, initial_pe=0.85)])
    def test_equals_pointwise_run_protocol(self, pulse_mode, initial):
        alpha = 6.0 * complex(math.cos(0.9), math.sin(0.9))
        config = make_config(0.0, pulse_mode=pulse_mode, prep=CoherentPrep(alpha), **initial)
        grid = np.concatenate([[0.0], np.linspace(0.5, 40.0, 25)])
        for point in protocol.sweep_interaction_time(config, grid):
            alone = protocol.run_protocol(replace(config, interaction_time=point.t))
            swept = point.result
            assert swept.rho_pre_pulse == alone.rho_pre_pulse
            assert abs(swept.rho_post_pulse.rho11 - alone.rho_post_pulse.rho11) <= 1e-15
            assert abs(swept.rho_post_pulse.rho01 - alone.rho_post_pulse.rho01) <= 1e-15
            assert abs(swept.reading.pe - alone.reading.pe) <= 1e-15
            assert swept.validity == alone.validity

    def test_overflowing_time_fails_only_its_own_point(self):
        # A finite time whose Rabi angle g sqrt(n_top + 1) t overflows is
        # rejected by name, with no numpy warning (warnings are errors here).
        config = make_config(0.0)
        grid = [0.0, 0.5, 3.0, 1e308, math.nan]
        points = protocol.sweep_interaction_time(config, grid)
        assert [p.ok for p in points] == [True, True, True, False, False]
        assert points[3].error == (
            "interaction_time overflows the Rabi angle g sqrt(n_top + 1) t, got 1e+308")
        clean = protocol.sweep_interaction_time(config, grid[:3])
        for point, kept in zip(points, clean):
            assert point.result == kept.result

    def test_overflowing_time_fails_run_protocol_by_name(self):
        with pytest.raises(ValueError, match="overflows the Rabi angle"):
            protocol.run_protocol(make_config(1e308))

    def test_zero_time_points_share_the_initial_atom(self):
        points = protocol.sweep_interaction_time(make_config(0.0), [0.0, 0.0, 1.0])
        assert points[0].result.rho_pre_pulse is points[1].result.rho_pre_pulse
        assert points[0].result.rho_pre_pulse == make_config(0.0).initial_atom()

    @pytest.mark.parametrize("n_bar", [2.0, 1e4])
    def test_sweep_states_equal_the_one_point_kernel(self, n_bar):
        # Several times share a chunk of the grid call at n_bar = 2 (and 36,
        # above), one time fills it at 1e4.
        config = make_config(0.0, prep=CoherentPrep(math.sqrt(n_bar) * np.exp(0.4j)))
        grid = np.linspace(0.0, Timescales(n_bar).half_revival, 33)
        field_step = dynamics.FieldStep(config.prep, config.physical)
        atom = config.initial_atom()
        for point in protocol.sweep_interaction_time(config, grid):
            assert point.result.rho_pre_pulse == field_step.evolve(atom, point.t)

    def test_field_is_built_once_per_sweep(self, monkeypatch):
        calls = []
        original = hilbert.poisson_weight

        def counting(n, n_bar):
            calls.append(n_bar)
            return original(n, n_bar)

        # Patch the function and the kernel's binding of it.
        monkeypatch.setattr(hilbert, "poisson_weight", counting)
        monkeypatch.setattr(dynamics, "poisson_weight", counting)
        grid = np.linspace(0.0, Timescales(N_BAR).half_revival, 200)
        points = protocol.sweep_interaction_time(make_config(0.0), grid)
        assert all(p.ok for p in points)
        assert len(calls) == 1

    @pytest.mark.parametrize("pulse_mode", protocol.PULSE_MODES)
    def test_dim_sweep_peak_is_its_own_result(self, pulse_mode):
        # The kernel's chunk buffers are freed before the result grows, so
        # the traced peak is the result the sweep returns plus its copy of
        # the grid (a 1.6 KB list of 200 floats) and a few objects. Chunk
        # temporaries alive beside the result would add 19-26 KB; the bound,
        # half of one 15.6 KB chunk array, leaves room for allocations that
        # differ between Python and numpy versions.
        config = make_config(0.0, pulse_mode=pulse_mode)
        grid = np.linspace(0.0, Timescales(N_BAR).half_revival, 200).tolist()
        protocol.sweep_interaction_time(config, grid)  # warm-up
        tracemalloc.start()
        try:
            points = protocol.sweep_interaction_time(config, grid)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(points) == 200 and all(point.ok for point in points)
        assert peak - current <= 8 * 1024

    def test_floor_is_reached_at_the_end_of_the_window(self):
        scales = Timescales(N_BAR)
        grid = np.linspace(0.0, scales.half_revival, 200)
        points = protocol.sweep_interaction_time(make_config(0.0), grid)
        pe = np.array([p.result.reading.pe for p in points])
        assert all(p.ok for p in points)
        # The exact floor wiggles at the 1e-4 level near the half-revival
        # time, so the last point sits within the stated numerical noise of
        # the global minimum rather than exactly at it.
        assert pe[-1] <= pe.min() + 1e-3
        assert int(np.argmin(pe)) >= 180

    def test_monotone_decreasing_after_collapse_condition(self):
        scales = Timescales(N_BAR)
        t_star = analytic.collapse_condition_time(N_BAR).root
        grid = np.linspace(t_star, scales.half_revival, 60)
        points = protocol.sweep_interaction_time(make_config(0.0), grid)
        pe = np.array([p.result.reading.pe for p in points])
        assert np.all(np.diff(pe) <= 1e-3)

    def test_ceiling_temperature_matches_t_max(self):
        t_star = analytic.collapse_condition_time(N_BAR).root
        result = protocol.run_protocol(make_config(t_star))
        ceiling = analytic.t_max(N_BAR, variant="numeric").temperature
        assert abs(result.reading.temperature - ceiling) / ceiling <= 0.10


def same_bits(a: complex, b: complex) -> bool:
    """Equal, with the sign of zero of each part checked too."""
    a, b = complex(a), complex(b)
    return a == b and all(math.copysign(1.0, x) == math.copysign(1.0, y)
                          for x, y in ((a.real, b.real), (a.imag, b.imag)))


# Zero, negative, NaN and overflowing times next to ordinary ones.
EDGE_GRID = [-1.0, 0.0, 0.0, 0.5, 3.0, math.nan, 9.0, 14.0, 20.0, 37.0, 1e308]


def rebuilt(obj):
    """``obj`` built again through the public constructors, nested results included."""
    if not is_dataclass(obj):
        return obj
    return type(obj)(**{f.name: rebuilt(getattr(obj, f.name)) for f in fields(obj)})


@pytest.mark.parametrize("cls", [analytic.TemperatureReading, protocol.ProtocolResult,
                                 protocol.SweepPoint])
def test_each_init_parameter_fills_its_own_field(cls):
    # The hand-written __init__ takes the fields in order, by name, with
    # their defaults, and sets each from its own argument.
    params = list(inspect.signature(cls).parameters.values())
    assert [(p.name, p.default) for p in params] == [
        (f.name, inspect.Parameter.empty if f.default is MISSING else f.default)
        for f in fields(cls)]
    values = [object() for _ in params]
    for obj in (cls(*values), cls(**{p.name: v for p, v in zip(params, values)})):
        assert all(getattr(obj, f.name) is v for f, v in zip(fields(cls), values))
    required = [p for p in params if p.default is inspect.Parameter.empty]
    obj = cls(*values[:len(required)])
    assert [getattr(obj, p.name) for p in params[len(required):]] == [
        p.default for p in params[len(required):]]


class TestSweepColumns:
    """Each swept point against the object route and a run at its time, bit for bit."""

    @pytest.fixture(params=[(mode, initial) for mode in protocol.PULSE_MODES
                            for initial in ("thermal", "initial_pe")])
    def config(self, request):
        mode, initial = request.param
        atom = dict(initial_beta=0.7) if initial == "thermal" else dict(
            initial_beta=None, initial_pe=0.85)
        alpha = 6.0 * complex(math.cos(0.9), math.sin(0.9))
        return make_config(0.0, pulse_mode=mode, prep=CoherentPrep(alpha), **atom)

    def test_float_pulse_and_readout_match_the_object_route(self, config):
        for point in protocol.sweep_interaction_time(config, EDGE_GRID):
            if not point.ok:
                continue
            pre, post = point.result.rho_pre_pulse, point.result.rho_post_pulse
            if config.pulse_mode == "explicit_unitary":
                axis = protocol.cooling_axis_azimuth(point.t, config.prep.phi, config.physical)
                want = protocol.pi_half_pulse(pre, axis)
            else:
                want = AtomDensity(pre.eigenvalues()[0], 0j)
            assert same_bits(post.rho11, want.rho11) and same_bits(post.rho01, want.rho01)
            assert point.result.reading.pe == max(post.eigenvalues()[0], 0.0)
            assert point.result.reading == analytic.temperature_from_pe(
                point.result.reading.pe, config.physical.delta_e)

    def test_run_protocol_at_each_time_equals_the_swept_point(self, config):
        points = protocol.sweep_interaction_time(config, EDGE_GRID)
        assert [point.ok for point in points] == [
            False, True, True, True, True, False, True, True, True, True, False]
        for point in points:
            assert type(point.t) is float
            if not point.ok:
                assert point.result is None
                with pytest.raises(ValueError) as raised:
                    protocol.run_protocol(replace(config, interaction_time=point.t))
                assert str(raised.value) == point.error
                continue
            flags = point.result.validity
            assert {type(flag) for flag in (flags.collapse_completed, flags.within_half_revival,
                                            flags.pulse_residual_ok)} == {bool}
            alone = protocol.run_protocol(replace(config, interaction_time=point.t))
            assert alone == point.result
            assert repr(alone) == repr(point.result)  # signs of zero included

    def test_points_behave_like_publicly_built_ones(self, config):
        # A sweep builds its points, results, readings and states through
        # their hand-written ``__init__``, which sets each slot through its
        # descriptor; a state's also converts and checks its two values.
        points = protocol.sweep_interaction_time(config, EDGE_GRID)
        assert not all(point.ok for point in points)
        for point in points:
            objects = [point]
            if point.ok:
                result = point.result
                objects += [result, result.reading, result.rho_pre_pulse, result.rho_post_pulse]
                for state in (result.rho_pre_pulse, result.rho_post_pulse):
                    with pytest.raises(ValueError, match=r"rho11 must lie in \[0, 1\]"):
                        replace(state, rho11=1.5)
            for obj in objects:
                public = rebuilt(obj)
                assert obj == public and hash(obj) == hash(public)
                assert repr(obj) == repr(public)
                loaded = pickle.loads(pickle.dumps(obj))
                assert type(loaded) is type(obj) and repr(loaded) == repr(obj)
                if not math.isnan(point.t):  # a NaN time is unequal to its copy
                    assert loaded == obj
                name = fields(obj)[0].name
                with pytest.raises(FrozenInstanceError):
                    setattr(obj, name, getattr(obj, name))

    def test_sweep_is_a_list_of_points(self):
        # Built in the call, so a caller that times the sweep times its points.
        points = protocol.sweep_interaction_time(make_config(0.0), [0.0, 4.0, 9.0, math.nan])
        assert type(points) is list and len(points) == 4
        assert all(type(point) is protocol.SweepPoint for point in points)

    def test_grid_checks_are_the_sweeps(self):
        for grid, message in (([], "nonempty"), ([2.0, 1.0], "ascending")):
            with pytest.raises(ValueError, match=message):
                protocol.sweep_interaction_time(make_config(0.0), grid)


class TestInitialStateIndependence:
    def test_orthogonal_at_zero_time(self):
        dist = protocol.initial_state_independence(make_config(0.0), 0.0, [0.0, 1.0])
        assert dist == pytest.approx(1.0, abs=1e-12)

    def test_forgetting_after_collapse(self):
        scales = Timescales(N_BAR)
        dist = protocol.initial_state_independence(
            make_config(0.0), scales.collapse_complete, [0.0, 0.5, 1.0])
        assert dist <= 0.02

    def test_memory_returns_at_revival(self):
        scales = Timescales(N_BAR)
        dist = protocol.initial_state_independence(
            make_config(0.0), scales.tau_revival, [0.0, 1.0])
        assert dist > 0.1

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="interaction_time must be non-negative"):
            protocol.initial_state_independence(make_config(0.0), -5.0, [0.0, 1.0])

    def test_needs_two_probes(self):
        with pytest.raises(ValueError):
            protocol.initial_state_independence(make_config(0.0), 1.0, [0.5])


class TestValidityFlags:
    def test_in_window_requires_both(self):
        assert protocol.ValidityFlags(True, True).in_window
        assert not protocol.ValidityFlags(False, True).in_window
        assert not protocol.ValidityFlags(True, False).in_window

    def test_each_shared_value_equals_its_built_flags(self):
        assert len(protocol._FLAGS) == 8
        for collapsed in (False, True):
            for within in (False, True):
                for residual_ok in (False, True):
                    shared = protocol._FLAGS[collapsed, within, residual_ok]
                    assert shared == protocol.ValidityFlags(collapsed, within, residual_ok)

    def test_a_sweeps_flags_equal_fresh_ones(self):
        config = make_config(0.0)
        scales = config.timescales()
        grid = list(np.linspace(0.0, 1.2 * scales.tau_revival, 60))
        seen = set()
        for point in protocol.sweep_interaction_time(config, grid):
            residual = point.result.pulse_residual
            fresh = protocol.ValidityFlags(
                point.t >= scales.collapse_complete, point.t <= scales.half_revival,
                residual <= protocol.PULSE_RESIDUAL_TOLERANCE)
            assert point.result.validity == fresh
            seen.add(fresh)
        assert len(seen) >= 3
