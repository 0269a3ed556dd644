"""Closed-form layer, checked against independent oracles.

Oracles used here: scipy's Lambert W and Brent root finder for the two
bisections, and the exact propagator pipeline for every collapse-era
formula.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
import scipy.optimize
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from cavitytherm import analytic, dynamics, hilbert
from cavitytherm.analytic import Timescales
from cavitytherm.hilbert import LEVEL_E, LEVEL_G, PhysicalParams

N_BAR = 36.0
ALPHA = 6.0

# 400 n_bar at the 34th n_bar of a 100-point fig-tmax grid: an iterative
# Lambert W that cycles between two floats around the root raised here.
CYCLE_X = 33990.13743634579


def exact_rho11(t: float, initial_level: int) -> float:
    state = hilbert.coherent_joint_state(initial_level, ALPHA)
    return hilbert.partial_trace_field(dynamics.propagate(state, t)).rho11


@pytest.mark.parametrize("field, call", [
    ("n_bar", lambda x: Timescales(x)),
    ("g", lambda x: Timescales(36.0, g=x)),
    ("n_bar", lambda x: analytic.rho01_analytic(5.0, x)),
    ("n_bar", lambda x: analytic.rho11_analytic(1.0, x)),
    ("n_bar", lambda x: analytic.pe_after_pulse_analytic(5.0, x)),
    ("n_bar", lambda x: analytic.pe_half_revival(x)),
    ("n_bar", lambda x: analytic.collapse_condition_time(x)),
    ("n_bar", lambda x: analytic.t_max(x, variant="closed_form")),
], ids=["Timescales.n_bar", "Timescales.g", "rho01_analytic", "rho11_analytic",
        "pe_after_pulse_analytic", "pe_half_revival", "collapse_condition_time",
        "t_max.closed_form"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_inputs_are_rejected_by_name(field, call, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        call(value)


@pytest.mark.parametrize("field, call", [
    ("n_bar", lambda x: Timescales(x)),
    ("g", lambda x: Timescales(36.0, g=x)),
    ("n_bar", lambda x: analytic.rho01_analytic(5.0, x)),
    ("n_bar", lambda x: analytic.pe_half_revival(x)),
    ("n_bar", lambda x: analytic.t_min(x)),
    ("n_bar", lambda x: analytic.collapse_condition_time(x)),
    ("n_bar", lambda x: analytic.t_max(x, variant="closed_form")),
], ids=["Timescales.n_bar", "Timescales.g", "rho01_analytic", "pe_half_revival", "t_min",
        "collapse_condition_time", "t_max.closed_form"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_timescale_inputs_are_named_non_finite(field, call, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
        call(value)


class TestTimescales:
    def test_values(self):
        scales = Timescales(n_bar=36.0, g=2.0)
        assert scales.tau_collapse == pytest.approx(math.sqrt(2.0) / 2.0)
        assert scales.tau_revival == pytest.approx(2.0 * math.pi * 6.0 / 2.0)
        assert scales.collapse_complete == pytest.approx(3.0 * scales.tau_collapse)
        assert scales.half_revival == pytest.approx(0.5 * scales.tau_revival)

    def test_validation(self):
        with pytest.raises(ValueError):
            Timescales(0.0)
        with pytest.raises(ValueError):
            Timescales(36.0, g=-1.0)


class TestRho11Analytic:
    def test_initial_conditions(self):
        assert analytic.rho11_analytic(0.0, 36.0, initial_level=LEVEL_E) == 1.0
        assert analytic.rho11_analytic(0.0, 36.0, initial_level=LEVEL_G) == 0.0

    def test_saturates_to_half_after_five_collapse_times(self):
        tau_c = Timescales(36.0).tau_collapse
        for t in (5.0 * tau_c, 6.0 * tau_c, 10.0 * tau_c):
            out = analytic.rho11_analytic(t, 36.0)
            assert abs(out - 0.5) <= math.exp(-25.0)

    @pytest.mark.parametrize("initial_level", [LEVEL_E, LEVEL_G])
    def test_tracks_exact_dynamics_through_collapse(self, initial_level):
        scales = Timescales(N_BAR)
        t_grid = np.linspace(0.0, 3.0 * scales.tau_collapse, 80)
        approx = np.array([analytic.rho11_analytic(t, N_BAR, initial_level=initial_level)
                           for t in t_grid])
        exact = np.array([exact_rho11(t, initial_level) for t in t_grid])
        assert np.max(np.abs(approx - exact)) <= 0.03

    def test_validation(self):
        with pytest.raises(ValueError):
            analytic.rho11_analytic(1.0, -1.0)
        with pytest.raises(ValueError):
            analytic.rho11_analytic(1.0, 36.0, initial_level=5)


class TestRho01Analytic:
    def test_zero_at_zero(self):
        assert analytic.rho01_analytic(0.0, 36.0) == 0j

    def test_maximal_at_half_revival(self):
        scales = Timescales(36.0)
        val = analytic.rho01_analytic(scales.half_revival, 36.0)
        assert abs(val) == pytest.approx(0.5, abs=1e-15)

    def test_agrees_with_propagator_in_window(self):
        scales = Timescales(N_BAR)
        t_grid = np.linspace(scales.collapse_complete, scales.half_revival, 60)
        for t in t_grid:
            approx = analytic.rho01_analytic(t, N_BAR)
            state = hilbert.coherent_joint_state(LEVEL_E, ALPHA)
            exact = hilbert.partial_trace_field(dynamics.propagate(state, t)).rho01
            assert abs(approx.real - exact.real) <= 0.02
            assert abs(approx.imag - exact.imag) <= 0.02

    @settings(max_examples=50, deadline=None)
    @given(
        t=st.floats(0.0, 1000.0),
        n_bar=st.floats(0.1, 1.0e6),
        phi=st.floats(-math.pi, math.pi),
    )
    def test_magnitude_bounded_by_half(self, t, n_bar, phi):
        assert abs(analytic.rho01_analytic(t, n_bar, phi=phi)) <= 0.5 + 1e-15

    def test_phase_advances_at_carrier_rate(self):
        params = PhysicalParams(delta_e=1.0, g=1.0)
        t, dt = 8.0, 1.3
        ratio = (analytic.rho01_analytic(t + dt, 36.0, params)
                 / analytic.rho01_analytic(t, 36.0, params))
        assert np.angle(ratio) == pytest.approx(params.omega * dt, abs=1e-10)

    def test_field_phase_enters_negatively(self):
        t, phi = 8.0, 0.4
        shifted = analytic.rho01_analytic(t, 36.0, phi=phi)
        base = analytic.rho01_analytic(t, 36.0, phi=0.0)
        assert shifted == pytest.approx(base * np.exp(-1j * phi), abs=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            analytic.rho01_analytic(1.0, 0.0)


class TestPeAfterPulseAnalytic:
    def test_endpoints(self):
        scales = Timescales(36.0)
        assert analytic.pe_after_pulse_analytic(0.0, 36.0) == pytest.approx(0.5)
        assert analytic.pe_after_pulse_analytic(
            scales.half_revival, 36.0) == pytest.approx(0.0, abs=1e-15)

    def test_quarter_revival_value(self):
        scales = Timescales(36.0)
        expected = 0.5 * (1.0 - math.sin(math.pi / 4.0))
        got = analytic.pe_after_pulse_analytic(0.25 * scales.tau_revival, 36.0)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.1464, abs=1e-4)

    def test_equals_half_minus_coherence_magnitude(self):
        t = np.linspace(0.0, Timescales(36.0).half_revival, 40)
        lhs = [analytic.pe_after_pulse_analytic(ti, 36.0) for ti in t]
        rhs = [0.5 - abs(analytic.rho01_analytic(ti, 36.0)) for ti in t]
        np.testing.assert_allclose(lhs, rhs, atol=1e-15)

    def test_warns_outside_window(self):
        scales = Timescales(36.0)
        with pytest.warns(analytic.ValidityWarning):
            analytic.pe_after_pulse_analytic(scales.half_revival + 1.0, 36.0)

    @pytest.mark.parametrize("t", [-1.0, math.nan])
    def test_warns_below_the_window_and_for_a_nan_time(self, t):
        with pytest.warns(analytic.ValidityWarning):
            analytic.pe_after_pulse_analytic(t, 36.0)

    def test_silent_inside_window(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            analytic.pe_after_pulse_analytic(5.0, 36.0)


class TestTemperatureMap:
    def test_unit_beta_round_trip(self):
        pe = 1.0 / (1.0 + math.e)
        reading = analytic.temperature_from_pe(pe, delta_e=1.0)
        assert reading.temperature == pytest.approx(1.0, abs=1e-12)
        assert not reading.inverted

    def test_special_points(self):
        assert analytic.temperature_from_pe(0.0).temperature == 0.0
        assert analytic.temperature_from_pe(0.0).beta == math.inf
        assert analytic.temperature_from_pe(0.5).temperature == math.inf
        hot = analytic.temperature_from_pe(1.0)
        assert hot.inverted
        assert math.copysign(1.0, hot.temperature) < 0

    def test_inverted_population_is_negative_temperature(self):
        reading = analytic.temperature_from_pe(0.7)
        assert reading.inverted
        assert reading.temperature < 0.0

    def test_strictly_increasing_below_half(self):
        pe = np.linspace(1e-6, 0.5 - 1e-6, 200)
        temps = [analytic.temperature_from_pe(p).temperature for p in pe]
        assert all(b > a for a, b in zip(temps, temps[1:]))

    @settings(max_examples=60, deadline=None)
    @given(beta=st.floats(0.1, 10.0))
    def test_thermal_round_trip(self, beta):
        pe = hilbert.thermal_atom(beta, delta_e=1.0).rho11
        reading = analytic.temperature_from_pe(pe, delta_e=1.0)
        assert reading.beta == pytest.approx(beta, rel=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            analytic.temperature_from_pe(-0.1)
        with pytest.raises(ValueError):
            analytic.temperature_from_pe(1.1)
        with pytest.raises(ValueError):
            analytic.temperature_from_pe(0.2, delta_e=0.0)

    @pytest.mark.parametrize("delta_e", [math.inf, math.nan, -1.0])
    def test_non_finite_splitting_rejected(self, delta_e):
        with pytest.raises(ValueError, match="^delta_e must be positive and finite"):
            analytic.temperature_from_pe(0.2, delta_e=delta_e)

    def test_reading_invariants(self):
        cold = analytic.temperature_from_pe(0.1)
        assert math.isfinite(cold.temperature) and cold.temperature > 0
        assert analytic.temperature_from_pe(0.5).temperature == math.inf
        assert analytic.temperature_from_pe(0.6).temperature < 0


class TestTemperatureFloor:
    def test_half_revival_population(self):
        assert analytic.pe_half_revival(36.0) == pytest.approx(0.008567, abs=1e-6)
        assert analytic.pe_half_revival(46.0) == pytest.approx(0.006705, abs=1e-6)

    def test_floor_temperatures(self):
        assert analytic.t_min(36.0).temperature == pytest.approx(0.2105, abs=1e-3)
        assert analytic.t_min(46.0).temperature == pytest.approx(0.2001, abs=1e-3)

    @pytest.mark.parametrize("n_bar", [1e-3, 0.5, 0.6168])
    def test_undefined_where_the_floor_passes_one_half(self, n_bar):
        # pi^2 / (32 n_bar) > 1/2 below n_bar = pi^2 / 16 = 0.61685.
        with pytest.raises(ValueError, match=f"t_min undefined for n_bar={n_bar}"):
            analytic.t_min(n_bar)

    def test_defined_just_above_pi_squared_over_16(self):
        assert analytic.t_min(0.617).temperature > 1e3

    def test_monotone_decreasing(self):
        assert analytic.t_min(100.0).temperature < analytic.t_min(36.0).temperature
        grid = np.linspace(10.0, 1000.0, 20)
        temps = [analytic.t_min(nb).temperature for nb in grid]
        assert all(b < a for a, b in zip(temps, temps[1:]))

    def test_leading_order_variant(self):
        assert analytic.pe_half_revival(36.0, variant="leading_order") == (
            pytest.approx((math.pi ** 2 + 4.0) / (64.0 * 36.0), rel=1e-15))
        assert analytic.pe_half_revival(36.0, variant="paper") == (
            analytic.pe_half_revival(36.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            analytic.pe_half_revival(0.0)
        with pytest.raises(ValueError):
            analytic.pe_half_revival(0.0, variant="leading_order")
        with pytest.raises(ValueError, match="variant"):
            analytic.pe_half_revival(36.0, variant="exact")


class TestLambertW:
    def test_fixed_points(self):
        assert analytic.lambert_w0(0.0) == 0.0
        assert analytic.lambert_w0(math.e) == pytest.approx(1.0, abs=1e-12)
        assert analytic.lambert_w0(14400.0) == pytest.approx(7.55, abs=0.01)
        assert analytic.lambert_w0(math.inf) == math.inf

    @pytest.mark.parametrize("x", [1e300, 1e303, 4e305, 4e307, 1.7976931348623157e308])
    def test_top_of_the_float_range(self, x):
        # w exp(w) overflows from x near 1.8e305 on; its logarithm does not.
        expected = float(scipy.special.lambertw(x).real)
        w = analytic.lambert_w0(x)
        assert w == pytest.approx(expected, rel=1e-15)
        assert abs(w + math.log(w) - math.log(x)) <= 1e-15 * math.log(x)

    def test_against_scipy_oracle(self):
        for x in np.logspace(-3.0, 6.0, 100):
            expected = float(scipy.special.lambertw(x).real)
            assert analytic.lambert_w0(x) == pytest.approx(expected, rel=1e-12)

    def test_residual_bound(self):
        for x in np.logspace(-3.0, 6.0, 100):
            w = analytic.lambert_w0(x)
            assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, x)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            analytic.lambert_w0(-0.5)

    def test_log_uniform_draws_match_scipy(self):
        rng = random.Random(0)
        for x in [10.0 ** rng.uniform(-3.0, 300.0) for _ in range(2000)] + [CYCLE_X]:
            expected = float(scipy.special.lambertw(x).real)
            assert analytic.lambert_w0(x) == pytest.approx(expected, rel=1e-14), x

    def test_smallest_subnormal_returns_the_upper_end(self):
        # The bracket (0, 5e-324] has adjacent ends at once; W is positive.
        assert analytic.lambert_w0(5e-324) > 0.0


class TestCollapseConditionTime:
    def test_reference_case(self):
        ct = analytic.collapse_condition_time(36.0)
        assert ct.root == pytest.approx(2.75, abs=0.05)
        assert ct.root == pytest.approx(2.7511, abs=1e-3)
        assert ct.residual <= 1e-10
        assert ct.linearized == pytest.approx(
            math.sqrt(analytic.lambert_w0(14400.0)), abs=1e-12)
        assert ct.linearized == pytest.approx(2.748, abs=1e-3)

    def test_against_brentq_oracle(self):
        n_bar, sf = 36.0, 10.0
        scales = Timescales(n_bar)

        def f(t):
            return (sf * math.exp(-((t / scales.tau_collapse) ** 2))
                    - math.sin(t / (2.0 * math.sqrt(n_bar))))

        oracle = scipy.optimize.brentq(f, 1.0, scales.half_revival, xtol=1e-13)
        assert analytic.collapse_condition_time(n_bar).root == pytest.approx(
            oracle, abs=1e-9)

    def test_linearization_quality_at_large_n_bar(self):
        ct = analytic.collapse_condition_time(100.0)
        assert abs(ct.linearized - ct.root) / ct.root <= 0.02

    def test_no_bracket_names_interval(self):
        # At n_bar = 0.1 the half revival comes at g t ~ 0.99, where the
        # weighted transient (~6.1) still exceeds the coherence (~1).
        with pytest.raises(ValueError, match=r"no bracket .* \[0, 0\.993459\]"):
            analytic.collapse_condition_time(0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            analytic.collapse_condition_time(-1.0)


class TestTMax:
    def test_reference_values(self):
        numeric = analytic.t_max(36.0, variant="numeric")
        closed = analytic.t_max(36.0, variant="closed_form")
        assert numeric.temperature == pytest.approx(2.1, abs=0.1)
        assert numeric.temperature == pytest.approx(2.1618, abs=1e-3)
        assert closed.temperature == pytest.approx(4.35, abs=0.01)
        assert closed.temperature == pytest.approx(4.3472, abs=1e-3)

    def test_variants_monotone_increasing(self):
        grid = np.linspace(10.0, 1000.0, 20)
        for variant in analytic.T_MAX_VARIANTS:
            temps = [analytic.t_max(nb, variant=variant).temperature for nb in grid]
            assert all(b > a for a, b in zip(temps, temps[1:]))
        assert analytic.t_max(400.0).temperature > analytic.t_max(36.0).temperature

    def test_numeric_consistent_with_collapse_condition(self):
        ct = analytic.collapse_condition_time(36.0)
        pe = 0.5 * (1.0 - math.sin(ct.root / 12.0))
        expected = analytic.temperature_from_pe(pe).temperature
        assert analytic.t_max(36.0).temperature == pytest.approx(expected, rel=1e-12)

    def test_numeric_variant_solves_the_collapse_root_alone(self, monkeypatch):
        # The Lambert-W linearization is collapse_condition_time's, not t_max's.
        root = analytic.collapse_condition_time(46.0).root
        expected = analytic.temperature_from_pe(0.5 * (1.0 - math.sin(root / (2.0 * math.sqrt(46.0)))))

        def refuse(x):
            raise AssertionError(f"lambert_w0({x}) called")

        monkeypatch.setattr(analytic, "lambert_w0", refuse)
        assert analytic.t_max(46.0) == expected

    def test_closed_form_domain_guard(self):
        with pytest.raises(ValueError):
            analytic.t_max(0.001, variant="closed_form")

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="variant"):
            analytic.t_max(36.0, variant="exact")

    @pytest.mark.parametrize("variant", analytic.T_MAX_VARIANTS)
    def test_grid_point_where_lambert_w_cycled(self, variant):
        reading = analytic.t_max(CYCLE_X / 400.0, variant=variant)
        assert 0.0 < reading.pe < 0.5 and 0.0 < reading.temperature < math.inf

    def test_log_uniform_draws_all_return(self):
        rng = random.Random(0)
        for n_bar in [10.0 ** rng.uniform(1.0, 3.0) for _ in range(500)]:
            numeric = analytic.t_max(n_bar, variant="numeric")
            closed = analytic.t_max(n_bar, variant="closed_form")
            assert 0.0 < numeric.temperature < closed.temperature < math.inf, n_bar

    @pytest.mark.parametrize("n_bar", [1e300, 1e306, 1e308])
    def test_extreme_n_bar_reads_infinite_temperature(self, n_bar):
        # pe rounds to 1/2 at the collapse root; the closed form's log ratio
        # rounds to 0 at 1e300, and 400 n_bar overflows from 1e306 on.
        numeric = analytic.t_max(n_bar, variant="numeric")
        assert (numeric.pe, numeric.temperature) == (0.5, math.inf)
        if 400.0 * n_bar < math.inf:
            closed = analytic.t_max(n_bar, variant="closed_form")
            assert (closed.pe, closed.temperature) == (0.5, math.inf)
        else:
            assert analytic.collapse_condition_time(n_bar).linearized == math.inf
            with pytest.raises(ValueError, match="closed-form t_max undefined"):
                analytic.t_max(n_bar, variant="closed_form")

