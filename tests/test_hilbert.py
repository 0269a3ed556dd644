"""State-space layer: amplitudes, truncation, densities, Bloch maps."""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from cavitytherm import dynamics, hilbert


class TestPoissonWeight:
    def test_matches_direct_formula(self):
        n_bar = 7.3
        for n in range(20):
            direct = math.exp(-n_bar) * n_bar ** n / math.factorial(n)
            assert hilbert.poisson_weight(n, n_bar) == pytest.approx(direct, rel=1e-13)

    def test_sums_to_one(self):
        n = np.arange(0, 400)
        assert hilbert.poisson_weight(n, 36.0).sum() == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("n_bar", [1e3, 1e4, 1e5])
    def test_adjacent_ratio_at_large_mean(self, n_bar):
        # w(n) / w(n-1) = n_bar / n exactly; a log weight that loses digits
        # to cancellation between terms of size n_bar breaks it.
        n = np.arange(int(n_bar) - 300, int(n_bar) + 300, dtype=float)
        w = hilbert.poisson_weight(n, n_bar)
        np.testing.assert_allclose(w[1:] / w[:-1], n_bar / n[1:], rtol=1e-13)

    @pytest.mark.parametrize("n_bar", [1e-300, 1e-20, 1e-8, 1e-4])
    def test_small_mean(self, n_bar):
        # n_bar - 1 keeps no digits of n_bar below 1e-16; the weights must
        # still hold to rounding.
        for n in range(4):
            direct = math.exp(-n_bar) * n_bar ** n / math.factorial(n)
            if direct > 0.0:
                assert hilbert.poisson_weight(n, n_bar) == pytest.approx(direct, rel=1e-13)

    def test_vacuum_limit(self):
        assert hilbert.poisson_weight(0, 0.0) == 1.0
        assert hilbert.poisson_weight(3, 0.0) == 0.0

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            hilbert.poisson_weight(1, -1.0)

    @pytest.mark.parametrize("n_bar", [0.0, 3.0])
    @pytest.mark.parametrize("n", [-1, [0, -2], np.array([-1.0])])
    def test_negative_photon_number_rejected_by_name(self, n, n_bar):
        # Off its support the log weight is NaN (a divide by zero under -W
        # error); the vacuum branch alone answered 0.
        with pytest.raises(ValueError, match="photon number n must be non-negative"):
            hilbert.poisson_weight(n, n_bar)

    @pytest.mark.parametrize("n_bar", [0.0, 3.0])
    @pytest.mark.parametrize("n, bad", [
        (math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"), (2.5, "2.5"),
        ([0, 2.5], "2.5"), (np.array([1.0, math.nan]), "nan"),
    ])
    def test_non_integer_photon_number_rejected_by_name(self, n, bad, n_bar):
        # The log weight alone would answer off the integers: 0.2326 at
        # n = 2.5, NaN (with an "invalid value" warning at inf) for a
        # non-finite n.
        with pytest.raises(ValueError,
                           match=f"^photon number n must be a finite integer, got {bad}$"):
            hilbert.poisson_weight(n, n_bar)


def log_weight_by_where(n: np.ndarray, n_bar: float) -> np.ndarray:
    """Loader's log weight with both branches taken over the whole range."""
    m = n + 1.0
    d = (n_bar - m) / m
    log_ratio = np.where(d < -0.5, np.log(n_bar / m), np.log1p(np.maximum(d, -0.5)))
    r2 = 1.0 / (m * m)
    series = (1 / 12 - r2 * (1 / 360 - r2 * (1 / 1260 - r2 * (1 / 1680 - r2 / 1188)))) / m
    remainder = np.where(m > 15, series,
                         hilbert._STIRLING_TABLE[np.minimum(m, 15).astype(np.intp)])
    return (m * (log_ratio - d) - remainder + 0.5 * np.log(m)
            - (0.5 * math.log(2.0 * math.pi) + math.log(n_bar)))


class TestLogPoissonWeight:
    @pytest.mark.parametrize("n_bar", [1e-12, 0.3, 36.0, 1e3, 1e4, 1e5])
    def test_equals_both_branches_over_the_range(self, n_bar):
        # Overwriting the far tail and the small-m remainder in place gives
        # the same bits as selecting them with np.where.
        rng = np.random.default_rng(23)
        ordered = np.arange(0.0, math.ceil(2.0 * n_bar) + 200.0)  # m <= 15 and m > 2 n_bar
        unsorted = np.array([40.0, 3.0, 0.0, 15.0, 14.0])
        for n in (ordered, rng.permutation(ordered), unsorted, np.asarray(3.0)):
            log_w = hilbert._log_poisson_weight(n, n_bar)
            assert log_w.shape == n.shape
            assert np.array_equal(log_w, log_weight_by_where(n, n_bar))


EPS = np.finfo(float).eps


class TestUnitPhases:
    @pytest.mark.parametrize("x", [0.4, -2.5, -0.9, -314.1592653589793, 7e4])
    @pytest.mark.parametrize("k_lo, k_hi", [(0, 200), (60, 70), (127, 129), (1000, 1100)])
    def test_matches_the_direct_exponential(self, x, k_lo, k_hi):
        # Both sides round x k (the table in two parts), so they agree to
        # that rounding, 2 eps |x| k, plus a few eps from exp and the product.
        k = np.arange(k_lo, k_hi, dtype=float)
        phases = hilbert._unit_phases(x, k_lo, k_hi)
        assert phases.shape == k.shape
        assert np.all(np.abs(phases - np.exp(1j * x * k)) <= 4 * EPS + 2 * EPS * abs(x) * k)

    @pytest.mark.parametrize("a", [0, 1, 63, 64, 65, 128, 200, 299])
    def test_anchored_at_zero(self, a):
        for x in (0.4, -314.1592653589793, 7e4):
            assert np.array_equal(hilbert._unit_phases(x, a, 300),
                                  hilbert._unit_phases(x, 0, 300)[a:])

    @pytest.mark.parametrize("k", [0, 5, 64, 130])
    def test_empty_range(self, k):
        phases = hilbert._unit_phases(1.3, k, k)
        assert phases.shape == (0,)
        assert phases.dtype == np.complex128

    def test_first_phase_is_one(self):
        assert np.array_equal(hilbert._unit_phases(-2.5, 0, 1), np.array([1.0 + 0.0j]))

    def test_zero_frequency_gives_exact_ones(self):
        phases = hilbert._unit_phases(0.0, 3, 300)
        assert np.array_equal(phases.real, np.ones(297))
        assert np.array_equal(phases.imag, np.zeros(297))


class TestCoherentAmplitudes:
    def test_squares_match_poisson(self):
        amps = hilbert.coherent_amplitudes(6.0, 120)
        n = np.arange(121)
        np.testing.assert_allclose(
            np.abs(amps) ** 2, hilbert.poisson_weight(n, 36.0), atol=1e-12)

    def test_phase_winds_with_alpha(self):
        alpha = 2.0 * np.exp(1j * 0.7)
        amps = hilbert.coherent_amplitudes(alpha, 30)
        n = np.arange(31)
        np.testing.assert_allclose(np.angle(amps[1:]), (0.7 * n[1:] + np.pi) % (2 * np.pi) - np.pi,
                                   atol=1e-12)

    def test_vacuum(self):
        amps = hilbert.coherent_amplitudes(0.0, 5)
        assert amps[0] == 1.0
        assert np.all(amps[1:] == 0.0)

    def test_large_mean_photon_number_no_overflow(self):
        n_bar = 1.0e4
        amps = hilbert.coherent_amplitudes(math.sqrt(n_bar), hilbert.default_cutoff(n_bar))
        assert np.all(np.isfinite(amps.view(float)))
        assert np.sum(np.abs(amps) ** 2) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("n_bar", [1e3, 1e4, 1e5])
    def test_truncated_norm_never_exceeds_one(self, n_bar):
        amps = hilbert.coherent_amplitudes(math.sqrt(n_bar), hilbert.default_cutoff(n_bar))
        assert np.sum(np.abs(amps) ** 2) - 1.0 <= 1e-13

    @pytest.mark.parametrize("n_bar", [0.0, 1e-12, 36.0, 1489.0, 1491.0, 2000.0, 1e4, 1e5])
    @pytest.mark.parametrize("phi", [0.0, 0.7, -2.5])
    def test_equals_the_full_range_evaluation(self, n_bar, phi):
        # The amplitudes left out of the evaluation are exactly the ones
        # that underflow to 0; every other one is the same modulus times
        # the same phase, from tables anchored at n = 0.
        alpha = math.sqrt(n_bar) * complex(math.cos(phi), math.sin(phi))
        n_max = hilbert.default_cutoff(n_bar)
        if n_bar == 0.0:
            full = np.zeros(n_max + 1, dtype=complex)
            full[0] = 1.0
        else:
            n = np.arange(n_max + 1, dtype=float)
            full = (np.exp(0.5 * hilbert._log_poisson_weight(n, abs(alpha) ** 2))
                    * hilbert._unit_phases(math.atan2(alpha.imag, alpha.real), 0, n_max + 1))
        assert np.array_equal(hilbert.coherent_amplitudes(alpha, n_max), full)

    @staticmethod
    def _evaluated_head(n_bar):
        """Where coherent_amplitudes starts evaluating, and the amplitudes."""
        log_weight = hilbert._log_poisson_weight
        evaluated = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hilbert, "_log_poisson_weight",
                       lambda n, m: evaluated.append(n[0]) or log_weight(n, m))
            amps = hilbert.coherent_amplitudes(math.sqrt(n_bar), hilbert.default_cutoff(n_bar))
        assert len(evaluated) == 1
        return int(evaluated[0]), amps

    def test_bright_field_skips_its_underflowed_head(self):
        # exp(log w / 2) underflows below n = 5 072 at n_bar = 1e4; evaluation
        # starts at n_bar - sqrt(-2 floor n_bar) = 4 505, below that.
        start, amps = self._evaluated_head(1e4)
        assert start == 4505
        assert not np.any(amps[:start])
        assert amps[5071] == 0.0 and amps[5072] != 0.0
        assert self._evaluated_head(1490.0)[0] == 0

    @pytest.mark.parametrize("n_bar, start", [
        (1510.0, 0), (3020.0, 0), (3021.0, 1), (1e4, 4505), (1e5, 82622), (1e6, 945046),
    ])
    def test_skipped_head_is_all_below_the_floor(self, n_bar, start):
        # Evaluation starts at n_bar - sqrt(-2 floor n_bar), where Poisson's
        # lower tail puts every log weight below it under the floor.
        evaluated, amps = self._evaluated_head(n_bar)
        assert evaluated == start
        log_w = hilbert._log_poisson_weight(np.arange(start, dtype=float), n_bar)
        assert np.all(log_w < hilbert._LOG_WEIGHT_UNDERFLOW)
        assert np.all(np.exp(0.5 * log_w) == 0.0)
        assert not np.any(amps[:start])

    def test_norm_deficit_equals_tail_mass(self):
        n_max = 40
        amps = hilbert.coherent_amplitudes(6.0, n_max)
        deficit = 1.0 - float(np.sum(np.abs(amps) ** 2))
        assert deficit == pytest.approx(hilbert.coherent_mass(36.0, n_max + 1), rel=1e-10)


def tail_grid() -> list[tuple[float, int]]:
    """n_bar from 1e-12 to 1e5, cutoffs at 0, the mean, +/-3 sigma and the default."""
    cases = []
    for n_bar in (1e-12, 1e-6, 0.5, 3.0, 36.0, 177.8, 1e3, 1e4, 1e5):
        sigma = math.sqrt(n_bar)
        cutoffs = {0, math.floor(n_bar - 3 * sigma), math.floor(n_bar),
                   math.floor(n_bar + 3 * sigma), hilbert.default_cutoff(n_bar)}
        cases += [(n_bar, n_max) for n_max in sorted(cutoffs) if n_max >= 0]
    return cases


class TestCoherentTailMass:
    @pytest.mark.parametrize("n_bar, n_max", tail_grid())
    def test_matches_incomplete_gamma(self, n_bar, n_max):
        # P(N > n_max) is the regularized lower incomplete gamma function;
        # every tail on the grid is above 1e-290 (the smallest is 8.9e-286).
        # Stop at 1e5: gammainc itself drifts by ~1e-6 relative near 1e6.
        expected = float(scipy.special.gammainc(n_max + 1, n_bar))
        assert hilbert.coherent_mass(n_bar, n_max + 1) == pytest.approx(expected, rel=1e-12)

    def test_vacuum_has_no_tail(self):
        assert hilbert.coherent_mass(0.0, 1) == 0.0


def head_grid() -> list[tuple[float, int]]:
    """n_bar from 1e-12 to 1e5, window edges at 1, the mean, +/-3 sigma and -12 sigma - 20."""
    cases = []
    for n_bar in (1e-12, 1e-6, 0.5, 3.0, 36.0, 177.8, 400.0, 1e3, 1e4, 1e5):
        sigma = math.sqrt(n_bar)
        edges = {1, math.floor(n_bar - 3 * sigma), math.floor(n_bar), math.ceil(n_bar),
                 math.floor(n_bar + 3 * sigma), math.floor(n_bar - 12 * sigma - 20)}
        cases += [(n_bar, n_lo) for n_lo in sorted(edges)
                  if n_lo >= 1 and scipy.special.pdtr(n_lo - 1, n_bar) > 1e-290]
    return cases


class TestCoherentHeadMass:
    @pytest.mark.parametrize("n_bar, n_lo", head_grid())
    def test_matches_poisson_cdf(self, n_bar, n_lo):
        # P(N < n_lo) is the Poisson CDF at n_lo - 1; the grid reaches from
        # 1e-51 to 0.999 of the mass.
        expected = float(scipy.special.pdtr(n_lo - 1, n_bar))
        assert hilbert.coherent_mass(n_bar, 0, n_lo - 1) == pytest.approx(expected, rel=1e-12)

    def test_empty_and_vacuum_heads(self):
        assert hilbert.coherent_mass(36.0, 0, -1) == 0.0
        assert hilbert.coherent_mass(0.0, 0, -1) == 0.0
        assert hilbert.coherent_mass(0.0, 0, 2) == 1.0

    @pytest.mark.parametrize("n_bar", [0.0, 2.0, 36.0, 1e4])
    @pytest.mark.parametrize("hi", [math.inf, 3, -1])
    def test_range_below_zero_has_the_mass_of_its_support(self, n_bar, hi):
        # As the vacuum branch's float(lo <= 0 <= hi): n < 0 holds no mass.
        assert hilbert.coherent_mass(n_bar, -5, hi) == hilbert.coherent_mass(n_bar, 0, hi)


class TestCoherentMass:
    @settings(max_examples=200, deadline=None)
    @given(log_n_bar=st.floats(-6.0, 6.0), lo_sigmas=st.floats(-15.0, 15.0),
           width_sigmas=st.floats(0.0, 30.0))
    def test_head_range_and_tail_sum_to_one(self, log_n_bar, lo_sigmas, width_sigmas):
        # Any range [lo, hi] splits the Poisson mass into three parts.
        n_bar = 10.0 ** log_n_bar
        sigma = math.sqrt(n_bar)
        lo = max(0, math.floor(n_bar + lo_sigmas * sigma))
        hi = lo + math.floor(width_sigmas * sigma)
        total = (hilbert.coherent_mass(n_bar, 0, lo - 1) + hilbert.coherent_mass(n_bar, lo, hi)
                 + hilbert.coherent_mass(n_bar, hi + 1))
        assert total == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("call", [
        lambda n_bar: hilbert.poisson_weight(3, n_bar),
        hilbert.default_cutoff,
        lambda n_bar: hilbert.coherent_mass(n_bar, 5),
    ], ids=["poisson_weight", "default_cutoff", "coherent_mass"])
    @pytest.mark.parametrize("n_bar", [-1.0, math.nan, math.inf])
    def test_bad_mean_rejected_by_name(self, call, n_bar):
        with pytest.raises(ValueError, match="n_bar must be non-negative"):
            call(n_bar)

    def test_prep_rejects_a_mean_that_overflows(self):
        with pytest.raises(ValueError, match="n_bar must be non-negative and finite, got inf"):
            hilbert.CoherentPrep(1e200)


class TestCutoffs:
    def test_default_rule_value(self):
        assert hilbert.default_cutoff(36.0) == math.ceil(36 + 12 * 6 + 20)

    def test_required_is_minimal(self):
        # The cutoff named in the error is the smallest one CoherentPrep accepts.
        with pytest.raises(hilbert.TruncationError, match=r"need n_max >= (\d+)") as exc:
            hilbert.CoherentPrep(6.0, 40)
        need = int(re.search(r"need n_max >= (\d+)", str(exc.value)).group(1))
        assert hilbert.CoherentPrep(6.0, need).tail_mass() <= hilbert.DEFAULT_TAIL_TOLERANCE
        with pytest.raises(hilbert.TruncationError):
            hilbert.CoherentPrep(6.0, need - 1)
        assert need <= hilbert.default_cutoff(36.0)

    def test_check_raises_with_required_cutoff_named(self):
        with pytest.raises(hilbert.TruncationError, match=r"need n_max >= \d+"):
            hilbert.CoherentPrep(6.0, n_max=40)

    def test_cutoff_does_not_depend_on_field_phase(self):
        # |alpha|^2 picks up last-bit rounding that depends on the phase.
        for phi in np.linspace(0.0, 2.0 * math.pi, 64):
            assert hilbert.CoherentPrep(6.0 * np.exp(1j * phi)).n_max == 128

    def test_default_cutoff_is_always_sufficient(self):
        # Bernstein's inequality puts the default tail below exp(-30), so
        # the required cutoff is found by bisection below the default.
        for n_bar in (1e-12, 1e-6, 0.5, 4.0, 36.0, 1000.0, 1e5, 1e7):
            n_max = hilbert.default_cutoff(n_bar)
            assert hilbert.coherent_mass(n_bar, n_max + 1) <= math.exp(-30.0)


class TestCoherentPrep:
    def test_properties(self):
        prep = hilbert.CoherentPrep(6.0 * np.exp(1j * 0.25))
        assert prep.n_bar == pytest.approx(36.0)
        assert prep.phi == pytest.approx(0.25)
        assert prep.n_max == hilbert.default_cutoff(36.0)
        assert prep.tail_mass() <= 1e-12

    def test_phase_is_one_rounding_of_arg_alpha(self):
        # The CLI's alpha at phi = 3.8116, where np.angle and cmath.phase
        # differ in the last bit: the pulse axis and the kernel's carrier
        # must read the same phase.
        prep = hilbert.CoherentPrep(6.0 * complex(math.cos(3.8116), math.sin(3.8116)))
        assert prep.phi == cmath.phase(prep.alpha) == dynamics.FieldStep(prep).phase

    def test_insufficient_cutoff_rejected(self):
        with pytest.raises(hilbert.TruncationError):
            hilbert.CoherentPrep(6.0, n_max=45)

    def test_negative_cutoff_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            hilbert.CoherentPrep(0.0, n_max=-1)

    @pytest.mark.parametrize("n_max", [150.0, np.float64(150.0), "150"],
                             ids=["float", "numpy-float", "str"])
    def test_non_integer_cutoff_rejected_by_name(self, n_max):
        with pytest.raises(ValueError, match="n_max must be an integer"):
            hilbert.CoherentPrep(6.0, n_max)

    def test_numpy_integer_cutoff_is_stored_as_int(self):
        prep = hilbert.CoherentPrep(6.0, np.int64(150))
        assert type(prep.n_max) is int and prep.n_max == 150

    @pytest.mark.parametrize("n_bar, window", [(36.0, 129), (1e3, 801), (1e4, 2441),
                                               (1e5, 7631)])
    def test_window_spans_twelve_sigma_on_each_side(self, n_bar, window):
        prep = hilbert.CoherentPrep(math.sqrt(n_bar))
        assert prep.n_max - prep.n_lo + 1 == window
        assert prep.n_lo == max(0, math.floor(n_bar - 12.0 * math.sqrt(n_bar) - 20.0))
        assert prep.head_mass() <= 1e-33
        assert prep.tail_mass() <= 6e-33

    def test_window_edge_does_not_depend_on_field_phase(self):
        # n_bar - 12 sqrt(n_bar) - 20 is exactly 140 at n_bar = 400.
        for phi in np.linspace(0.0, 2.0 * math.pi, 64):
            assert hilbert.CoherentPrep(20.0 * np.exp(1j * phi)).n_lo == 140

    def test_head_mass_is_held_to_the_tolerance(self, monkeypatch):
        monkeypatch.setattr(hilbert, "coherent_mass",
                            lambda n_bar, lo, hi=math.inf: 2e-12 if lo == 0 else 0.0)
        with pytest.raises(hilbert.TruncationError, match="insufficient window: n_lo=8780"):
            hilbert.CoherentPrep(100.0)

    def test_joint_state_takes_the_same_truncation(self):
        state = hilbert.coherent_joint_state(hilbert.LEVEL_G, 6.0, n_max=90)
        assert state.n_max == 90
        with pytest.raises(hilbert.TruncationError):
            hilbert.coherent_joint_state(hilbert.LEVEL_G, 6.0, n_max=45)


class TestJointPureState:
    def test_amplitudes_read_only(self):
        state = hilbert.product_state(hilbert.LEVEL_E, [1.0, 0.0])
        with pytest.raises(ValueError):
            state.amplitudes[0] = 1.0

    def test_callers_array_is_copied(self):
        amps = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)
        state = hilbert.JointPureState(amps)
        amps[1] = 0.5
        assert state.amplitude(hilbert.LEVEL_E, 0) == 1.0
        assert amps.flags.writeable

    def test_package_built_states_are_read_only(self):
        field_amps = np.array([0.6, 0.8], dtype=complex)
        built = hilbert.product_state(hilbert.LEVEL_G, field_amps)
        field_amps[0] = 0.0
        assert built.amplitude(hilbert.LEVEL_G, 0) == 0.6
        evolved = dynamics.propagate(built, 0.3)
        for state in (built, evolved, hilbert.coherent_joint_state(hilbert.LEVEL_E, 2.0)):
            assert not state.amplitudes.flags.writeable
            with pytest.raises(ValueError):
                state.amplitudes[0] = 1.0

    def test_index_layout(self):
        state = hilbert.product_state(hilbert.LEVEL_E, [0.0, 1.0, 0.0])
        assert state.amplitude(hilbert.LEVEL_E, 1) == 1.0
        assert state.n_max == 2
        np.testing.assert_array_equal(state.level_amplitudes(hilbert.LEVEL_G), 0.0)

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            hilbert.JointPureState(np.zeros(3, dtype=complex))
        with pytest.raises(ValueError):
            hilbert.JointPureState(np.zeros((2, 2), dtype=complex))

    def test_bad_level_rejected(self):
        with pytest.raises(ValueError):
            hilbert.product_state(2, [1.0])


class TestAtomDensity:
    def test_positivity_enforced(self):
        with pytest.raises(ValueError, match="positive semi-definite"):
            hilbert.AtomDensity(rho11=0.1, rho01=0.4)
        with pytest.raises(ValueError):
            hilbert.AtomDensity(rho11=1.2)

    @pytest.mark.parametrize("rho01", [complex(math.nan, 0.0), complex(0.0, math.nan),
                                       complex(math.nan, math.nan)])
    def test_nan_coherence_rejected(self, rho01):
        # Every comparison with NaN is False, so the check must reject a
        # determinant unless "det >= -slack" holds.
        with pytest.raises(ValueError, match="positive semi-definite"):
            hilbert.AtomDensity(0.5, rho01)

    def test_the_check_holds_its_slack_and_its_order(self):
        # Within the 1e-12 slack a state is kept; past it the population
        # range is checked first, so an out-of-range rho11 names the range
        # although its determinant is below the slack too.
        for rho11, rho01 in [(1.0 + 5e-13, 0j), (-5e-13, 0j),
                             (0.5, math.sqrt(0.25 + 9e-13))]:
            assert hilbert.AtomDensity(rho11, rho01).rho11 == rho11
        for rho11 in (1.0 + 2e-12, -2e-12):
            with pytest.raises(ValueError) as raised:
                hilbert.AtomDensity(rho11)
            assert str(raised.value) == f"rho11 must lie in [0, 1], got {rho11}"
        with pytest.raises(ValueError) as raised:
            hilbert.AtomDensity(0.5, math.sqrt(0.25 + 1.1e-12))
        assert str(raised.value) == (
            "density matrix is not positive semi-definite: det = -1.100e-12")

    @pytest.mark.parametrize("rho11, rho01", [
        (np.float64(0.25), np.complex128(0.1 + 0.2j)), (1, 0), (True, False),
        (0.25, 0.1 + 0.2j)], ids=["numpy", "int", "bool", "python"])
    def test_one_constructor_converts_keeps_and_rechecks(self, rho11, rho01):
        rho = hilbert.AtomDensity(rho11, rho01)
        assert type(rho.rho11) is float and type(rho.rho01) is complex
        assert (rho.rho11, rho.rho01) == (rho11, rho01)
        if type(rho11) is float:  # Python scalars are stored, not copied
            assert rho.rho11 is rho11 and rho.rho01 is rho01
        assert type(replace(rho, rho11=np.float64(0.5)).rho11) is float
        with pytest.raises(ValueError, match=r"rho11 must lie in \[0, 1\]"):
            replace(rho, rho11=1.5)
        with pytest.raises(ValueError, match="positive semi-definite"):
            replace(rho, rho11=0.5, rho01=0.6)

    def test_eigenvalues(self):
        rho = hilbert.AtomDensity(rho11=0.5, rho01=0.3j)
        lo, hi = rho.eigenvalues()
        assert lo == pytest.approx(0.2)
        assert hi == pytest.approx(0.8)
        evals = np.linalg.eigvalsh(rho.as_matrix())
        assert evals[0] == pytest.approx(lo, abs=1e-14)
        assert evals[1] == pytest.approx(hi, abs=1e-14)

    def test_matrix_layout(self):
        rho = hilbert.AtomDensity(rho11=0.25, rho01=0.1 + 0.2j)
        m = rho.as_matrix()
        assert m[0, 0] == pytest.approx(0.75)
        assert m[0, 1] == 0.1 + 0.2j
        assert m[1, 0] == np.conj(m[0, 1])


class TestPartialTrace:
    def test_equal_superposition_same_photon_number(self):
        a, b = 0.6, 0.8
        amps = np.zeros(4, dtype=complex)
        amps[2 * 0 + hilbert.LEVEL_G] = a
        amps[2 * 0 + hilbert.LEVEL_E] = b * np.exp(1j * 0.3)
        rho = hilbert.partial_trace_field(hilbert.JointPureState(amps))
        assert rho.rho11 == pytest.approx(b * b)
        assert rho.rho01 == pytest.approx(a * b * np.exp(-1j * 0.3))

    def test_orthogonal_field_components_carry_no_coherence(self):
        amps = np.zeros(6, dtype=complex)
        amps[2 * 0 + hilbert.LEVEL_G] = 1 / math.sqrt(2)
        amps[2 * 1 + hilbert.LEVEL_E] = 1 / math.sqrt(2)
        rho = hilbert.partial_trace_field(hilbert.JointPureState(amps))
        assert rho.rho11 == pytest.approx(0.5)
        assert rho.rho01 == 0.0

    def test_rejects_badly_normalized_states(self):
        amps = np.zeros(4, dtype=complex)
        amps[0] = 2.0
        with pytest.raises(ValueError, match="norm"):
            hilbert.partial_trace_field(hilbert.JointPureState(amps))

    @pytest.mark.parametrize("deficit", [math.nan, -1e-8, 2e-6, math.inf, -math.inf])
    def test_norm_deficit_out_of_range_rejected(self, deficit):
        with pytest.raises(ValueError, match="norm deviates"):
            hilbert.check_norm_deficit(deficit)

    @pytest.mark.parametrize("deficit", [-1e-9, 0.0, 1e-6])
    def test_norm_deficit_bounds_are_inclusive(self, deficit):
        hilbert.check_norm_deficit(deficit)

    def test_nan_amplitude_rejected(self):
        # A NaN amplitude makes the norm deficit NaN, which must not pass.
        with pytest.raises(ValueError, match="norm deviates"):
            hilbert.partial_trace_field(hilbert.JointPureState([math.nan, 0, 0, 0]))


class TestThermalAtom:
    def test_unit_beta(self):
        rho = hilbert.thermal_atom(1.0)
        assert rho.rho11 == pytest.approx(1.0 / (1.0 + math.e), rel=1e-14)
        assert rho.rho01 == 0.0

    def test_zero_temperature_limit(self):
        assert hilbert.thermal_atom(math.inf).rho11 == 0.0
        assert hilbert.thermal_atom(1e6).rho11 == 0.0

    def test_negative_beta_inverts(self):
        assert hilbert.thermal_atom(-1.0).rho11 > 0.5

    def test_bad_delta_e(self):
        with pytest.raises(ValueError):
            hilbert.thermal_atom(1.0, delta_e=0.0)

    @pytest.mark.parametrize("beta, delta_e, match", [
        (math.nan, 1.0, "beta must not be NaN"),
        (1.0, math.nan, "delta_e must be positive and finite"),
        (1.0, math.inf, "delta_e must be positive and finite"),
        (1.0, -1.0, "delta_e must be positive and finite"),
    ])
    def test_bad_inputs_are_named(self, beta, delta_e, match):
        with pytest.raises(ValueError, match=match):
            hilbert.thermal_atom(beta, delta_e)

    def test_negative_infinite_beta_is_the_excited_state(self):
        assert hilbert.thermal_atom(-math.inf).rho11 == 1.0


class TestBlochMaps:
    @settings(max_examples=60, deadline=None)
    @given(
        z=st.floats(-1.0, 1.0),
        frac=st.floats(0.0, 1.0),
        ang=st.floats(0.0, 2.0 * math.pi),
    )
    def test_round_trip(self, z, frac, ang):
        r = frac * math.sqrt(max(1.0 - z * z, 0.0))
        vec = np.array([r * math.cos(ang), r * math.sin(ang), z])
        back = hilbert.bloch_vector(hilbert.atom_density_from_bloch(vec))
        np.testing.assert_allclose(back, vec, atol=1e-12)

    def test_unit_vector_is_pure(self):
        rho = hilbert.atom_density_from_bloch([0.0, 1.0, 0.0])
        assert rho.eigenvalues()[0] == pytest.approx(0.0, abs=1e-15)
        assert rho.determinant == pytest.approx(0.0, abs=1e-15)


class TestTraceDistance:
    @settings(max_examples=40, deadline=None)
    @given(
        data=st.tuples(
            st.floats(-0.9, 0.9), st.floats(0.0, 0.9), st.floats(0.0, 6.28),
            st.floats(-0.9, 0.9), st.floats(0.0, 0.9), st.floats(0.0, 6.28),
        )
    )
    def test_matches_eigenvalue_definition(self, data):
        z1, f1, a1, z2, f2, a2 = data
        def mk(z, f, a):
            r = f * math.sqrt(max(1.0 - z * z, 0.0))
            return hilbert.atom_density_from_bloch(
                [r * math.cos(a), r * math.sin(a), z])
        rho_a, rho_b = mk(z1, f1, a1), mk(z2, f2, a2)
        direct = 0.5 * np.sum(np.abs(
            np.linalg.eigvalsh(rho_a.as_matrix() - rho_b.as_matrix())))
        assert hilbert.trace_distance(rho_a, rho_b) == pytest.approx(direct, abs=1e-12)

    def test_orthogonal_pure_states(self):
        g = hilbert.AtomDensity(0.0)
        e = hilbert.AtomDensity(1.0)
        assert hilbert.trace_distance(g, e) == 1.0


class TestPhysicalParams:
    def test_resonance(self):
        params = hilbert.PhysicalParams(delta_e=2.5, g=0.3)
        assert params.omega == 2.5

    def test_validation(self):
        with pytest.raises(ValueError):
            hilbert.PhysicalParams(delta_e=-1.0)
        with pytest.raises(ValueError):
            hilbert.PhysicalParams(g=0.0)

    @pytest.mark.parametrize("field", ["delta_e", "g"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            hilbert.PhysicalParams(**{field: value})


@pytest.mark.parametrize("alpha", [math.nan, math.inf, complex(1.0, math.nan),
                                   complex(-math.inf, 0.0)])
def test_non_finite_coherent_amplitude_rejected(alpha):
    with pytest.raises(ValueError, match="alpha"):
        hilbert.CoherentPrep(alpha)
