"""Exact propagation layer, checked against independent oracles.

Oracle ordering matters here: the dense Hamiltonian and scipy's matrix
exponential of it are written and trusted first, then the closed-form block
propagator is held to them, and the reduced-state kernel to the traced
propagator.
"""

from __future__ import annotations

import cmath
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from cavitytherm import dynamics, hilbert, protocol
from cavitytherm.analytic import Timescales
from cavitytherm.hilbert import LEVEL_E, LEVEL_G, PhysicalParams


def random_joint_state(n_max: int, seed: int,
                       params: PhysicalParams | None = None) -> hilbert.JointPureState:
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2 * (n_max + 1)) + 1j * rng.normal(size=2 * (n_max + 1))
    amps /= np.linalg.norm(amps)
    return hilbert.JointPureState(amps, params or PhysicalParams())


class TestDensePropagatorOracle:
    """Closed-form blocks vs scipy's matrix exponential of the dense H."""

    @pytest.mark.parametrize("n_max", [0, 1, 7, 40])
    @pytest.mark.parametrize("t", [0.0, 0.37, 2.0, 11.3, -2.6])
    def test_propagate_matches_expm(self, n_max, t):
        params = PhysicalParams(delta_e=1.3, g=0.7)
        state = random_joint_state(n_max, seed=n_max * 1000 + int(10 * abs(t)), params=params)
        u = scipy.linalg.expm(-1j * t * dynamics.hamiltonian_matrix(params, n_max))
        expected = u @ state.amplitudes
        got = dynamics.propagate(state, t).amplitudes
        np.testing.assert_allclose(got, expected, atol=1e-12)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_rejected_without_numpy_warnings(self, t):
        state = random_joint_state(7, seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="t must be finite"):
                dynamics.propagate(state, t)

    def test_top_block_gets_bare_phase_only(self):
        params = PhysicalParams(delta_e=2.0, g=1.0)
        n_max = 3
        amps = np.zeros(2 * (n_max + 1), dtype=complex)
        amps[2 * n_max + LEVEL_E] = 1.0
        out = dynamics.propagate(hilbert.JointPureState(amps, params), 0.8)
        expected = np.exp(-1j * params.omega * (n_max + 1) * 0.8)
        assert out.amplitude(LEVEL_E, n_max) == pytest.approx(expected, abs=1e-14)
        assert out.norm == pytest.approx(1.0, abs=1e-14)


def rotate_every_block(state: hilbert.JointPureState, t: float) -> np.ndarray:
    """The closed-form block rotation applied to all of 0 <= n <= n_max."""
    omega, g = state.params.omega, state.params.g
    amps, n_max = state.amplitudes, state.n_max
    out = np.empty_like(amps)
    out[0] = amps[0]
    k = np.arange(1.0, n_max + 1.0)
    phase = hilbert._unit_phases(-omega * t, 1, n_max + 1)
    c, s = np.cos(g * np.sqrt(k) * t), np.sin(g * np.sqrt(k) * t)
    a_e, a_g = amps[1:2 * n_max:2], amps[2::2]
    out[1:2 * n_max:2] = phase * (c * a_e - 1j * s * a_g)
    out[2::2] = phase * (-1j * s * a_e + c * a_g)
    out[-1] = np.exp(-1j * omega * (n_max + 1.0) * t) * amps[-1]
    return out


def states_with_zero_runs() -> list[tuple[str, hilbert.JointPureState]]:
    n_max = 30
    dim = 2 * (n_max + 1)
    rng = np.random.default_rng(17)
    cases = []
    for lo, hi in ((7, 41), (8, 40), (1, dim - 1), (3, 4), (1, 20), (30, dim)):
        amps = np.zeros(dim, dtype=complex)
        amps[lo:hi] = rng.normal(size=hi - lo) + 1j * rng.normal(size=hi - lo)
        cases.append((f"zeros outside [{lo}, {hi})", amps))
    for name, index in (("only |g,0>", 2 * 0 + LEVEL_G), ("only |e,n_max>", 2 * n_max + LEVEL_E)):
        amps = np.zeros(dim, dtype=complex)
        amps[index] = 0.6 - 0.8j
        cases.append((name, amps))
    cases.append(("all zeros", np.zeros(dim, dtype=complex)))
    params = PhysicalParams(delta_e=1.3, g=0.7)
    states = [(name, hilbert.JointPureState(amps, params)) for name, amps in cases]
    for level in (LEVEL_E, LEVEL_G):
        states.append((f"n_bar=36 level {level}", hilbert.coherent_joint_state(level, 6.0j)))
    states.append(("n_bar=1e4", hilbert.coherent_joint_state(LEVEL_G, 100.0 * np.exp(0.4j))))
    # Rotated ranges wider than one chunk, from a first nonzero block inside
    # the first chunk (its |g,n+1>), on the edge n = _CHUNK_ELEMENTS (its
    # |e,n>), and two whole chunks. Each stays far below the 16 384 blocks
    # past which numpy may elide the temporaries of a whole-range rotation
    # and reorder its complex product.
    chunk = dynamics._CHUNK_ELEMENTS
    n_max = 2 * chunk + 37
    dim = 2 * (n_max + 1)
    for name, first in (("mid-chunk", 2 * 1000 + 2), ("on a chunk edge", 2 * chunk + 1),
                        ("two whole chunks", 2 * 37 + 1)):
        amps = np.zeros(dim, dtype=complex)
        amps[first:] = rng.normal(size=dim - first) + 1j * rng.normal(size=dim - first)
        states.append((f"chunks from {name}", hilbert.JointPureState(amps, params)))
    return states


class TestZeroBlockSkip:
    """Rotating only the blocks from the first nonzero amplitude's on changes nothing."""

    @pytest.mark.parametrize("name, state", states_with_zero_runs(),
                             ids=[name for name, _ in states_with_zero_runs()])
    @pytest.mark.parametrize("t", [0.0, 0.9, 37.5, -4.2])
    def test_equals_the_rotation_of_every_block(self, name, state, t):
        assert np.array_equal(dynamics.propagate(state, t).amplitudes,
                              rotate_every_block(state, t))


def test_cross_check_allocation_stays_lean():
    # One exact cross-check at n_bar = 1e4 peaks at 0.87 MiB of traced
    # allocation; an extra full-length temporary in the amplitudes, the
    # propagator or the trace (180 KiB complex at n_max = 11 220) breaks it.
    args = (300.0, 100.0, PhysicalParams(), LEVEL_E, 11220)
    dynamics.coherence_from_propagator(*args)  # warm-up
    tracemalloc.start()
    try:
        dynamics.coherence_from_propagator(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.91 * 2 ** 20


def record_rabi_angles(monkeypatch) -> dict[str, list[np.ndarray]]:
    """Copies of every ``np.cos`` and ``np.sin`` argument in ``dynamics``, in call order."""
    angles = {"cos": [], "sin": []}

    class Recording:
        def __getattr__(self, name):
            return getattr(np, name)

        def cos(self, x, **kwargs):
            angles["cos"].append(np.array(x))
            return np.cos(x, **kwargs)

        def sin(self, x, **kwargs):
            angles["sin"].append(np.array(x))
            return np.sin(x, **kwargs)

    monkeypatch.setattr(dynamics, "np", Recording())
    return angles


@pytest.mark.parametrize("n_bar", [1e4, 1e5])
def test_propagate_rotates_each_block_once_in_chunks(monkeypatch, n_bar):
    state = hilbert.coherent_joint_state(LEVEL_E, math.sqrt(n_bar))
    params, n_max, t = state.params, state.n_max, 300.0
    lo = int(np.flatnonzero(state.amplitudes[1:])[0]) // 2  # first nonzero block
    assert n_max - lo > 2 * dynamics._CHUNK_ELEMENTS
    angles = record_rabi_angles(monkeypatch)
    dynamics.propagate(state, t)
    rotated = params.g * np.sqrt(np.arange(lo + 1.0, n_max + 1.0)) * t
    for name, chunks in angles.items():
        sizes = [chunk.size for chunk in chunks]
        assert max(sizes) <= dynamics._CHUNK_ELEMENTS, name
        assert sum(sizes) == n_max - lo, name
        assert np.array_equal(np.concatenate(chunks), rotated), name


class TestVacuumRabi:
    def test_cosine_squared_population(self):
        params = PhysicalParams(delta_e=1.0, g=0.8)
        state = hilbert.product_state(LEVEL_E, [1.0, 0.0], params)
        for t in np.linspace(0.0, 6.0, 25):
            pe = hilbert.partial_trace_field(dynamics.propagate(state, t)).rho11
            assert pe == pytest.approx(math.cos(params.g * t) ** 2, abs=1e-12)

    def test_ground_vacuum_is_stationary(self):
        state = hilbert.product_state(LEVEL_G, [1.0, 0.0, 0.0])
        out = dynamics.propagate(state, 17.3)
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-15)


def dressed_vector(n: int, sign: float, n_max: int) -> np.ndarray:
    """``(|g,n> + sign |e,n-1>) / sqrt(2)``, the dressed state of block n."""
    amps = np.zeros(2 * (n_max + 1), dtype=complex)
    amps[2 * n + LEVEL_G] = 1.0 / math.sqrt(2.0)
    amps[2 * (n - 1) + LEVEL_E] = sign / math.sqrt(2.0)
    return amps


class TestDressedStates:
    """Dressed states of the dense H: energies omega n +/- g sqrt(n)."""

    @pytest.mark.parametrize("n", [1, 2, 9])
    def test_eigenpair_relation(self, n):
        params = PhysicalParams(delta_e=1.7, g=0.4)
        n_max = 12
        h = dynamics.hamiltonian_matrix(params, n_max)
        for sign in (1.0, -1.0):
            vec = dressed_vector(n, sign, n_max)
            energy = params.omega * n + sign * params.g * math.sqrt(n)
            np.testing.assert_allclose(h @ vec, energy * vec, atol=1e-12)

    def test_energies_and_splitting(self):
        # Spectrum: |g,0> at 0, each block n at omega n +/- g sqrt(n) (split
        # by 2 g sqrt(n)), and the partnerless |e,n_max> at omega (n_max+1).
        params = PhysicalParams(delta_e=1.3, g=0.5)
        n_max = 8
        n = np.arange(1, n_max + 1)
        root = params.g * np.sqrt(n)
        expected = np.sort(np.concatenate((
            [0.0, params.omega * (n_max + 1)],
            params.omega * n + root, params.omega * n - root)))
        np.testing.assert_allclose(
            np.linalg.eigvalsh(dynamics.hamiltonian_matrix(params, n_max)),
            expected, atol=1e-12)

    def test_orthonormal(self):
        # The dressed pairs and the two unpaired levels form an orthonormal
        # basis in which H is diagonal.
        params = PhysicalParams(delta_e=1.1, g=0.6)
        n_max = 5
        basis = [np.eye(1, 2 * (n_max + 1), LEVEL_G).ravel(),
                 np.eye(1, 2 * (n_max + 1), 2 * n_max + LEVEL_E).ravel()]
        basis += [dressed_vector(n, sign, n_max)
                  for n in range(1, n_max + 1) for sign in (1.0, -1.0)]
        v = np.column_stack(basis)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(v.shape[1]), atol=1e-14)
        h = v.conj().T @ dynamics.hamiltonian_matrix(params, n_max) @ v
        np.testing.assert_allclose(h, np.diag(np.diag(h)), atol=1e-14)

    def test_unpaired_levels_are_eigenstates(self):
        # n = 0 and n = n_max + 1 have no partner: |g,0> and |e,n_max> are
        # eigenstates on their own, at 0 and omega (n_max + 1).
        params = PhysicalParams(delta_e=1.3, g=0.7)
        n_max = 4
        h = dynamics.hamiltonian_matrix(params, n_max)
        vacuum = np.eye(1, 2 * (n_max + 1), LEVEL_G).ravel()
        top = np.eye(1, 2 * (n_max + 1), 2 * n_max + LEVEL_E).ravel()
        np.testing.assert_allclose(h @ vacuum, 0.0, atol=1e-15)
        np.testing.assert_allclose(h @ top, params.omega * (n_max + 1) * top, atol=1e-14)

    def test_stationary_under_propagation_up_to_phase(self):
        params = PhysicalParams(delta_e=1.0, g=0.3)
        t = 2.2
        for sign in (1.0, -1.0):
            vec = dressed_vector(2, sign, 4)
            energy = params.omega * 2 + sign * params.g * math.sqrt(2.0)
            out = dynamics.propagate(hilbert.JointPureState(vec, params), t)
            np.testing.assert_allclose(
                out.amplitudes, np.exp(-1j * energy * t) * vec, atol=1e-13)


class TestConservationProperties:
    @settings(max_examples=30, deadline=None)
    @given(t=st.floats(0.0, 50.0), seed=st.integers(0, 10_000))
    def test_norm_and_energy_conserved(self, t, seed):
        state = random_joint_state(6, seed=seed)
        h = dynamics.hamiltonian_matrix(state.params, 6)
        out = dynamics.propagate(state, t)
        assert out.norm == pytest.approx(1.0, abs=1e-12)
        assert np.vdot(out.amplitudes, h @ out.amplitudes).real == pytest.approx(
            np.vdot(state.amplitudes, h @ state.amplitudes).real, abs=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(t=st.floats(0.0, 20.0), s=st.floats(0.0, 20.0))
    def test_composition(self, t, s):
        state = random_joint_state(5, seed=77)
        both = dynamics.propagate(state, t + s)
        stepped = dynamics.propagate(dynamics.propagate(state, t), s)
        np.testing.assert_allclose(stepped.amplitudes, both.amplitudes, atol=1e-11)


def trimmed_window(field_step: dynamics.FieldStep) -> tuple[int, int]:
    """``(n_first, n_top)``, the photon numbers the field step's series sums over."""
    return round(field_step.root_k[0] ** 2), round(field_step.root_k[-1] ** 2) - 1


def kernel_state(p_e: float, alpha: complex, t: float,
                 params: PhysicalParams | None = None) -> hilbert.AtomDensity:
    return dynamics.evolve_atom_field_mixture(hilbert.AtomDensity(p_e), alpha, t, params)


def traced_state(level: int, alpha: complex, t: float,
                 params: PhysicalParams | None = None) -> hilbert.AtomDensity:
    joint = hilbert.coherent_joint_state(level, alpha, params)
    return hilbert.partial_trace_field(dynamics.propagate(joint, t))


class TestCoherenceSeries:
    """The reduced-state kernel's series vs propagate + partial trace."""

    @pytest.mark.parametrize("initial_level", [LEVEL_E, LEVEL_G])
    @pytest.mark.parametrize("alpha", [2.0, 6.0 * np.exp(1j * 0.6)])
    def test_series_matches_propagator(self, initial_level, alpha):
        params = PhysicalParams()
        for t in (0.0, 1.0, 4.24, 10.0, 30.0):
            series = kernel_state(float(initial_level), alpha, t, params)
            direct = traced_state(initial_level, alpha, t, params)
            assert series.rho11 == pytest.approx(direct.rho11, abs=1e-10)
            assert series.rho01 == pytest.approx(direct.rho01, abs=1e-10)

    @pytest.mark.parametrize("initial_level", [LEVEL_E, LEVEL_G])
    def test_bright_field_matches_the_kernel_and_keeps_its_zeros(self, initial_level):
        # At n_bar = 1e4 the coherent amplitudes below n ~ 5070 underflow to
        # exact zeros, and a block of two zeros must rotate to exact zeros.
        alpha = 100.0
        scales = Timescales(1e4)
        field_step = dynamics.FieldStep(hilbert.CoherentPrep(alpha))
        joint = hilbert.coherent_joint_state(initial_level, alpha)
        first = np.flatnonzero(joint.amplitudes)[0]
        start = 2 * ((first - 1) // 2) + 1  # first index of that amplitude's block
        assert start > 0.45 * joint.amplitudes.size
        for t in (scales.tau_collapse, scales.tau_revival / 4, scales.tau_revival / 2):
            series = field_step.evolve(hilbert.AtomDensity(float(initial_level)), t)
            assert dynamics.coherence_from_propagator(
                t, alpha, initial_level=initial_level) == pytest.approx(
                series.rho01, rel=0, abs=1e-10)
            evolved = dynamics.propagate(joint, t)
            assert hilbert.partial_trace_field(evolved).rho11 == pytest.approx(
                series.rho11, rel=0, abs=1e-10)
            assert not np.any(evolved.amplitudes[:start])
            assert np.any(evolved.amplitudes[start:start + 2])

    @pytest.mark.parametrize("n_bar", [1e3, 1e4])
    @pytest.mark.parametrize("initial_level", [LEVEL_E, LEVEL_G])
    def test_windowed_kernel_matches_the_full_space_cross_check(self, n_bar, initial_level):
        # The kernel sums over [n_lo, n_max] only; the cross-check spans all
        # of 0 <= n <= n_max.
        alpha = math.sqrt(n_bar) * np.exp(0.3j)
        prep = hilbert.CoherentPrep(alpha)
        field_step = dynamics.FieldStep(prep)
        assert prep.n_lo > 0.5 * n_bar
        n_first, n_top = trimmed_window(field_step)
        assert prep.n_lo < n_first and n_top < prep.n_max
        joint = hilbert.coherent_joint_state(initial_level, alpha)
        scales = Timescales(n_bar)
        for t in (scales.tau_collapse, scales.tau_revival / 2, 1.1 * scales.tau_revival):
            series = field_step.evolve(hilbert.AtomDensity(float(initial_level)), t)
            assert dynamics.coherence_from_propagator(
                t, alpha, initial_level=initial_level) == pytest.approx(
                series.rho01, rel=0, abs=1e-10)
            assert hilbert.partial_trace_field(dynamics.propagate(joint, t)).rho11 == (
                pytest.approx(series.rho11, rel=0, abs=1e-10))

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, -3.0])
    def test_bad_time_rejected_without_numpy_warnings(self, t):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="interaction_time must be non-negative "
                                                 "and finite"):
                dynamics.coherence_from_propagator(t, 6.0)

    def test_excited_state_at_zero_time_in_a_bright_field(self):
        # At n_bar = 1e4 the truncated field's norm must not exceed 1, or
        # the traced excited population is rejected as rho11 > 1.
        rho01 = dynamics.coherence_from_propagator(0.0, 100.0, initial_level=LEVEL_E)
        assert rho01 == 0j

    def test_wrong_splitting_convention_breaks_identity(self):
        params = PhysicalParams()
        halved = PhysicalParams(g=params.g / 2.0)
        t, alpha = 4.0, 2.0
        series = kernel_state(1.0, alpha, t, halved).rho01
        direct = dynamics.coherence_from_propagator(t, alpha, params)
        assert abs(series - direct) > 1e-3

    def test_vacuum_guard_returns_zero(self):
        # An empty field carries no coherence; the excited atom undergoes
        # vacuum Rabi oscillation cos^2(g t).
        params = PhysicalParams(g=0.8)
        for t in (0.3, 1.0, 4.0):
            rho = kernel_state(1.0, 0.0, t, params)
            assert rho.rho01 == 0j
            assert rho.rho11 == pytest.approx(math.cos(params.g * t) ** 2, abs=1e-15)

    def test_zeroth_term_vanishes(self):
        # |g,0> is stationary: a ground atom in the vacuum never excites.
        rho = kernel_state(0.0, 0.0, 2.0)
        assert rho.rho11 == 0.0
        assert rho.rho01 == 0j


class TestMixtureEvolution:
    def test_pure_excited_matches_joint_propagation(self):
        params = PhysicalParams()
        alpha = 2.0 * np.exp(1j * 0.3)
        t = 3.1
        mixed = kernel_state(1.0, alpha, t, params)
        direct = traced_state(LEVEL_E, alpha, t, params)
        assert mixed.rho11 == pytest.approx(direct.rho11, abs=1e-12)
        assert mixed.rho01 == pytest.approx(direct.rho01, abs=1e-12)

    def test_diagonal_mixture_is_convex_combination(self):
        params = PhysicalParams()
        alpha, t, pe0 = 2.0, 2.6, 0.3
        mixed = kernel_state(pe0, alpha, t, params)
        ground = traced_state(LEVEL_G, alpha, t, params)
        excited = traced_state(LEVEL_E, alpha, t, params)
        assert mixed.rho11 == pytest.approx(
            (1.0 - pe0) * ground.rho11 + pe0 * excited.rho11, abs=1e-12)
        assert mixed.rho01 == pytest.approx(
            (1.0 - pe0) * ground.rho01 + pe0 * excited.rho01, abs=1e-12)

    def test_coherent_atom_input_rejected(self):
        atom = hilbert.atom_density_from_bloch([0.6, 0.0, 0.0])
        with pytest.raises(ValueError, match="diagonal"):
            dynamics.evolve_atom_field_mixture(atom, 1.5, 1.0)

    def test_too_small_cutoff_rejected(self):
        # n_max = 5 drops about 0.21 of the Poisson mass at n_bar = 9; n_max
        # = 80 leaves 8.1e-11 at n_bar = 36, inside the norm check's slack
        # but over the cutoff tolerance.
        for alpha, n_max in ((3.0, 5), (6.0, 80)):
            with pytest.raises(hilbert.TruncationError,
                               match="insufficient truncation.*need n_max >= "):
                dynamics.evolve_atom_field_mixture(
                    hilbert.AtomDensity(1.0), alpha, 1.0, n_max=n_max)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -3.0])
    def test_bad_time_rejected_without_numpy_warnings(self, t):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="interaction_time must be non-negative "
                                                 "and finite"):
                dynamics.evolve_atom_field_mixture(hilbert.AtomDensity(0.3), 6.0, t)


class TestFieldStep:
    """One field step serves every time and atom, bit for bit."""

    def test_reuse_matches_the_kernel_bit_for_bit(self):
        alpha, params = 6.0 * np.exp(1j * 0.8), PhysicalParams(delta_e=1.3, g=0.7)
        field_step = dynamics.FieldStep(hilbert.CoherentPrep(alpha), params)
        for t in np.linspace(0.0, 40.0, 23):
            for p_e in (0.0, 0.27, 1.0):
                atom = hilbert.AtomDensity(p_e)
                reused = field_step.evolve(atom, float(t))
                fresh = dynamics.evolve_atom_field_mixture(atom, alpha, float(t), params)
                assert (reused.rho11, reused.rho01) == (fresh.rho11, fresh.rho01)

    def test_zero_time_echoes_the_atom(self):
        atom = hilbert.AtomDensity(0.5)
        assert dynamics.FieldStep(hilbert.CoherentPrep(6.0)).evolve(atom, 0.0) is atom

    def test_norm_is_checked_once_on_construction(self, monkeypatch):
        # The prep has validated the cutoff; weights that overshoot unit
        # norm are still caught.
        original = dynamics.poisson_weight
        monkeypatch.setattr(dynamics, "poisson_weight",
                            lambda n, n_bar: original(n, n_bar) * (1.0 + 1e-8))
        with pytest.raises(ValueError, match="norm deviates"):
            dynamics.FieldStep(hilbert.CoherentPrep(3.0))


def pointwise_series(field_step: dynamics.FieldStep, p: float, t: float):
    """The kernel's series for one time over 1-d vectors, as a per-point step."""
    w = field_step.weights
    theta = (field_step.g * t) * field_step.root_k
    c = np.cos(theta)
    c[-1] = 1.0
    s = np.sin(theta[:-1])
    rho11 = p * np.dot(w, c[1:] ** 2) + (1.0 - p) * np.dot(w, s ** 2)
    envelope = np.dot(field_step.pairs, s[1:] * ((1.0 - p) * c[:-2] - p * c[2:]))
    carrier = cmath.exp(1j * (field_step.omega * t - field_step.phase))
    return rho11, 1j * carrier * envelope


def chunk_rows(field_step: dynamics.FieldStep) -> int:
    return max(1, dynamics._CHUNK_ELEMENTS // field_step.root_k.size)


class TestGridStep:
    """The kernel over a grid of times, in chunks, bit for bit per point."""

    @pytest.mark.parametrize("n_bar", [2.0, 36.0, 1e3, 1e4])
    @pytest.mark.parametrize("tight", [False, True])
    def test_every_grid_length_equals_the_one_point_series(self, n_bar, tight):
        # At the smallest valid cutoff the top weight is large enough for the
        # partnerless top level (C = 1) to show in the bits. Every length
        # here is below the rotated path's, so every state is the one-point
        # series bit for bit (TestRotatedGrid bounds longer uniform grids).
        alpha = math.sqrt(n_bar) * np.exp(0.7j)
        n_max = hilbert._required_cutoff(n_bar) if tight else None
        field_step = dynamics.FieldStep(hilbert.CoherentPrep(alpha, n_max))
        rows = chunk_rows(field_step)
        assert (rows == 1) == (n_bar == 1e4)  # a bright row fills a chunk alone
        half = Timescales(n_bar).half_revival
        for length in sorted({1, max(rows - 1, 1), rows, rows + 1, 3 * rows + 2}):
            grid = np.linspace(half / length, half, length)
            assert not block_rows(field_step, grid)
            for p_e in (0.0, 0.27):
                atom = hilbert.AtomDensity(p_e)
                states = field_step.evolve_grid(atom, grid)
                assert len(states) == length
                for t, state in zip(grid, states):
                    alone = field_step.evolve(atom, float(t))
                    assert (state.rho11, state.rho01) == (alone.rho11, alone.rho01)
                    assert (state.rho11, state.rho01) == pointwise_series(
                        field_step, p_e, float(t))

    def test_columns_are_the_states_of_evolve_grid(self):
        field_step = dynamics.FieldStep(hilbert.CoherentPrep(6.0 * np.exp(0.4j)))
        atom = hilbert.AtomDensity(0.3)
        times = [0.0, 1.5, math.nan, -1.0, 9.0, 1e308]
        states = field_step.evolve_grid(atom, times)
        finite = "interaction_time must be non-negative and finite, got "
        assert [str(state) if isinstance(state, ValueError) else None
                for state in states] == [
            None, None, finite + "nan", finite + "-1.0", None,
            "interaction_time overflows the Rabi angle g sqrt(n_top + 1) t, got 1e+308"]
        assert states[0] is atom
        for t, state in zip(times, states):
            if not isinstance(state, ValueError):
                assert type(state.rho11) is float and type(state.rho01) is complex
                alone = field_step.evolve(atom, t)
                assert (state.rho11, state.rho01) == (alone.rho11, alone.rho01)

    def test_empty_grid(self):
        field_step = dynamics.FieldStep(hilbert.CoherentPrep(6.0))
        assert field_step.evolve_grid(hilbert.AtomDensity(0.3), []) == []

    @pytest.mark.parametrize("n_bar", [2.0, 36.0, 1e4])
    def test_rejected_times_keep_their_errors_and_spare_the_rest(self, n_bar):
        field_step = dynamics.FieldStep(hilbert.CoherentPrep(math.sqrt(n_bar)))
        atom = hilbert.AtomDensity(0.4)
        grid = list(np.linspace(0.5, Timescales(n_bar).half_revival,
                                2 * chunk_rows(field_step) + 3))
        clean = field_step.evolve_grid(atom, grid)
        finite = "interaction_time must be non-negative and finite, got "
        # A message, the atom itself (-0.0 is a zero time) or the evaluated state.
        expected = {math.nan: finite + "nan", -1.0: finite + "-1.0", math.inf: finite + "inf",
                    -math.inf: finite + "-inf", -5e-324: finite + "-5e-324",
                    1e308: "interaction_time overflows the Rabi angle g sqrt(n_top + 1) t, "
                           "got 1e+308",
                    -0.0: atom, 5e-324: pointwise_series(field_step, 0.4, 5e-324)}
        for position in (0, len(grid) // 2, len(grid) - 1):
            for t_edge, entry in expected.items():
                times = list(grid)
                times[position] = t_edge
                states = field_step.evolve_grid(atom, times)
                state = states[position]
                if isinstance(entry, str):
                    assert isinstance(state, ValueError) and str(state) == entry
                elif entry is atom:
                    assert state is atom
                else:
                    assert state is not atom and (state.rho11, state.rho01) == entry
                for i, (state, kept) in enumerate(zip(states, clean)):
                    if i != position:
                        assert (state.rho11, state.rho01) == (kept.rho11, kept.rho01)

    def test_a_state_that_fails_check_density_is_rejected_in_the_kernel(self, monkeypatch):
        prep, atom = hilbert.CoherentPrep(6.0 * np.exp(0.9j)), hilbert.AtomDensity(0.3)
        times, bad = [0.0, 2.0, 5.0, 9.0], 2
        clean = dynamics.FieldStep(prep).evolve_grid(atom, times)
        series = dynamics.FieldStep._series

        def planted(self, p, run_times):
            rho11, envelope = series(self, p, run_times)
            rho11[run_times == times[bad]] = 1.5
            return rho11, envelope

        monkeypatch.setattr(dynamics.FieldStep, "_series", planted)
        message = "rho11 must lie in [0, 1], got 1.5"
        field_step = dynamics.FieldStep(prep)
        states = field_step.evolve_grid(atom, times)
        assert type(states[bad]) is ValueError and str(states[bad]) == message
        for i in range(len(times)):
            if i != bad:
                assert (states[i].rho11, states[i].rho01) == (clean[i].rho11, clean[i].rho01)
        with pytest.raises(ValueError) as raised:
            field_step.evolve(atom, times[bad])
        assert str(raised.value) == message

        config = protocol.ProtocolConfig(prep=prep, interaction_time=times[bad],
                                         initial_beta=1.0)
        points = protocol.sweep_interaction_time(config, times)
        assert [point.ok for point in points] == [True, True, False, True]
        assert points[bad].error == message and points[bad].result is None
        with pytest.raises(ValueError) as raised:
            protocol.run_protocol(config)
        assert str(raised.value) == message

    def test_overflowing_carrier_phase_is_rejected_by_name(self):
        # omega t overflows at t = 2 and 3 when omega = 1e308; the Rabi angle does not.
        prep, atom = hilbert.CoherentPrep(6.0 * np.exp(0.9j)), hilbert.AtomDensity(0.3)
        field_step = dynamics.FieldStep(prep, hilbert.PhysicalParams(delta_e=1e308))
        states = field_step.evolve_grid(atom, [0.0, 0.5, 2.0, 1.0, 3.0])
        assert [str(state) if isinstance(state, ValueError) else None
                for state in states] == [
            None, None, "interaction_time overflows the carrier phase omega t, got 2.0",
            None, "interaction_time overflows the carrier phase omega t, got 3.0"]
        clean = field_step.evolve_grid(atom, [0.0, 0.5, 1.0])
        assert [repr(states[i].rho11) for i in (0, 1, 3)] == [repr(x.rho11) for x in clean]
        assert [repr(states[i].rho01) for i in (0, 1, 3)] == [repr(x.rho01) for x in clean]

    def test_overflowing_time_raises_by_name_without_a_warning(self):
        field_step = dynamics.FieldStep(hilbert.CoherentPrep(6.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="interaction_time overflows the Rabi angle"):
                field_step.evolve(hilbert.AtomDensity(0.3), 1e308)
            # Huge but finite angles are evaluated (their phase precision is
            # another matter).
            field_step.evolve(hilbert.AtomDensity(0.3), 1e300)

    def test_zero_times_return_the_atom_itself(self):
        field_step = dynamics.FieldStep(hilbert.CoherentPrep(6.0))
        atom = hilbert.AtomDensity(0.5)
        times = [0.0, -0.0, 0.0, 1.5] + [0.0] * (chunk_rows(field_step) + 1) + [2.5]
        states = field_step.evolve_grid(atom, times)
        for t, state in zip(times, states):
            assert (state is atom) == (t == 0.0)

    def test_non_diagonal_atom_rejects_the_grid(self):
        field_step = dynamics.FieldStep(hilbert.CoherentPrep(6.0))
        with pytest.raises(ValueError, match="must be diagonal"):
            field_step.evolve_grid(hilbert.AtomDensity(0.5, 0.1), [0.0, 1.0])

    @pytest.mark.parametrize("n_bar", [2.0, 36.0, 1e4])
    @pytest.mark.parametrize("length", [1, 7, 40, 200])
    def test_no_temporary_exceeds_a_chunk(self, monkeypatch, n_bar, length):
        field_step = dynamics.FieldStep(hilbert.CoherentPrep(math.sqrt(n_bar)))
        angles = record_rabi_angles(monkeypatch)
        field_step.evolve_grid(hilbert.AtomDensity(0.3), np.linspace(1.0, 30.0, length))
        sizes = [x.size for xs in angles.values() for x in xs]
        assert sizes
        assert max(sizes) <= max(dynamics._CHUNK_ELEMENTS, field_step.root_k.size)

    def test_bright_grid_allocation_stays_chunked(self):
        # 2 000 times at n_bar = 1e4 (2 443 angles a time): one array over the
        # whole grid would take 39 MB.
        field_step = dynamics.FieldStep(hilbert.CoherentPrep(100.0))
        atom = hilbert.AtomDensity(0.3)
        grid = np.linspace(1.0, Timescales(1e4).half_revival, 2000)
        field_step.evolve_grid(atom, grid[:3])  # warm-up
        tracemalloc.start()
        try:
            field_step.evolve_grid(atom, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2 ** 20

    @pytest.mark.parametrize("n_bar", [2.0, 36.0, 1e3, 1e4])
    @pytest.mark.parametrize("edge", ["one", "chunk", "chunk+1", "2 chunks+1", "200"])
    def test_series_peak_is_three_chunk_buffers(self, n_bar, edge):
        # The angles/sines, the cosines and one scratch buffer, reused by
        # every chunk; a fourth chunk array allows one ufunc iterator buffer.
        # Temporaries that outlive their chunk, or a fresh array per step,
        # break it.
        field_step = dynamics.FieldStep(hilbert.CoherentPrep(math.sqrt(n_bar)))
        rows = chunk_rows(field_step)
        length = {"one": 1, "chunk": rows, "chunk+1": rows + 1,
                  "2 chunks+1": 2 * rows + 1, "200": 200}[edge]
        times = np.linspace(1.0, 30.0, length)
        field_step._series(0.3, times)  # warm-up
        tracemalloc.start()
        try:
            field_step._series(0.3, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        chunk = min(rows, length) * field_step.root_k.nbytes
        assert peak <= 4 * chunk + 3 * times.nbytes + 4096


def rotation_rows(field_step: dynamics.FieldStep) -> int:
    """Rows ``R`` of a table block on the rotated path: ``5 R - 2`` rows fit three chunks."""
    return (3 * dynamics._CHUNK_ELEMENTS // field_step.root_k.size + 2) // 5


def block_rows(field_step: dynamics.FieldStep, times: np.ndarray) -> int:
    """Rows of a block when ``_series`` takes ``times`` on the rotated path, else 0."""
    fine = field_step._fine_tables(np.asarray(times))
    return 0 if fine is None else len(fine[0]) + 1


def rotation_bound(field_step: dynamics.FieldStep, t_max: float) -> float:
    """Largest change the rotated path may make to a state at times up to ``t_max``.

    A turned cos or sin is off the direct one by at most
    ``d = 28 u theta + 10 u``, ``theta = g sqrt(n_top + 1) t_max`` and
    ``u = 2^-53`` (``FieldStep._series``). ``rho11`` sums squares of them
    under weights that sum to at most 1, and the envelope sums products of
    two under ``a_n a_{n+1}``, which also sum to at most 1, so each moves by
    at most ``2 d``; each path's ``K``-term dot products round by at most
    ``K u`` more, and the carrier and the mixing by a few ``u``.
    """
    u = 2.0 ** -53
    turn = 28 * u * field_step.g * float(field_step.root_k[-1]) * t_max + 10 * u
    return 2 * turn + 2 * (field_step.root_k.size + 4) * u


class TestRotatedGrid:
    """A long uniform grid takes its cos and sin from rotation tables, within a bound."""

    @pytest.mark.parametrize("n_bar", [2.0, 36.0, 1e3])
    def test_states_stay_within_the_bound_of_the_one_point_series(self, n_bar):
        field_step = dynamics.FieldStep(hilbert.CoherentPrep(math.sqrt(n_bar) * np.exp(0.7j)))
        rows = rotation_rows(field_step)
        assert rows == {2.0: 49, 36.0: 12, 1e3: 2}[n_bar]
        threshold = dynamics._PAYBACK_BLOCKS * rows
        half = Timescales(n_bar).half_revival
        bound = rotation_bound(field_step, half)
        for length in (threshold - 1, threshold, threshold + 1, 2 * threshold + 3):
            grid = np.linspace(0.0, half, length + 1)  # t = 0 echoes the atom
            rotated = length >= threshold
            assert block_rows(field_step, grid[1:]) == (rows if rotated else 0)
            for p_e in (0.0, 0.27):
                atom = hilbert.AtomDensity(p_e)
                states = field_step.evolve_grid(atom, grid)
                for j, (t, state) in enumerate(zip(grid[1:], states[1:])):
                    alone = field_step.evolve(atom, float(t))
                    if not rotated or j % rows == 0:  # an anchor row is direct
                        assert (state.rho11, state.rho01) == (alone.rho11, alone.rho01)
                    else:
                        assert abs(state.rho11 - alone.rho11) <= bound
                        assert abs(state.rho01 - alone.rho01) <= bound

    def test_a_time_off_the_progression_takes_the_direct_path(self):
        field_step = dynamics.FieldStep(hilbert.CoherentPrep(6.0 * np.exp(0.4j)))
        atom = hilbert.AtomDensity(0.3)
        grid = np.linspace(0.0, Timescales(36.0).half_revival, 200)
        ulp = math.ulp(grid[-1])
        near, nudged = grid.copy(), grid.copy()
        near[117] += ulp
        nudged[117] += 16 * ulp
        assert block_rows(field_step, grid[1:]) == rotation_rows(field_step)
        assert block_rows(field_step, near[1:]) == rotation_rows(field_step)
        assert block_rows(field_step, nudged[1:]) == 0
        for t, state in zip(nudged, field_step.evolve_grid(atom, nudged)):
            alone = field_step.evolve(atom, float(t))
            assert (state.rho11, state.rho01) == (alone.rho11, alone.rho01)
            if t:
                assert (state.rho11, state.rho01) == pointwise_series(field_step, 0.3, float(t))

    def test_the_sweep_grid_takes_one_row_of_cos_and_sin_per_block(self, monkeypatch):
        # The 200-point n_bar = 36 sweep evaluates 199 times: 17 blocks of
        # 12 and 11 fine rows, against 199 rows of 99 on the direct path and
        # 199 rows of 130 over the untrimmed window.
        field_step = dynamics.FieldStep(hilbert.CoherentPrep(6.0))
        k, rows = field_step.root_k.size, rotation_rows(field_step)
        assert (k, rows) == (99, 12)
        angles = record_rabi_angles(monkeypatch)
        grid = np.linspace(0.0, Timescales(36.0).half_revival, 200)
        field_step.evolve_grid(hilbert.AtomDensity(0.3), grid)
        for name, calls in angles.items():
            assert sum(x.size for x in calls) == (-(-199 // rows) + rows - 1) * k == 2772, name


class TestTrimmedWindow:
    """The field step sums over the photon numbers whose weight can reach a sum."""

    @pytest.mark.parametrize("n_bar", [0.0, 1e-3, 2.0, 36.0, 1e3, 1e4])
    def test_each_dropped_end_holds_at_most_half_an_ulp(self, n_bar):
        prep = hilbert.CoherentPrep(math.sqrt(n_bar))
        field_step = dynamics.FieldStep(prep)
        n_first, n_top = trimmed_window(field_step)
        n = np.arange(prep.n_lo, prep.n_max + 1)
        w = hilbert.poisson_weight(n, prep.n_bar)
        invisible = 2.0 ** -54
        assert np.array_equal(field_step.weights, w[(n >= n_first) & (n <= n_top)])
        assert np.array_equal(field_step.root_k, np.sqrt(np.arange(n_first, n_top + 2.0)))
        assert math.fsum(w[n < n_first]) <= invisible
        assert math.fsum(w[n > n_top]) <= invisible

        def hidden(m: int) -> bool:  # m and the mass beyond it, away from the mean
            i = m - prep.n_lo
            beyond = w[i + 1:] if m > n_bar else w[:i]
            return w[i] <= invisible and math.fsum(beyond) <= invisible

        # Each end is the first photon number that qualifies, scanning out from the mean.
        assert n_top == prep.n_max or hidden(n_top)
        assert not any(hidden(m) for m in range(math.floor(n_bar) + 1, n_top))
        assert n_first == prep.n_lo or hidden(n_first)
        assert not any(hidden(m) for m in range(n_first + 1, math.ceil(n_bar)))

    def test_the_vacuum_keeps_its_exact_rabi_oscillation(self):
        # The window is n <= 1; the top level is the partnerless one (C = 1),
        # so the excited population is the kernel's own cos^2(g t), exactly.
        params = PhysicalParams(g=0.8)
        field_step = dynamics.FieldStep(hilbert.CoherentPrep(0.0), params)
        assert trimmed_window(field_step) == (0, 1)
        for t in (0.3, 1.0, 4.0, 123.4):
            rho = field_step.evolve(hilbert.AtomDensity(1.0), t)
            assert rho.rho01 == 0j
            assert rho.rho11 == np.cos((params.g * t) * field_step.root_k)[1] ** 2
            assert rho.rho11 == pytest.approx(math.cos(params.g * t) ** 2, rel=0, abs=2.3e-16)


class TestKernelProperties:
    """Physicality of the kernel over bright fields and several revivals."""

    @settings(max_examples=40, deadline=None)
    @given(
        # Uniform draws land almost all above 1e4; the log-uniform half
        # reaches the dim fields the trace comparison covers.
        n_bar=st.one_of(st.floats(0.0, 1e5, exclude_min=True, allow_subnormal=False),
                        st.floats(-3.0, 5.0).map(lambda u: 10.0 ** u)),
        frac=st.floats(0.0, 3.0),
        p_e=st.floats(0.0, 1.0),
        phi=st.floats(0.0, 2.0 * math.pi),
    )
    def test_state_is_physical_and_matches_trace(self, n_bar, frac, p_e, phi):
        alpha = math.sqrt(n_bar) * complex(math.cos(phi), math.sin(phi))
        t = frac * Timescales(n_bar).tau_revival
        rho = kernel_state(p_e, alpha, t)
        assert rho.rho00 + rho.rho11 == 1.0
        assert rho.determinant >= -1e-12
        assert abs(rho.rho01) <= 0.5
        config = protocol.ProtocolConfig(
            prep=hilbert.CoherentPrep(alpha), interaction_time=t, initial_pe=p_e)
        assert protocol.run_protocol(config).reading.pe <= 0.5
        if n_bar <= 1e4:
            ground = traced_state(LEVEL_G, alpha, t)
            excited = traced_state(LEVEL_E, alpha, t)
            assert abs(rho.rho11 - ((1.0 - p_e) * ground.rho11 + p_e * excited.rho11)) <= 1e-9
            assert abs(rho.rho01 - ((1.0 - p_e) * ground.rho01 + p_e * excited.rho01)) <= 1e-9
