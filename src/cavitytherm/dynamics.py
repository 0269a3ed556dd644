"""Exact resonant atom-field dynamics on the truncated joint space.

The resonant Hamiltonian (natural units, ``omega = delta_e``) is

    H = (delta_e / 2) sigma_z + omega (a'a + 1/2) + g (sigma+ a + sigma- a')

which is block diagonal in the excitation number: ``|g,0>`` is stationary
with energy 0, and each pair ``{|e,n>, |g,n+1>}`` shares the bare energy
``omega (n+1)`` and mixes at the vacuum-shifted Rabi angle
``theta = g sqrt(n+1) t``. :func:`propagate` applies the closed-form block
propagator; :func:`hamiltonian_matrix` builds the dense ``H`` whose matrix
exponential serves as the independent oracle for it.

All phases are lab-frame (no interaction picture), so the reduced coherence
``rho01 = <g|rho|e>`` rotates as ``exp(+i omega t)`` on top of the slow
envelope dynamics.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .hilbert import (
    LEVEL_E,
    LEVEL_G,
    AtomDensity,
    JointPureState,
    PhysicalParams,
    coherent_amplitudes,
    default_cutoff,
    mix_densities,
    partial_trace_field,
    poisson_weight,
    product_state,
)


def rabi_splitting(n, g: float):
    """Dressed-level splitting ``2 g sqrt(n)`` at photon number ``n``.

    This is the frequency of the population oscillation fed by the ``n``-th
    Fock component; scalar or array ``n`` accepted.
    """
    return 2.0 * g * np.sqrt(n)


def hamiltonian_matrix(params: PhysicalParams, n_max: int) -> np.ndarray:
    """Dense joint Hamiltonian on the truncated space (test/reference use).

    The atomic and field zero-point offsets are folded together so the
    stationary state ``|g,0>`` sits at energy exactly 0: diagonal entries are
    ``omega n`` for ``|g,n>`` and ``omega (n+1)`` for ``|e,n>``.
    """
    dim = 2 * (n_max + 1)
    h = np.zeros((dim, dim), dtype=np.complex128)
    omega, g = params.omega, params.g
    for n in range(n_max + 1):
        h[2 * n + LEVEL_G, 2 * n + LEVEL_G] = omega * n
        h[2 * n + LEVEL_E, 2 * n + LEVEL_E] = omega * (n + 1)
    for n in range(n_max):
        i, j = 2 * n + LEVEL_E, 2 * (n + 1) + LEVEL_G
        h[i, j] = g * math.sqrt(n + 1)
        h[j, i] = g * math.sqrt(n + 1)
    return h


def dressed_pair(n: int, params: PhysicalParams, n_max: int
                 ) -> tuple[tuple[float, JointPureState], tuple[float, JointPureState]]:
    """Energy eigenpair ``(|+, n>, |-, n>)`` of the n-excitation block.

    For ``n >= 1`` the eigenstates are ``(|g,n> +/- |e,n-1>) / sqrt(2)`` with
    energies ``omega n +/- g sqrt(n)``; their splitting is
    :func:`rabi_splitting`.
    """
    if not 1 <= n <= n_max:
        raise ValueError(f"dressed pairs exist for 1 <= n <= n_max, got n={n}")
    dim = 2 * (n_max + 1)
    plus = np.zeros(dim, dtype=np.complex128)
    minus = np.zeros(dim, dtype=np.complex128)
    r = 1.0 / math.sqrt(2.0)
    plus[2 * n + LEVEL_G] = r
    plus[2 * (n - 1) + LEVEL_E] = r
    minus[2 * n + LEVEL_G] = r
    minus[2 * (n - 1) + LEVEL_E] = -r
    e_plus = params.omega * n + params.g * math.sqrt(n)
    e_minus = params.omega * n - params.g * math.sqrt(n)
    return (
        (e_plus, JointPureState(plus, params)),
        (e_minus, JointPureState(minus, params)),
    )


def propagate(state: JointPureState, t: float) -> JointPureState:
    """Evolve a joint pure state for time ``t`` with the closed-form blocks.

    Exact (to rounding) for the truncated Hamiltonian: each block picks up
    the common phase ``exp(-i omega (n+1) t)`` and rotates by the block Rabi
    angle; ``|g,0>`` is untouched and the top ``|e, n_max>`` amplitude, whose
    partner lies outside the truncation, evolves by its bare phase alone.
    """
    params = state.params
    omega, g = params.omega, params.g
    amps = state.amplitudes
    n_max = state.n_max
    out = np.empty_like(amps)

    out[2 * 0 + LEVEL_G] = amps[2 * 0 + LEVEL_G]

    n = np.arange(n_max)
    e_idx = 2 * n + LEVEL_E
    g_idx = 2 * (n + 1) + LEVEL_G
    theta = g * np.sqrt(n + 1.0) * t
    phase = np.exp(-1j * omega * (n + 1.0) * t)
    c, s = np.cos(theta), np.sin(theta)
    a_e, a_g = amps[e_idx], amps[g_idx]
    out[e_idx] = phase * (c * a_e - 1j * s * a_g)
    out[g_idx] = phase * (-1j * s * a_e + c * a_g)

    out[2 * n_max + LEVEL_E] = (
        np.exp(-1j * omega * (n_max + 1.0) * t) * amps[2 * n_max + LEVEL_E]
    )
    return JointPureState(out, params)


def apply_hamiltonian(amps: np.ndarray, params: PhysicalParams) -> np.ndarray:
    """Matrix-free ``H @ amps`` on the truncated space (vectorized)."""
    omega, g = params.omega, params.g
    n_max = amps.size // 2 - 1
    n = np.arange(n_max + 1)
    a_g = amps[LEVEL_G::2]
    a_e = amps[LEVEL_E::2]
    out = np.empty_like(amps)
    out_g = omega * n * a_g
    out_g[1:] += g * np.sqrt(n[1:]) * a_e[:-1]
    out_e = omega * (n + 1.0) * a_e
    out_e[:-1] += g * np.sqrt(n[1:]) * a_g[1:]
    out[LEVEL_G::2] = out_g
    out[LEVEL_E::2] = out_e
    return out


def energy_expectation(state: JointPureState) -> float:
    """Expectation value of the joint Hamiltonian (real by Hermiticity)."""
    amps = state.amplitudes
    return float(np.real(np.vdot(amps, apply_hamiltonian(amps, state.params))))


def evolve_atom_field_mixture(atom: AtomDensity, alpha: complex, t: float,
                              params: PhysicalParams | None = None,
                              n_max: int | None = None) -> AtomDensity:
    """Reduced atomic state after evolving ``atom (x) |alpha><alpha|`` for ``t``.

    The atomic density is eigendecomposed into (at most two) pure states,
    each joint pure state is propagated with the closed-form blocks, and the
    reduced results are remixed with the eigenvalue weights.
    """
    params = params or PhysicalParams()
    alpha = complex(alpha)
    if t == 0.0:
        # Zero evolution is the identity. Echo the input bit-exactly: the
        # decompose/propagate/remix path below leaves ~1e-16 dust in rho11,
        # enough to turn a maximally mixed atom's infinite temperature into
        # a finite ~1e15 reading.
        return atom
    if n_max is None:
        n_max = default_cutoff(abs(alpha) ** 2)
    field = coherent_amplitudes(alpha, n_max)

    evals, evecs = np.linalg.eigh(atom.as_matrix())
    weights, reduced = [], []
    for k in range(2):
        w = float(evals[k])
        if w < 1e-15:
            continue
        v = evecs[:, k]  # components (g, e)
        amps = np.zeros(2 * (n_max + 1), dtype=np.complex128)
        amps[LEVEL_G::2] = v[0] * field
        amps[LEVEL_E::2] = v[1] * field
        evolved = propagate(JointPureState(amps, params), t)
        weights.append(w)
        reduced.append(partial_trace_field(evolved))
    weights = np.asarray(weights)
    return mix_densities(weights / weights.sum(), reduced)


def _default_rabi(g: float) -> Callable[[np.ndarray], np.ndarray]:
    return lambda n: rabi_splitting(n, g)


def rho01_exact_summand(n, t: float, alpha: complex,
                        params: PhysicalParams | None = None,
                        initial_level: int = LEVEL_E,
                        rabi_frequency: Callable[[np.ndarray], np.ndarray] | None = None):
    """Photon-number-resolved term of the exact reduced-coherence series.

    For an initial ``|level> (x) |alpha>`` product state the coherence
    ``rho01(t) = <g|rho|e>`` is an exact sum over photon numbers of terms
    built from sums and differences of adjacent dressed splittings. With
    ``w(n)`` the Poisson weight and ``W_n`` the splitting at photon number
    ``n``, the term at ``n >= 1`` is

        initial e:  -i w(n) (sqrt(n) / (2 alpha)) exp(+i omega t)
                    * ( sin((W_{n+1} + W_n) t / 2) - sin((W_{n+1} - W_n) t / 2) )
        initial g:  +i w(n) (sqrt(n) / (2 alpha)) exp(+i omega t)
                    * ( sin((W_n + W_{n-1}) t / 2) + sin((W_n - W_{n-1}) t / 2) )

    and the ``n = 0`` term vanishes. ``rabi_frequency`` overrides the
    splitting function ``W`` (default :func:`rabi_splitting` with the
    configured coupling); it exists so consistency checks can demonstrate
    that any other convention breaks the series-vs-propagator identity.

    Accepts scalar or array ``n``; returns a complex scalar or array.
    """
    params = params or PhysicalParams()
    alpha = complex(alpha)
    if initial_level not in (LEVEL_G, LEVEL_E):
        raise ValueError(f"initial_level must be 0 (g) or 1 (e), got {initial_level}")
    n_arr = np.asarray(n, dtype=float)
    if alpha == 0:
        # Vacuum limit: every term carries a Poisson weight that vanishes
        # for n >= 1 and a sqrt(n) factor that kills n = 0, so the series
        # is identically zero; avoid the 1/alpha division.
        out = np.zeros(n_arr.shape, dtype=np.complex128)
        return complex(out) if np.isscalar(n) else out
    rabi = rabi_frequency if rabi_frequency is not None else _default_rabi(params.g)
    n_bar = abs(alpha) ** 2
    w = poisson_weight(n_arr, n_bar)
    carrier = np.exp(1j * params.omega * t)
    prefactor = np.sqrt(n_arr) / (2.0 * alpha) * w * carrier
    omega_n = rabi(n_arr)
    if initial_level == LEVEL_E:
        omega_up = rabi(n_arr + 1.0)
        osc = np.sin((omega_up + omega_n) * t / 2.0) - np.sin((omega_up - omega_n) * t / 2.0)
        term = -1j * prefactor * osc
    else:
        omega_dn = rabi(np.maximum(n_arr - 1.0, 0.0))
        osc = np.sin((omega_n + omega_dn) * t / 2.0) + np.sin((omega_n - omega_dn) * t / 2.0)
        term = 1j * prefactor * osc
    term = np.where(n_arr >= 1, term, 0.0 + 0.0j)
    return complex(term) if np.isscalar(n) else term


def rho01_exact_sum(t: float, alpha: complex,
                    params: PhysicalParams | None = None,
                    initial_level: int = LEVEL_E,
                    n_max: int | None = None,
                    rabi_frequency: Callable[[np.ndarray], np.ndarray] | None = None) -> complex:
    """Exact reduced coherence as the full photon-number series.

    Sums :func:`rho01_exact_summand` over ``1 <= n <= n_max`` (default
    cutoff from the mean photon number). Matches the partial trace of the
    propagated joint state to well below 1e-10 with the default splitting
    convention.
    """
    alpha = complex(alpha)
    if n_max is None:
        n_max = default_cutoff(abs(alpha) ** 2)
    if n_max < 1:
        return 0j
    n = np.arange(1, n_max + 1)
    terms = rho01_exact_summand(n, t, alpha, params, initial_level, rabi_frequency)
    return complex(np.sum(terms))


def coherence_from_propagator(t: float, alpha: complex,
                              params: PhysicalParams | None = None,
                              initial_level: int = LEVEL_E,
                              n_max: int | None = None) -> complex:
    """Reduced coherence via propagate + partial trace (series cross-check)."""
    params = params or PhysicalParams()
    alpha = complex(alpha)
    if n_max is None:
        n_max = default_cutoff(abs(alpha) ** 2)
    state = product_state(initial_level, coherent_amplitudes(alpha, n_max), params)
    return partial_trace_field(propagate(state, t)).rho01
