"""Independent reference for the benchmark's correctness checks.

Evaluates the reduced atomic state of ``|e>|alpha>`` and ``|g>|alpha>``
under the resonant Jaynes-Cummings Hamiltonian from its closed photon-number
sums, using nothing from ``cavitytherm``. The Hamiltonian and phase
conventions match the package: ``|g,n>`` has energy ``omega n``, ``|e,n>``
has ``omega (n+1)``, the pair ``{|e,n>, |g,n+1>}`` mixes at angle
``g sqrt(n+1) t``, and ``rho01 = <g|rho|e>``.

With Poisson weights ``p_n`` and ``c_n c*_{n+1} = p_n conj(alpha) / sqrt(n+1)``:

    |e> start:  rho11 = sum p_n cos^2(g sqrt(n+1) t)
                rho01 = -i e^{i omega t} conj(alpha)
                        sum p_n / sqrt(n+1) sin(g sqrt(n+1) t) cos(g sqrt(n+2) t)
    |g> start:  rho11 = sum p_n sin^2(g sqrt(n) t)
                rho01 = +i e^{i omega t} conj(alpha)
                        sum p_n / sqrt(n+1) cos(g sqrt(n) t) sin(g sqrt(n+1) t)

The sums run over ``n_bar +/- 14 sqrt(n_bar)``, where the Poisson mass left
out is below 1e-40; the weights come from ``math.lgamma``. A diagonal atom
with excited population ``p`` mixes the two, and the protocol reading is the
smaller eigenvalue ``1/2 - sqrt((rho11 - 1/2)^2 + |rho01|^2)``, which the
phase-locked unitary pulse cannot change.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

WINDOW_SIGMAS = 14.0


@lru_cache(maxsize=8)
def poisson_window(n_bar: float) -> tuple[np.ndarray, np.ndarray]:
    """Photon numbers within ``n_bar +/- 14 sqrt(n_bar)`` and their weights."""
    half = WINDOW_SIGMAS * math.sqrt(n_bar)
    lo = max(0, math.floor(n_bar - half))
    hi = math.ceil(n_bar + half)
    log_n_bar = math.log(n_bar)
    n = np.arange(lo, hi + 1, dtype=float)
    p = np.array([math.exp(k * log_n_bar - n_bar - math.lgamma(k + 1.0))
                  for k in range(lo, hi + 1)])
    return n, p


def level_state(t: float, alpha: complex, level: str,
                g: float = 1.0, omega: float = 1.0) -> tuple[float, complex]:
    """``(rho11, rho01)`` at time ``t`` for the atom started in ``level`` ('e' or 'g')."""
    alpha = complex(alpha)
    n, p = poisson_window(abs(alpha) ** 2)
    carrier = complex(math.cos(omega * t), math.sin(omega * t)) * alpha.conjugate()
    root1 = np.sqrt(n + 1.0)
    if level == "e":
        rho11 = float(np.sum(p * np.cos(g * root1 * t) ** 2))
        series = np.sum(p / root1 * np.sin(g * root1 * t)
                        * np.cos(g * np.sqrt(n + 2.0) * t))
        return rho11, -1j * carrier * float(series)
    if level == "g":
        root0 = np.sqrt(n)
        rho11 = float(np.sum(p * np.sin(g * root0 * t) ** 2))
        series = np.sum(p / root1 * np.cos(g * root0 * t) * np.sin(g * root1 * t))
        return rho11, 1j * carrier * float(series)
    raise ValueError(f"level must be 'e' or 'g', got {level!r}")


def thermal_pe(beta: float, delta_e: float = 1.0) -> float:
    """Excited population of a Gibbs atom at inverse temperature ``beta``."""
    return 1.0 / (1.0 + math.exp(beta * delta_e))


def mixed_state(t: float, alpha: complex, pe: float,
                g: float = 1.0, omega: float = 1.0) -> tuple[float, complex]:
    """``(rho11, rho01)`` for a diagonal atom with excited population ``pe``."""
    e11, e01 = level_state(t, alpha, "e", g, omega)
    g11, g01 = level_state(t, alpha, "g", g, omega)
    return pe * e11 + (1.0 - pe) * g11, pe * e01 + (1.0 - pe) * g01


def reading(rho11: float, rho01: complex) -> float:
    """Smallest eigenvalue of the 2x2 state: the protocol's ``reading.pe``."""
    return 0.5 - math.hypot(rho11 - 0.5, abs(rho01))


def inverse_temperature(pe: float, delta_e: float = 1.0) -> float:
    """``beta = ln((1 - pe) / pe) / delta_e``; ``inf`` at ``pe = 0``."""
    if pe <= 0.0:
        return math.inf
    return math.log((1.0 - pe) / pe) / delta_e
