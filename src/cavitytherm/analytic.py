"""Closed-form approximations for the collapse-phase protocol.

Everything here is algebra on top of the exact dynamics: the collapse-era
population, the slow post-collapse coherence, the pulse-floor population,
the temperature map, and the reachable-temperature bounds built from them.
Each formula carries a validity window (post-collapse, pre-half-revival) exposed
through :class:`Timescales`; outside the window the functions still return
values (figures deliberately plot them through the collapse) and callers
attach flags instead of raising.

Temperatures are reported in units of ``delta_e`` (equivalently
``delta_e / k_B`` with Boltzmann's constant set to 1).

The module is the package's numpy-free base: it also holds the level
indices, :class:`PhysicalParams` and ``PULSE_MODES``, which the other
modules import from here, and its three array-valued closed forms import
numpy when called. So the floor and ceiling temperatures, and the CLI
commands that print only them, load no numpy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

LEVEL_G = 0
LEVEL_E = 1

# How the protocol's half pulse is realized (``protocol.ProtocolConfig``).
PULSE_MODES = ("explicit_unitary", "diagonalize")


@dataclass(frozen=True)
class PhysicalParams:
    """Physical constants of the resonant atom-field system.

    Parameters
    ----------
    delta_e : float
        Atomic level splitting. Doubles as the field frequency because the
        package only treats the resonant case.
    g : float
        Atom-field coupling strength, real and positive. A complex coupling
        is equivalent to a real one with its phase absorbed into the field
        phase, so only the magnitude is accepted here.
    """

    delta_e: float = 1.0
    g: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.delta_e < math.inf:
            raise ValueError(f"delta_e must be positive and finite, got {self.delta_e}")
        if not 0 < self.g < math.inf:
            raise ValueError(f"g must be positive and finite, got {self.g}")

    @property
    def omega(self) -> float:
        """Field frequency; equal to ``delta_e`` on resonance."""
        return self.delta_e


class ValidityWarning(UserWarning):
    """A closed-form expression was evaluated outside its validity window."""


@dataclass(frozen=True)
class Timescales:
    """Collapse and revival timescales of a coherent field with mean ``n_bar``.

    The Gaussian collapse envelope is ``exp(-t^2 / tau_collapse^2)`` with
    ``tau_collapse = sqrt(2) / g``; revivals recur with period
    ``tau_revival = 2 pi sqrt(n_bar) / g``. The protocol's working window is
    ``[3 tau_collapse, tau_revival / 2]``: the envelope is below ``e^-9``
    after three collapse times, and the first revival's influence grows past
    the half-revival point.
    """

    n_bar: float
    g: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.n_bar < math.inf:
            raise ValueError(f"n_bar must be positive, got {self.n_bar}")
        if not 0 < self.g < math.inf:
            raise ValueError(f"g must be positive, got {self.g}")

    @property
    def tau_collapse(self) -> float:
        return math.sqrt(2.0) / self.g

    @property
    def tau_revival(self) -> float:
        return 2.0 * math.pi * math.sqrt(self.n_bar) / self.g

    @property
    def collapse_complete(self) -> float:
        """Lower edge of the validity window, ``3 tau_collapse``."""
        return 3.0 * self.tau_collapse

    @property
    def half_revival(self) -> float:
        """Upper edge of the validity window, ``tau_revival / 2``."""
        return 0.5 * self.tau_revival


def rho11_analytic(t, n_bar: float, params: PhysicalParams | None = None,
                   initial_level: int = LEVEL_E):
    """Collapse-era excited population for an initial product state.

    A half-half mixture plus a damped oscillation at the mean-weighted
    splitting of whichever exchange ladder the atom actually drives:
    ``1/2 + (1/2) cos(2 g sqrt(n_bar + 1) t) exp(-t^2/tau_c^2)`` for initial
    ``|e>`` (which exchanges with ``n -> n+1``, mean splitting
    ``2 g sqrt(n_bar + 1)``) and ``1/2 - (1/2) cos(2 g sqrt(n_bar) t)
    exp(-t^2/tau_c^2)`` for initial ``|g>`` (which exchanges with
    ``n -> n-1``, mean splitting ``2 g sqrt(n_bar)``). Crossing the carriers
    over dephases visibly from the exact numerics within three collapse
    times (deviation 0.06 instead of 0.01 at ``n_bar = 36``).

    Scalar or array ``t``; valid through the collapse, ``t`` up to a few
    ``tau_collapse``.
    """
    import numpy as np

    params = params or PhysicalParams()
    if initial_level not in (LEVEL_G, LEVEL_E):
        raise ValueError(f"initial_level must be 0 (g) or 1 (e), got {initial_level}")
    if not 0 <= n_bar < math.inf:
        raise ValueError(f"n_bar must be non-negative, got {n_bar}")
    t = np.asarray(t, dtype=float)
    if initial_level == LEVEL_E:
        sign, ladder_mean = 1.0, n_bar + 1.0
    else:
        sign, ladder_mean = -1.0, n_bar
    carrier = np.cos(2.0 * params.g * math.sqrt(ladder_mean) * t)
    out = 0.5 + sign * 0.5 * carrier * np.exp(-0.5 * (params.g * t) ** 2)
    return float(out) if out.ndim == 0 else out


def rho01_analytic(t, n_bar: float, params: PhysicalParams | None = None,
                   phi: float = 0.0):
    """Post-collapse reduced coherence ``<g|rho|e>`` (initial-state independent).

    The slow coherence that emerges once the fast oscillations have
    collapsed:

        rho01(t) = (i/2) exp(i (omega t - phi)) sin(g t / (2 sqrt(n_bar)))

    with ``phi`` the coherent field's phase. Its magnitude grows from 0 to
    the maximal 1/2 at the half-revival time, and its phase advances
    linearly at the carrier rate ``omega``. Valid on
    ``[3 tau_collapse, tau_revival / 2]``; scalar or array ``t``.
    """
    import numpy as np

    params = params or PhysicalParams()
    Timescales(n_bar)  # rejects an n_bar that is not positive and finite
    t = np.asarray(t, dtype=float)
    out = (0.5j * np.exp(1j * (params.omega * t - phi))
           * np.sin(params.g * t / (2.0 * math.sqrt(n_bar))))
    return complex(out) if out.ndim == 0 else out


def pe_after_pulse_analytic(t, n_bar: float,
                            params: PhysicalParams | None = None):
    """Closed-form excited population after an ideally phased half pulse.

    Equal to ``1/2 - |rho01_analytic(t)|`` identically (the smaller
    eigenvalue of a density matrix with diagonal 1/2), which inside the
    validity window reduces to ``(1/2)(1 - sin(g t / (2 sqrt(n_bar))))``.
    Emits :class:`ValidityWarning` outside ``[0, tau_revival / 2]``.
    """
    import numpy as np

    params = params or PhysicalParams()
    scales = Timescales(n_bar, params.g)
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0) or np.any(t_arr > scales.half_revival):
        warnings.warn(
            "pe_after_pulse_analytic evaluated outside [0, tau_revival/2]; "
            "the closed form is unreliable there",
            ValidityWarning,
            stacklevel=2,
        )
    out = 0.5 - np.abs(rho01_analytic(t_arr, n_bar, params))
    return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True, slots=True, init=False)
class TemperatureReading:
    """A population readout converted to an effective temperature.

    ``temperature`` is in units of ``delta_e`` (equivalently
    ``delta_e / k_B``): 0 at ``pe = 0``, +inf at ``pe = 1/2``, and negative
    with ``inverted`` set for ``pe > 1/2``, where no non-negative
    temperature reproduces the populations.
    """

    pe: float
    temperature: float
    delta_e: float = 1.0

    # Each slot is set through its descriptor, bound once below: the frozen
    # dataclass __init__ would go through object.__setattr__ per field.
    def __init__(self, pe: float, temperature: float, delta_e: float = 1.0) -> None:
        _SET_PE(self, pe)
        _SET_TEMPERATURE(self, temperature)
        _SET_DELTA_E(self, delta_e)

    @property
    def inverted(self) -> bool:
        return self.pe > 0.5

    @property
    def beta(self) -> float:
        if self.temperature == 0.0:
            return math.inf
        return 1.0 / self.temperature


_SET_PE = TemperatureReading.pe.__set__
_SET_TEMPERATURE = TemperatureReading.temperature.__set__
_SET_DELTA_E = TemperatureReading.delta_e.__set__


def temperature_from_pe(pe: float, delta_e: float = 1.0) -> TemperatureReading:
    """Temperature whose Gibbs state has excited population ``pe``.

    ``T = delta_e / ln((1 - pe) / pe)``, packaged with the input population
    as a :class:`TemperatureReading`.
    """
    if not 0.0 <= pe <= 1.0:
        raise ValueError(f"pe must lie in [0, 1], got {pe}")
    if not 0 < delta_e < math.inf:
        raise ValueError(f"delta_e must be positive and finite, got {delta_e}")
    if pe == 0.0:
        temperature = 0.0
    elif pe == 0.5:
        temperature = math.inf
    elif pe == 1.0:
        temperature = -0.0
    else:
        temperature = delta_e / math.log((1.0 - pe) / pe)
    return TemperatureReading(pe, temperature, delta_e)


PE_HALF_REVIVAL_VARIANTS = ("paper", "leading_order")


def pe_half_revival(n_bar: float, variant: str = "paper") -> float:
    """Closed-form pulse-floor population at the half-revival time.

    The residual excited population left by an ideal pulse at
    ``t = tau_revival / 2``.

    ``variant='paper'`` (default, the quoted floor): the paper's estimate
    ``pi^2 / (32 n_bar)``. It is not the leading order of the exact floor:
    the exact pipeline value runs below it at every ``n_bar``, and its
    relative error tends to ``1 - (pi^2 + 4) / (2 pi^2) ~ 29.7%`` rather
    than to zero.

    ``variant='leading_order'``: the true ``1/n_bar`` term,
    ``(pi^2 + 4) / (64 n_bar) ~ 0.2167 / n_bar``, following
    Gea-Banacloche's half-revival analysis (PRL 65, 3385 (1990)). After the
    collapse the coherence is, up to the fast terms the collapse suppresses,

        |rho01| = (1/2) sum_n p_n sqrt(n / n_bar)
                  sin(g t (sqrt(n + 1) - sqrt(n)))

    with ``p_n`` Poisson. At ``g t = pi sqrt(n_bar)`` write ``x = n - n_bar``
    (``<x> = 0``, ``<x^2> = n_bar``). To second order in ``x / n_bar`` the
    sine is ``cos(pi x / (4 n_bar) + ...)``, averaging to
    ``1 - pi^2 / (32 n_bar)``, and the prefactor ``sqrt(1 + x / n_bar)``
    averages to ``1 - 1 / (8 n_bar)``. So
    ``|rho01| = (1/2)(1 - pi^2 / (32 n_bar) - 1 / (8 n_bar))`` and the
    pulse leaves ``pe = 1/2 - |rho01| = (pi^2 + 4) / (64 n_bar)``; its
    relative error against the exact floor shrinks like ``1 / n_bar``.
    """
    Timescales(n_bar)  # rejects an n_bar that is not positive and finite
    if variant == "paper":
        return math.pi ** 2 / (32.0 * n_bar)
    if variant == "leading_order":
        return (math.pi ** 2 + 4.0) / (64.0 * n_bar)
    raise ValueError(
        f"variant must be one of {PE_HALF_REVIVAL_VARIANTS}, got {variant!r}"
    )


def t_min(n_bar: float, delta_e: float = 1.0) -> TemperatureReading:
    """Lowest reachable temperature: the half-revival floor as a temperature.

    Monotone decreasing in ``n_bar``. Undefined below ``n_bar = pi^2 / 16``,
    where the floor ``pi^2 / (32 n_bar)`` passes 1/2, the most a protocol
    reading can be.
    """
    pe = pe_half_revival(n_bar)
    if pe > 0.5:
        raise ValueError(f"t_min undefined for n_bar={n_bar}: floor pe {pe} exceeds 1/2")
    return temperature_from_pe(pe, delta_e)


_LAMBERT_MAX_ITER = 100  # Halley steps before lambert_w0 gives up

# The Halley step's products overflow from x near 2.6e302 on (``w exp(w)``
# itself from 1.8e305 on), so above 1e300 the iteration runs on both sides
# of ``w exp(w) = x`` times exp(-700). Below it the shift is 0 and changes
# no bit.
_LAMBERT_SHIFT_ABOVE = 1e300
_LAMBERT_SHIFT = 700.0


def lambert_w0(x: float) -> float:
    """Principal branch of the Lambert W function for ``x >= 0``.

    Halley iteration seeded with ``log1p(x)``; converges in a handful of
    steps on the whole non-negative axis with residual
    ``|W exp(W) - x| <= 1e-12 max(1, x)``, and returns inf, its limit, at
    ``x = inf``. Raises ``ArithmeticError`` if the iteration has not
    converged after ``_LAMBERT_MAX_ITER`` steps (unreachable for ``x >= 0``).
    """
    x = float(x)
    if not x >= 0.0:
        raise ValueError(f"lambert_w0 requires x >= 0, got {x}")
    if x == 0.0 or x == math.inf:
        return x
    shift = _LAMBERT_SHIFT if x > _LAMBERT_SHIFT_ABOVE else 0.0
    x_shifted = x * math.exp(-shift)
    w = math.log1p(x)
    for _ in range(_LAMBERT_MAX_ITER):
        ew = math.exp(w - shift)
        f = w * ew - x_shifted
        denom = ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0)
        step = f / denom
        w -= step
        if abs(step) <= 1e-16 * (1.0 + abs(w)):
            break
    else:
        raise ArithmeticError(f"lambert_w0 did not converge for x={x}")
    return w


# Weight of the Gaussian transient against the emergent coherence in the
# collapse condition: the protocol may fire once the coherence exceeds the
# transient ten times over.
COLLAPSE_SAFETY_FACTOR = 10.0


@dataclass(frozen=True)
class CollapseTime:
    """Solution of the collapse-completion condition.

    ``root`` solves ``COLLAPSE_SAFETY_FACTOR * exp(-t^2/tau_c^2) =
    sin(g t / (2 sqrt(n_bar)))`` by bracketing and bisection;
    ``linearized`` is the small-angle closed form
    ``g t = sqrt(W(4 COLLAPSE_SAFETY_FACTOR^2 n_bar))``; ``residual`` is the
    defining-equation mismatch at ``root``.
    """

    root: float
    linearized: float
    residual: float


def collapse_condition_time(n_bar: float,
                            params: PhysicalParams | None = None) -> CollapseTime:
    """Earliest time the slow coherence dominates the collapse transient.

    Solves ``COLLAPSE_SAFETY_FACTOR * exp(-t^2/tau_c^2) =
    sin(g t / (2 sqrt(n_bar)))`` for the first crossing: before it the
    Gaussian transient (weighted by the safety factor) still exceeds the
    emergent coherence, after it the protocol may fire. Bisection runs to
    1e-12 relative width; the Lambert-W linearization is returned alongside
    for comparison.
    """
    params = params or PhysicalParams()
    g = params.g
    scales = Timescales(n_bar, g)  # rejects an n_bar that is not positive and finite

    def f(t: float) -> float:
        # exp(-28^2) is already 0; the clamp keeps the square from
        # overflowing at the window's end for n_bar near 1e308.
        return (COLLAPSE_SAFETY_FACTOR * math.exp(-(min(t / scales.tau_collapse, 28.0) ** 2))
                - math.sin(g * t / (2.0 * math.sqrt(n_bar))))

    lo, hi = 0.0, scales.half_revival
    if f(hi) > 0.0:
        raise ValueError(
            f"no bracket for the collapse condition in [0, {hi:.6g}] "
            f"(n_bar={n_bar}, COLLAPSE_SAFETY_FACTOR={COLLAPSE_SAFETY_FACTOR})"
        )
    while hi - lo > 1e-12 * max(hi, 1.0):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    linearized = math.sqrt(lambert_w0(4.0 * COLLAPSE_SAFETY_FACTOR ** 2 * n_bar)) / g
    return CollapseTime(root=root, linearized=linearized, residual=abs(f(root)))


T_MAX_VARIANTS = ("numeric", "closed_form")


def t_max(n_bar: float, delta_e: float = 1.0, variant: str = "numeric",
          g: float = 1.0) -> TemperatureReading:
    """Highest usable protocol temperature, reached at the collapse condition.

    ``variant='numeric'`` (reference): evaluate the pulse-floor population
    at the exact collapse-condition root and map it to a temperature.
    ``variant='closed_form'``: the historical closed form

        T = delta_e / ln( (4 sqrt(n_bar) + sqrt(W(400 n_bar)))
                        / (4 sqrt(n_bar) - sqrt(W(400 n_bar))) )

    kept verbatim for shape reproduction (the small-angle derivation gives a
    leading coefficient 2 rather than 4, so the variants differ by a roughly
    constant factor; the validation report records the ratio without judging
    it). Both variants are monotone increasing in ``n_bar``. Where the
    log's ratio rounds to 1 (from ``n_bar`` near 1e34 on) the closed form
    reads ``T = inf`` at ``pe = 1/2``, as the numeric variant does there; it
    is undefined once ``400 n_bar`` overflows.
    """
    params = PhysicalParams(delta_e=delta_e, g=g)
    if variant == "numeric":
        ct = collapse_condition_time(n_bar, params)
        sin_val = math.sin(g * ct.root / (2.0 * math.sqrt(n_bar)))
        pe = 0.5 * (1.0 - sin_val)
        return temperature_from_pe(pe, delta_e)
    if variant == "closed_form":
        Timescales(n_bar, g)  # rejects a non-finite or non-positive n_bar by name
        root_w = math.sqrt(lambert_w0(4.0 * COLLAPSE_SAFETY_FACTOR ** 2 * n_bar))
        four_root = 4.0 * math.sqrt(n_bar)
        if root_w >= four_root:
            raise ValueError(f"closed-form t_max undefined for n_bar={n_bar}")
        log_ratio = math.log((four_root + root_w) / (four_root - root_w))
        temperature = delta_e / log_ratio if log_ratio > 0.0 else math.inf
        pe = 0.5 * (1.0 - root_w / four_root)
        return TemperatureReading(pe=pe, temperature=temperature, delta_e=delta_e)
    raise ValueError(
        f"variant must be one of {T_MAX_VARIANTS}, got {variant!r}"
    )

