"""State spaces for a two-level atom coupled to a single truncated field mode.

Conventions used across the package (natural units, hbar = k_B = 1):

* The atom levels are ``g`` (index 0) and ``e`` (index 1); on resonance the
  field frequency equals the atomic gap, ``omega = delta_e``.
* Joint pure states live on a Fock-truncated tensor product with amplitude
  layout ``index = 2 * n + level`` for photon number ``n``.
* The atomic coherence is stored as ``rho01 = <g|rho|e>``, so the Bloch
  components are ``x = 2 Re rho01``, ``y = 2 Im rho01``, ``z = 2 rho11 - 1``.
* Truncated coherent-state amplitude vectors are never renormalized; the
  missing tail mass is tracked explicitly. They start at ``n = 0``, but the
  head that underflows to exact zeros is set to 0 unevaluated, up to a
  closed-form start from Poisson's lower-tail bound
  (:func:`coherent_amplitudes`). :class:`CoherentPrep` is the one
  place a Fock window ``[n_lo, n_max]`` is validated: both the head below
  ``n_lo`` and the tail above ``n_max`` are held to ``DEFAULT_TAIL_TOLERANCE``.
* Poisson weights and the mass of any photon-number range
  (:func:`coherent_mass`, which gives both the head and the tail) come from
  the log-space weights of :func:`_log_poisson_weight` (Loader, 2000), so
  the module needs numpy only.
* Phases ``exp(i x k)`` over a run of integers ``k`` (the coherent
  amplitudes' ``exp(i n arg(alpha))``, the propagator's block phases) come
  from :func:`_unit_phases`: tables in steps of 64 anchored at ``k = 0``,
  so a phase does not depend on where its run starts.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .analytic import LEVEL_E, LEVEL_G, PhysicalParams, _check_n_bar

DEFAULT_TAIL_TOLERANCE = 1e-12

_POSITIVITY_SLACK = 1e-12


class TruncationError(ValueError):
    """Raised when a Fock window leaves more head or tail mass than tolerated."""


def default_cutoff(n_bar: float) -> int:
    """Default Fock cutoff for a coherent field of mean photon number ``n_bar``.

    Sized so the neglected Poisson tail is far below ``1e-12`` for any
    ``n_bar``: roughly twelve standard deviations past the mean, plus a
    constant floor that covers small ``n_bar``. A bound less than 1e-6 above
    an integer rounds down to it, so rounding of ``|alpha|^2`` below 1e-9
    (its last bit depends on the field phase) cannot add a Fock level; the
    twelve-sigma margin makes the dropped fraction of a level immaterial.
    """
    _check_n_bar(n_bar)
    return math.ceil(n_bar + 12.0 * math.sqrt(n_bar) + 20.0 - 1e-6)


_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

# Stirling remainder log(m!) - (m + 1/2) log m + m - log(2 pi)/2 at
# m = 1..15 (entry 0 is unused), where its asymptotic series does not yet
# reach double precision.
_STIRLING_TABLE = np.array([0.0] + [
    math.lgamma(k + 1.0) - (k + 0.5) * math.log(k) + k - _HALF_LOG_2PI
    for k in range(1, 16)
])


def _log_poisson_weight(n: np.ndarray, n_bar: float) -> np.ndarray:
    """``log w(n)`` for ``n_bar > 0`` without cancellation between large terms.

    ``n log n_bar - n_bar - log n!`` subtracts numbers of size ``n_bar``, so
    its rounding error grows with ``n_bar`` (up to 4e-11 at ``n_bar = 1e4``,
    enough to push a truncated coherent state's norm past 1). As in Loader's
    Poisson density (2000), ``log w(m)`` is split into ``m (log1p(d) - d)``
    with ``d = (n_bar - m) / m``, which is small where the weight is, minus
    the Stirling remainder of ``m!`` and ``log(2 pi m) / 2``. It is taken at
    ``m = n + 1``, which is never 0, and stepped back with
    ``log w(n) = log w(m) + log(m / n_bar)``. Where ``n_bar < m / 2``,
    ``log1p(d)`` is overwritten with ``log(n_bar / m)``: ``n_bar - m``
    keeps only the leading digits of a small ``n_bar`` (none below
    ``1e-16``). The series remainder is overwritten with the table where
    ``m <= 15``. Each overwrite touches only its own photon numbers, so the
    full range pays for one log and one series.
    """
    m = np.atleast_1d(n) + 1.0  # indexable, for the overwrites below
    d = (n_bar - m) / m
    log_ratio = np.log1p(np.maximum(d, -0.5))
    low = d < -0.5
    log_ratio[low] = np.log(n_bar / m[low])
    r2 = 1.0 / (m * m)
    remainder = (1 / 12 - r2 * (1 / 360 - r2 * (1 / 1260 - r2 * (1 / 1680 - r2 / 1188)))) / m
    small = m <= 15
    remainder[small] = _STIRLING_TABLE[m[small].astype(np.intp)]
    log_w = (m * (log_ratio - d) - remainder + 0.5 * np.log(m)
             - (_HALF_LOG_2PI + math.log(n_bar)))
    return log_w.reshape(np.shape(n))


def poisson_weight(n, n_bar: float):
    """Poisson weight ``w(n) = exp(-n_bar) n_bar**n / n!`` in log space.

    Accepts scalar or array ``n`` (non-negative integers; a NaN, infinite,
    fractional or negative one raises ``ValueError``); returns a float or
    float array.
    """
    _check_n_bar(n_bar)
    n_arr = np.asarray(n, dtype=float)
    whole = np.isfinite(n_arr) & (n_arr == np.floor(n_arr))
    if not whole.all():
        raise ValueError(f"photon number n must be a finite integer, got {n_arr[~whole][0]}")
    if (n_arr < 0).any():
        raise ValueError(f"photon number n must be non-negative, got {n_arr.min()}")
    if n_bar == 0.0:
        out = np.where(n_arr == 0, 1.0, 0.0)
        return float(out) if np.isscalar(n) else out
    out = np.exp(_log_poisson_weight(n_arr, n_bar))
    return float(out) if np.isscalar(n) else out


def coherent_mass(n_bar: float, lo: int, hi: float = math.inf) -> float:
    """Poisson probability mass of ``lo <= n <= hi`` for mean ``n_bar``.

    Sums the weights of :func:`_log_poisson_weight` over the range, clipped
    at ``n = 0`` and to within ``10 sqrt(n_bar) + 40`` of the mean or of the
    range's near edge, which leaves out less than ``1e-20`` of the mass. An
    empty range has mass 0. The mass above ``n_max`` is the norm deficit of
    a coherent amplitude vector truncated there.
    """
    _check_n_bar(n_bar)
    if n_bar == 0.0:
        return float(lo <= 0 <= hi)
    width = math.ceil(10.0 * math.sqrt(n_bar) + 40.0)
    start = max(lo, 0, math.floor(min(hi, n_bar)) - width)
    stop = min(hi, math.ceil(max(lo, n_bar)) + width)
    n = np.arange(start, stop + 1, dtype=float)
    return math.fsum(np.exp(_log_poisson_weight(n, n_bar)))


def _required_cutoff(n_bar: float) -> int:
    """Smallest cutoff whose coherent tail mass is within the tolerance.

    Bisects below :func:`default_cutoff`, whose tail Bernstein's inequality
    puts under ``exp(-30)`` for every ``n_bar``.
    """
    import bisect  # only the TruncationError message needs it

    return bisect.bisect_left(
        range(default_cutoff(n_bar)), True,
        key=lambda m: coherent_mass(n_bar, m + 1) <= DEFAULT_TAIL_TOLERANCE)


# ``exp(x)`` rounds to 0 below x = -745.13, so an amplitude ``exp(log w / 2)``
# is exactly 0 once ``log w < -1490.27``; this floor keeps 20 nats to spare.
_LOG_WEIGHT_UNDERFLOW = -1510.0


def _unit_phases(x: float, k_lo: int, k_hi: int) -> np.ndarray:
    """``exp(i x k)`` for ``k_lo <= k < k_hi``, one complex ``exp`` per 64 values of ``k``.

    Writes ``k = 64 q + r`` and takes the outer product of a coarse table
    ``exp(i x 64 q)`` and a fine one ``exp(i x r)`` for ``r = 0..63``. Both
    are anchored at ``k = 0`` rather than at ``k_lo``, so a phase does not
    depend on where its range starts: the slice ``[a:]`` of the range from
    0 is bit-equal to the range from ``a``. Each phase is exact to the
    rounding of its two arguments, as ``exp(1j * x * k)`` is to that of
    ``x * k``; ``x = 0`` gives exact ones.
    """
    q_lo, q_hi = k_lo // 64, -(-k_hi // 64)
    coarse = np.exp(1j * x * (64.0 * np.arange(q_lo, q_hi)))
    fine = np.exp(1j * x * np.arange(64.0))
    start = k_lo - 64 * q_lo
    return np.multiply.outer(coarse, fine).ravel()[start:start + k_hi - k_lo]


def coherent_amplitudes(alpha: complex, n_max: int) -> np.ndarray:
    """Fock amplitudes ``c_n = exp(-|alpha|^2/2) alpha^n / sqrt(n!)`` up to ``n_max``.

    ``|c_n|^2`` is :func:`poisson_weight`, evaluated in log space so large
    ``n_bar`` can neither overflow a factorial nor overshoot unit norm; the
    truncated vector is returned as-is (not renormalized), and each call
    returns a new array. The vector always starts at ``n = 0``. Poisson's
    lower tail bounds ``w_n <= exp(-(n_bar - n)^2 / (2 n_bar))`` for
    ``n <= n_bar``, so every amplitude below ``n_bar - sqrt(-2
    _LOG_WEIGHT_UNDERFLOW n_bar)`` (4 505 of the 11 221 at ``n_bar = 1e4``;
    none for ``n_bar <= 3020``) underflows to an exact zero and is set to 0
    without evaluating it. From there up each amplitude is the real
    ``sqrt(w_n)`` times the phase ``exp(i n arg(alpha))`` of
    :func:`_unit_phases`.
    """
    alpha = complex(alpha)
    n_bar = abs(alpha) ** 2
    amps = np.zeros(n_max + 1, dtype=np.complex128)
    if n_bar == 0.0:
        amps[0] = 1.0
        return amps
    head = math.ceil(n_bar - math.sqrt(-2.0 * _LOG_WEIGHT_UNDERFLOW * n_bar))
    start = min(max(head, 0), n_max + 1)
    n = np.arange(start, n_max + 1, dtype=float)
    np.multiply(np.exp(0.5 * _log_poisson_weight(n, n_bar)),
                _unit_phases(cmath.phase(alpha), start, n_max + 1), out=amps[start:])
    return amps


@dataclass(frozen=True)
class CoherentPrep:
    """A coherent field preparation with a validated Fock window ``[n_lo, n_max]``.

    Parameters
    ----------
    alpha : complex
        Coherent amplitude; ``n_bar = |alpha|^2`` and ``phi = arg(alpha)``.
    n_max : int, optional
        Fock cutoff, the window's upper edge; any integer type, else
        ``ValueError``. Defaults to
        :func:`default_cutoff` for ``n_bar``. A cutoff that leaves more than
        ``DEFAULT_TAIL_TOLERANCE`` of tail mass raises
        :class:`TruncationError` naming the smallest one that does not.

    The lower edge :attr:`n_lo` is derived, never set: the mirror of
    :func:`default_cutoff` below the mean, so a bright field's window spans
    ``O(sqrt(n_bar))`` photon numbers (2 441 of the 11 221 up to ``n_max``
    at ``n_bar = 1e4``) and a dim one starts at 0. Its head mass is held to
    the same tolerance as the tail and raises :class:`TruncationError` too.
    Both masses are :func:`coherent_mass` of the range outside the window.
    """

    alpha: complex
    n_max: int = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", complex(self.alpha))
        if not cmath.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha}")
        _check_n_bar(abs(self.alpha) * abs(self.alpha))  # inf, where ** 2 would raise
        if self.n_max is None:
            object.__setattr__(self, "n_max", default_cutoff(self.n_bar))
        try:  # numpy integers pass; 150.0 would reach numpy as a bad array size
            object.__setattr__(self, "n_max", operator.index(self.n_max))
        except TypeError:
            raise ValueError(f"n_max must be an integer, got {self.n_max!r}") from None
        if self.n_max < 0:
            raise ValueError(f"n_max must be non-negative, got {self.n_max}")
        tail = self.tail_mass()
        if tail > DEFAULT_TAIL_TOLERANCE:
            raise TruncationError(
                f"insufficient truncation: n_max={self.n_max} leaves tail mass "
                f"{tail:.3e} > {DEFAULT_TAIL_TOLERANCE:.3e} for n_bar={self.n_bar}; "
                f"need n_max >= {_required_cutoff(self.n_bar)}"
            )
        head = self.head_mass()
        if head > DEFAULT_TAIL_TOLERANCE:
            raise TruncationError(
                f"insufficient window: n_lo={self.n_lo} leaves head mass "
                f"{head:.3e} > {DEFAULT_TAIL_TOLERANCE:.3e} for n_bar={self.n_bar}"
            )

    @property
    def n_bar(self) -> float:
        return abs(self.alpha) ** 2

    @property
    def n_lo(self) -> int:
        """Lower window edge, ``max(0, floor(n_bar - 12 sqrt(n_bar) - 20))``.

        As in :func:`default_cutoff`, a bound less than 1e-6 below an
        integer rounds up to it, so the field phase cannot move the edge.
        """
        n_bar = self.n_bar
        return max(0, math.floor(n_bar - 12.0 * math.sqrt(n_bar) - 20.0 + 1e-6))

    @property
    def phi(self) -> float:
        """``arg(alpha)``, the one rounding the kernel and the pulse axis share."""
        return cmath.phase(self.alpha)

    def head_mass(self) -> float:
        return coherent_mass(self.n_bar, 0, self.n_lo - 1)

    def tail_mass(self) -> float:
        return coherent_mass(self.n_bar, self.n_max + 1)


@dataclass(frozen=True)
class JointPureState:
    """Pure state of atom plus truncated field mode.

    The amplitude vector has length ``2 * (n_max + 1)`` with layout
    ``index = 2 * n + level`` (level 0 = g, 1 = e) and is stored read-only.
    The constructor stores a copy, so later changes to the caller's array
    cannot reach the state.
    """

    amplitudes: np.ndarray
    params: PhysicalParams = field(default_factory=PhysicalParams)

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=np.complex128, copy=True)
        object.__setattr__(self, "amplitudes", _frozen_amplitudes(amps))

    @classmethod
    def _adopt(cls, amps: np.ndarray, params: PhysicalParams) -> JointPureState:
        """The state of ``amps``, a new complex128 vector no caller keeps, uncopied."""
        state = object.__new__(cls)
        object.__setattr__(state, "amplitudes", _frozen_amplitudes(amps))
        object.__setattr__(state, "params", params)
        return state

    @property
    def n_max(self) -> int:
        return self.amplitudes.size // 2 - 1

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def amplitude(self, level: int, n: int) -> complex:
        return complex(self.amplitudes[2 * n + level])

    def level_amplitudes(self, level: int) -> np.ndarray:
        """All amplitudes for one atomic level, indexed by photon number."""
        return self.amplitudes[level::2]


def _frozen_amplitudes(amps: np.ndarray) -> np.ndarray:
    """Check a joint amplitude vector's shape and make it read-only."""
    if amps.ndim != 1 or amps.size % 2 != 0 or amps.size == 0:
        raise ValueError(
            f"amplitudes must be a 1-d array of even length, got shape {amps.shape}"
        )
    amps.setflags(write=False)
    return amps


def product_state(level: int, field_amps: np.ndarray,
                  params: PhysicalParams | None = None) -> JointPureState:
    """Joint state ``|level> (x) |field>`` from a field amplitude vector."""
    if level not in (LEVEL_G, LEVEL_E):
        raise ValueError(f"level must be 0 (g) or 1 (e), got {level}")
    field_amps = np.asarray(field_amps, dtype=np.complex128)
    amps = np.zeros(2 * field_amps.size, dtype=np.complex128)
    amps[level::2] = field_amps
    return JointPureState._adopt(amps, params or PhysicalParams())


def coherent_joint_state(level: int, alpha: complex,
                         params: PhysicalParams | None = None,
                         n_max: int | None = None) -> JointPureState:
    """Atom level tensored with a truncation-validated coherent field state."""
    prep = CoherentPrep(alpha, n_max)
    return product_state(level, coherent_amplitudes(prep.alpha, prep.n_max), params)


def density_eigenvalues(rho11: float, rho01: complex) -> tuple[float, float]:
    """Eigenvalue pair ``(smallest, largest)`` of the state ``(rho11, rho01)``."""
    radius = math.hypot(rho11 - 0.5, abs(rho01))
    return 0.5 - radius, 0.5 + radius


@dataclass(frozen=True, slots=True, init=False)
class AtomDensity:
    """Reduced 2x2 atomic density matrix.

    Stored as the excited population ``rho11 = <e|rho|e>`` and the coherence
    ``rho01 = <g|rho|e>``; the trace is exactly 1 and Hermiticity is implied
    by the storage. The one constructor converts the two arguments with
    ``float()`` and ``complex()``, rejects them unless ``rho11`` lies in
    ``[0, 1]`` and then the determinant ``(1 - rho11) rho11 - |rho01|^2`` is
    non-negative, each to within ``_POSITIVITY_SLACK`` (NaN fails both), and
    sets each slot through its descriptor, bound once at import.
    A Python float and complex are stored as the very objects given, so the
    kernel's and the pulse's states keep every bit and cost no conversion.
    """

    rho11: float
    rho01: complex = 0j

    def __init__(self, rho11: float, rho01: complex = 0j) -> None:
        rho11, rho01 = float(rho11), complex(rho01)
        if not -_POSITIVITY_SLACK <= rho11 <= 1.0 + _POSITIVITY_SLACK:
            raise ValueError(f"rho11 must lie in [0, 1], got {rho11}")
        determinant = (1.0 - rho11) * rho11 - abs(rho01) ** 2
        if not determinant >= -_POSITIVITY_SLACK:
            raise ValueError(
                f"density matrix is not positive semi-definite: det = {determinant:.3e}")
        _SET_RHO11(self, rho11)
        _SET_RHO01(self, rho01)

    @property
    def rho00(self) -> float:
        return 1.0 - self.rho11

    @property
    def determinant(self) -> float:
        return self.rho00 * self.rho11 - abs(self.rho01) ** 2

    def eigenvalues(self) -> tuple[float, float]:
        """Eigenvalue pair ``(smallest, largest)``; they sum to 1."""
        return density_eigenvalues(self.rho11, self.rho01)

    def as_matrix(self) -> np.ndarray:
        """2x2 matrix in (g, e) row/column ordering."""
        return np.array(
            [[self.rho00, self.rho01], [np.conj(self.rho01), self.rho11]],
            dtype=np.complex128,
        )


_SET_RHO11 = AtomDensity.rho11.__set__
_SET_RHO01 = AtomDensity.rho01.__set__


def partial_trace_field(state: JointPureState) -> AtomDensity:
    """Reduced atomic density of a joint pure state (field traced out).

    ``rho11 = <psi_e|psi_e>`` and ``rho01 = <psi_e|psi_g>`` are inner
    products of the two level vectors, taken as ``vdot`` over strided views
    of the amplitudes with no temporary array; the norm deficit
    ``1 - <psi_g|psi_g> - rho11`` goes to :func:`check_norm_deficit`.
    """
    psi_g = state.level_amplitudes(LEVEL_G)
    psi_e = state.level_amplitudes(LEVEL_E)
    rho11 = np.vdot(psi_e, psi_e).real
    rho01 = np.vdot(psi_e, psi_g)
    check_norm_deficit(1.0 - np.vdot(psi_g, psi_g).real - rho11)
    return AtomDensity(rho11, rho01)


def check_norm_deficit(deficit: float) -> None:
    """Reject a joint-state norm deficit beyond truncation tail size.

    A truncated state can be short of unit norm by the coherent tail mass;
    reduced states fold that deficit into the ground population so the
    trace is exactly 1. A larger deficit, or an excess, is an error.
    """
    if not -1e-9 <= deficit <= 1e-6:  # negated so that NaN fails too
        raise ValueError(
            f"joint state norm deviates from 1 by {deficit:.3e}; "
            "refusing to normalize silently"
        )


def thermal_atom(beta: float, delta_e: float = 1.0) -> AtomDensity:
    """Thermal (Gibbs) atomic state at inverse temperature ``beta``.

    ``beta`` may be ``inf`` (ground state). Negative ``beta`` encodes an
    inverted population and is accepted; ``-inf`` is the excited state.
    """
    if math.isnan(beta):
        raise ValueError("beta must not be NaN")
    if not 0 < delta_e < math.inf:
        raise ValueError(f"delta_e must be positive and finite, got {delta_e}")
    x = beta * delta_e
    if x > 700.0:
        pe = 0.0
    elif x < -700.0:
        pe = 1.0
    else:
        pe = 1.0 / (1.0 + math.exp(x))
    return AtomDensity(pe, 0j)


def bloch_components(rho11: float, rho01: complex) -> tuple[float, float, float]:
    """Bloch components ``(2 Re rho01, 2 Im rho01, 2 rho11 - 1)`` of ``(rho11, rho01)``."""
    return 2.0 * rho01.real, 2.0 * rho01.imag, 2.0 * rho11 - 1.0


def bloch_vector(rho: AtomDensity) -> np.ndarray:
    """Bloch components of ``rho`` (:func:`bloch_components`) as an array."""
    return np.array(bloch_components(rho.rho11, rho.rho01))


def atom_density_from_bloch(vec) -> AtomDensity:
    """Inverse of :func:`bloch_vector`."""
    x, y, z = (float(c) for c in vec)
    return AtomDensity(rho11=(1.0 + z) / 2.0, rho01=(x + 1j * y) / 2.0)


def trace_distance(a: AtomDensity, b: AtomDensity) -> float:
    """Trace distance between two atomic density matrices.

    For unit-trace 2x2 matrices the difference has eigenvalues ``+/- r`` with
    ``r = sqrt((d rho11)^2 + |d rho01|^2)``, so the trace distance is ``r``.
    """
    return math.hypot(a.rho11 - b.rho11, abs(a.rho01 - b.rho01))
