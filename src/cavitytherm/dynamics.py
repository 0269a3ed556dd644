"""Exact resonant atom-field dynamics on the truncated joint space.

The resonant Hamiltonian (natural units, ``omega = delta_e``) is

    H = (delta_e / 2) sigma_z + omega (a'a + 1/2) + g (sigma+ a + sigma- a')

which is block diagonal in the excitation number: ``|g,0>`` is stationary
with energy 0, and each pair ``{|e,n>, |g,n+1>}`` shares the bare energy
``omega (n+1)`` and mixes at the vacuum-shifted Rabi angle
``theta = g sqrt(n+1) t``.

Three routes to the same physics, each held to the next:

* :func:`evolve_atom_field_mixture` is the reduced-state kernel the pipeline
  runs: the closed photon-number series for a diagonal atom and a coherent
  field, evaluated over real cos/sin vectors. Its field half,
  :class:`FieldStep`, is built once per field, over the photon numbers
  whose weight can reach a sum. Its one grid entry,
  :meth:`FieldStep.evolve_grid`, evaluates a whole grid of times in chunks
  of at most ``_CHUNK_ELEMENTS`` angles, in three buffers reused by every
  chunk, and checks each state;
  :meth:`FieldStep.evolve` is its one-point case. Each time's dot products
  (one ``np.vecdot`` per chunk) and carrier are its own, so a state has
  the same bits on any grid that takes the direct path. A long uniform
  grid (every ``np.linspace`` sweep) takes the rotated path: one row of
  ``np.cos``/``np.sin`` per block of times, the other rows turned from it
  by fine tables, within a stated bound of the direct bits.
* :func:`coherence_from_propagator` is its cross-check: :func:`propagate`
  applies the closed-form block propagator to the joint pure state and
  :func:`~cavitytherm.hilbert.partial_trace_field` traces the field out.
  :func:`propagate` rotates in chunks of at most ``_CHUNK_ELEMENTS``
  blocks, so its rotation's temporaries do not grow with the window.
* :func:`hamiltonian_matrix` builds the dense ``H`` whose matrix
  exponential is the independent oracle for :func:`propagate`.

All phases are lab-frame (no interaction picture), so the reduced coherence
``rho01 = <g|rho|e>`` rotates as ``exp(+i omega t)`` on top of the slow
envelope dynamics.
"""

from __future__ import annotations

import cmath
import math
from typing import Sequence

import numpy as np

from .hilbert import (
    LEVEL_E,
    LEVEL_G,
    AtomDensity,
    CoherentPrep,
    JointPureState,
    PhysicalParams,
    _unit_phases,
    check_norm_deficit,
    coherent_amplitudes,
    default_cutoff,
    partial_trace_field,
    poisson_weight,
    product_state,
)


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


# Elements of one chunk, in both routes: blocks of :func:`propagate`, and
# (times x photon numbers) of the grid step's three chunk buffers, allocated
# once per call and reused by every chunk; a window wider than this is
# evaluated one time per chunk.
_CHUNK_ELEMENTS = 2048

# A weight at most half an ulp of 1, with at most as much mass beyond it,
# cannot move a sum of at most 1: the grid step's window ends there.
_INVISIBLE = 2.0 ** -54

# How far, in ulps of its largest time, a grid may stray from the
# arithmetic progression through its ends and still take the rotated path
# (``np.linspace`` strays by at most 2).
_PROGRESSION_ULPS = 4

# The rotated path pays for its tables only with at least this many blocks
# of times (measured against the direct path at n_bar from 2 to 1e3).
_PAYBACK_BLOCKS = 8


def propagate(state: JointPureState, t: float) -> JointPureState:
    """Evolve a joint pure state for time ``t`` with the closed-form blocks.

    Exact (to rounding) for the truncated Hamiltonian: each block picks up
    the common phase ``exp(-i omega (n+1) t)`` and rotates by the block Rabi
    angle; ``|g,0>`` is untouched and the top ``|e, n_max>`` amplitude, whose
    partner lies outside the truncation, evolves by its bare phase alone.

    Block ``n`` is the adjacent pair ``amps[2n+1], amps[2n+2]``. A block
    of two exact zeros rotates to two exact zeros, so the blocks before the
    first nonzero amplitude's are not rotated and their output is left 0; a
    bright coherent field is 0 below about ``50 sqrt(n_bar)`` under its mean
    (45% of the vector at ``n_bar = 1e4``). The head is scanned only when
    its first block is all zero, by ``argmax`` over a ``!= 0`` mask of the
    real view, without an index array. The output comes from ``np.zeros``
    (``calloc``), not ``np.zeros_like``, which writes every page; nothing
    writes the skipped head.

    The rotated blocks go in chunks of at most ``_CHUNK_ELEMENTS``, on
    strided views of the amplitudes, ``|e,n>`` at odd and ``|g,n+1>`` at
    even indices, so the rotation's temporaries do not grow with the
    window; the head scan's mask, one byte per float, still does. The
    phases come from the 64-step tables of
    :func:`~cavitytherm.hilbert._unit_phases`, one complex ``exp`` per 64
    blocks. The tables are anchored at ``n + 1 = 0``, so a block's phase is
    the same bits whichever blocks are skipped and wherever a chunk starts.
    ``t`` must be finite; a negative ``t`` evolves backwards.
    """
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    params = state.params
    omega, g = params.omega, params.g
    amps = state.amplitudes
    n_max = state.n_max
    out = np.zeros(amps.shape, dtype=np.complex128)

    out[2 * 0 + LEVEL_G] = amps[2 * 0 + LEVEL_G]

    lo = 0  # the blocks [lo, n_max) are rotated
    if n_max and not (amps[1] or amps[2]):
        flat = amps.view(np.float64)  # real, imag of each amplitude in turn
        lo = max((int((flat != 0).argmax()) // 2 - 1) // 2, 0)
    for n in range(lo, n_max, _CHUNK_ELEMENTS):
        end = min(n + _CHUNK_ELEMENTS, n_max)  # this chunk's blocks [n, end)
        phase = _unit_phases(-omega * t, n + 1, end + 1)
        theta = g * np.sqrt(np.arange(n + 1.0, end + 1.0)) * t
        c, s = np.cos(theta), np.sin(theta)
        e_n = slice(2 * n + LEVEL_E, 2 * end, 2)
        g_next = slice(2 * n + 2 + LEVEL_G, 2 * end + 1, 2)
        a_e, a_g = amps[e_n], amps[g_next]
        out[e_n] = phase * (c * a_e - 1j * s * a_g)
        out[g_next] = phase * (-1j * s * a_e + c * a_g)

    out[2 * n_max + LEVEL_E] = (
        np.exp(-1j * omega * (n_max + 1.0) * t) * amps[2 * n_max + LEVEL_E]
    )
    return JointPureState._adopt(out, params)


def _visible_end(w: np.ndarray, start: int) -> int:
    """First index from ``start`` on where ``w`` and the mass after it are both invisible.

    The last index when there is none, or when ``start`` is past the end.
    """
    after = np.add.accumulate(w[:start:-1])[::-1]  # after[i - start] = sum(w[i + 1:])
    hidden = (w[start:-1] <= _INVISIBLE) & (after <= _INVISIBLE)
    return start + int(hidden.argmax()) if hidden.any() else w.size - 1


def check_interaction_time(t: float) -> None:
    """Reject an interaction time that is negative, infinite or NaN."""
    if not 0 <= t < math.inf:
        raise ValueError(f"interaction_time must be non-negative and finite, got {t}")


class FieldStep:
    """The field half of :func:`evolve_atom_field_mixture`, built once per field.

    Holds what the series needs of the validated window ``[n_lo, n_max]``
    of ``prep``, trimmed to the photon numbers the series can see: the
    window ends at the first ``n`` past the mean whose weight and the mass
    above it are both at most ``2^-54`` (half an ulp of 1), and starts at
    the mirror of that rule below the mean, so each dropped end holds at
    most ``2^-54`` (at ``n_bar = 36``, 99 of the 130 ``sqrt(k)``). Over the
    trimmed window ``[n_first, n_top]`` it holds the Poisson weights
    ``w_n``, the products ``a_n a_{n+1}`` of their square roots, the table
    ``sqrt(k)`` for ``n_first <= k <= n_top + 1`` and ``arg(alpha)``. The
    top level stays the partnerless one (``C = 1``), so a vacuum field,
    trimmed to ``n <= 1``, still gives exactly ``cos^2(g t)``. The weight
    sum of the whole prep window is norm-checked against overshoot. Every
    table starts at ``n_first``, so the series indexes them as it would
    from 0; one field step serves every time and initial atom of a sweep
    or figure.

    :meth:`evolve_grid` runs the series over a grid of times and checks
    each state; :meth:`evolve` is its one-point case. The grid step
    evaluates the elementwise work (the Rabi angles, their cos and sin, the
    squares and the envelope products) for a chunk of times at once, in
    three buffers of at most ``_CHUNK_ELEMENTS`` elements (never less than
    one time) that are allocated once per call and reused by every chunk,
    so a sweep's traced peak is its own result. Its three reductions are
    one ``np.vecdot`` each over the chunk's rows. For float64 that is the
    unit-stride BLAS ``ddot`` that ``np.dot`` runs on a row alone, and each
    time keeps its own scalar carrier. So on the direct path (one time, a
    short grid or one that is not uniform) a state has the same bits
    whatever the grid and its chunk. A long uniform grid takes its cos and
    sin from rotation tables instead (:meth:`_series`), within a bound of
    the direct ones.
    """

    __slots__ = ("g", "omega", "phase", "weights", "pairs", "root_k")

    def __init__(self, prep: CoherentPrep, params: PhysicalParams | None = None) -> None:
        params = params or PhysicalParams()
        n_lo, n_bar = prep.n_lo, prep.n_bar
        w = poisson_weight(np.arange(n_lo, prep.n_max + 1), n_bar)
        check_norm_deficit(1.0 - float(np.sum(w)))
        # Scan up from the first n past the mean, and down from the last n below it.
        top = _visible_end(w, max(0, math.floor(n_bar) + 1 - n_lo))
        bottom = w.size - 1 - _visible_end(w[::-1], max(0, w.size - math.ceil(n_bar) + n_lo))
        w = w[bottom:top + 1]
        a = np.sqrt(w)
        self.g, self.omega = params.g, params.omega
        self.phase = prep.phi
        self.weights = w
        self.pairs = a[:-1] * a[1:]
        self.root_k = np.sqrt(np.arange(n_lo + bottom, n_lo + top + 2.0))

    def evolve(self, atom: AtomDensity, t: float) -> AtomDensity:
        """Reduced state of the diagonal ``atom`` after time ``t`` in this field."""
        (rho,) = self.evolve_grid(atom, (t,))
        if isinstance(rho, ValueError):
            raise rho
        return rho

    def evolve_grid(self, atom: AtomDensity,
                    times: Sequence[float]) -> list[AtomDensity | ValueError]:
        """Reduced states of the diagonal ``atom`` after each of ``times``.

        Entry ``i`` is the state after ``times[i]``, its ``rho11`` a Python
        float and its ``rho01`` a complex, or the ``ValueError`` that
        rejects the time or its state: a negative, infinite or NaN time,
        one whose largest Rabi angle ``g sqrt(n_top + 1) t`` over the
        trimmed window or whose carrier phase ``omega t`` overflows, or one
        whose state the :class:`~cavitytherm.hilbert.AtomDensity`
        constructor rejects. A rejected time is left out of the series, so
        it can move the others only by choosing their path (see
        :meth:`_series`). A zero time is the identity and its entry is
        ``atom`` itself: the series leaves ~1e-16 dust in rho11, enough to
        turn a maximally mixed atom's infinite temperature into a finite
        ~1e15 reading. A non-diagonal ``atom`` raises for the whole grid.
        """
        return self._evolve_floats(atom, [float(t) for t in times])

    def _evolve_floats(self, atom: AtomDensity,
                       times: list[float]) -> list[AtomDensity | ValueError]:
        """:meth:`evolve_grid` on a list of Python floats, which it does not copy."""
        if atom.rho01 != 0:
            raise ValueError(
                f"the atom must be diagonal (thermal), got rho01 = {atom.rho01}")
        top = float(self.root_k[-1])
        states: list[AtomDensity | ValueError] = [atom] * len(times)
        run = []  # the positions the series evaluates
        for i, t in enumerate(times):
            try:
                check_interaction_time(t)
                if not math.isfinite((self.g * t) * top):
                    raise ValueError("interaction_time overflows the Rabi angle "
                                     f"g sqrt(n_top + 1) t, got {t}")
                if not math.isfinite(self.omega * t):
                    raise ValueError("interaction_time overflows the carrier phase "
                                     f"omega t, got {t}")
            except ValueError as exc:
                states[i] = exc
                continue
            if t != 0.0:
                run.append(i)
        pops, envelope = self._series(atom.rho11, np.array([times[i] for i in run]))
        for i, pop, env in zip(run, pops.tolist(), envelope.tolist()):
            carrier = cmath.exp(1j * (self.omega * times[i] - self.phase))
            coherence = 1j * carrier * env
            try:
                states[i] = AtomDensity(pop, coherence)
            except ValueError as exc:
                states[i] = exc
        return states

    def _fine_tables(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
        """The rotated path's fine tables for ``times``, or None for the direct path.

        Rows ``b = 1 .. R - 1`` of ``cos`` and ``sin`` of ``g sqrt(k) b dt``,
        ``dt`` the step of the arithmetic progression through the ends of
        ``times``. A block's three chunk buffers and the two tables,
        ``5 R - 2`` rows of ``K``, fit in three buffers of
        ``_CHUNK_ELEMENTS``, so a window wider than 768 has no block of two
        and keeps the direct path. A block evaluates one row of cos and sin
        for ``R`` times, and the path needs at least ``_PAYBACK_BLOCKS``
        blocks of times. The times must lie within ``_PROGRESSION_ULPS``
        ulps of the progression; only the times are checked.
        """
        block = (3 * _CHUNK_ELEMENTS // self.root_k.size + 2) // 5
        n = times.size
        if block < 2 or n < _PAYBACK_BLOCKS * block:
            return None
        first, last = float(times[0]), float(times[-1])
        step = (last - first) / (n - 1)
        drift = np.arange(n, dtype=float)
        drift *= step
        drift += first
        drift -= times
        if np.abs(drift, out=drift).max() > _PROGRESSION_ULPS * math.ulp(max(abs(first), abs(last))):
            return None
        fine_s = np.multiply.outer(self.g * (step * np.arange(1.0, block)), self.root_k)
        return np.cos(fine_s), np.sin(fine_s, out=fine_s)

    def _series(self, p: float, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``rho11`` and the real coherence envelope after each of ``times``.

        The times must be positive, with finite Rabi angles. A chunk of
        times is one C-contiguous ``(rows, K)`` block, ``K = root_k.size``,
        so every elementwise step is one contiguous pass. Three such
        buffers are allocated once per call and every chunk is evaluated in
        them with ``out=`` ufuncs: the angles, then their sines written
        over them; the cosines; and a scratch buffer.

        The cosines and sines come by one of two paths, chosen from the
        times alone (:meth:`_fine_tables`):

        * direct: a chunk is ``_CHUNK_ELEMENTS // K`` times (at least one).
          The cosine buffer first holds the rows of ``sqrt(k)``, so that the
          angles' multiply has no broadcast operand (numpy would copy one
          into a chunk-size iterator buffer), then ``np.cos`` and ``np.sin``
          of every angle. A state has the bits of the one-point series.
        * rotated, on a uniform grid of step ``dt``: a chunk is one block of
          ``R`` times. Its first row, the anchor, is direct. Row ``b`` is
          the anchor turned by the fine tables ``F_c, F_s = cos, sin(g
          sqrt(k) b dt)``, built once per call: ``C = F_c C_a - F_s S_a``
          and ``S = F_s C_a + F_c S_a``, two multiplies and one add each.
          A turned cos or sin differs from the direct one by the rounding
          of the angles, at most about ``28 u g sqrt(k) t`` (``u = 2^-53``,
          a drift of ``_PROGRESSION_ULPS`` ulps of the time included), plus
          ``10 u`` for the turn and the cos and sin themselves.

        The scratch buffer then takes ``C^2``, then ``S^2``, then
        ``p C_{n+2}`` before ``(1 - p) C`` is formed over the cosines. Each
        elementwise step is the same IEEE operation on the same operands as
        with a fresh array per step, so no bit depends on the buffers. The
        envelope's last two columns reach into the next row and are never
        read. Each reduction is one ``np.vecdot`` over row views of the
        chunk; the populations are weighted by ``p`` and ``1 - p`` once,
        after the last chunk. The views a chunk reads are made once for the
        full chunk and once more for a shorter last one, not per chunk.
        """
        w, pairs, root_k = self.weights, self.pairs, self.root_k
        rho11, pop_g, envelope = np.empty(times.size), np.empty(times.size), np.empty(times.size)
        g_t = self.g * times
        fine = self._fine_tables(times)
        if fine:
            fine_c, fine_s = fine
            rows = len(fine_c) + 1  # a block
        else:
            rows = max(1, min(times.size, _CHUNK_ELEMENTS // root_k.size))
        buffers = [np.empty((rows, root_k.size)) for _ in range(3)]

        def views(n: int) -> tuple:
            """The first ``n`` rows of the buffers and every view of them a chunk reads."""
            s, c, x = (b[:n] for b in buffers)
            c_flat, s_flat, x_flat = c.reshape(-1), s.reshape(-1), x.reshape(-1)
            turn = (s[0], c[0], s[1:], c[1:], x[1:], fine_s[:n - 1], fine_c[:n - 1]) if fine else ()
            return (s, c, x, turn, x[:, 1:], x[:, :-1], x_flat[:-2], c_flat[2:],
                    c_flat[:-2], s_flat[1:-1], c[:, :-2])

        full = views(rows)  # every chunk but a shorter last one
        for lo in range(0, times.size, rows):
            hi = lo + rows
            s, c, x, turn, x_e, x_g, later, c_later, mix, s_mix, c_mix = (
                full if hi <= times.size else views(times.size - lo))
            if fine:
                s_a, c_a, s_t, c_t, x_t, f_s, f_c = turn
                np.multiply(g_t[lo], root_k, out=s_a)  # the anchor's angles
                np.cos(s_a, out=c_a)
                np.sin(s_a, out=s_a)
                np.multiply(f_c, c_a, out=c_t)
                np.multiply(f_s, s_a, out=x_t)
                c_t -= x_t
                np.multiply(f_s, c_a, out=s_t)
                np.multiply(f_c, s_a, out=x_t)
                s_t += x_t
            else:
                np.copyto(c, root_k)
                np.copyto(s, g_t[lo:hi, None])
                np.multiply(s, c, out=s)  # the angles
                np.cos(s, out=c)
                np.sin(s, out=s)
            c[:, -1] = 1.0
            np.square(c, out=x)
            rho11[lo:hi] = np.vecdot(x_e, w)
            np.square(s, out=x)
            pop_g[lo:hi] = np.vecdot(x_g, w)
            np.multiply(p, c_later, out=later)  # p C_{n+2}
            np.multiply(1.0 - p, c, out=c)  # the cosines are not read again
            mix -= later
            mix *= s_mix
            envelope[lo:hi] = np.vecdot(c_mix, pairs)
        rho11 *= p
        pop_g *= 1.0 - p
        rho11 += pop_g
        return rho11, envelope


def evolve_atom_field_mixture(atom: AtomDensity, alpha: complex, t: float,
                              params: PhysicalParams | None = None,
                              n_max: int | None = None) -> AtomDensity:
    """Reduced state of a diagonal atom after time ``t`` with a coherent field.

    This is the package's reduced-state kernel. For
    ``atom = p |e><e| + (1 - p) |g><g|`` and ``|alpha> = sum c_n |n>`` with
    Poisson weights ``w_n = |c_n|^2``, ``a_n = sqrt(w_n)`` and
    ``phi = arg(alpha)``, propagating each block ``{|e,n>, |g,n+1>}`` and
    tracing out the field gives, with ``C_k, S_k = cos, sin(g sqrt(k) t)``,

        rho11 = p sum w_n C_{n+1}^2 + (1 - p) sum w_n S_n^2
        rho01 = i exp(i (omega t - phi))
                * sum a_n a_{n+1} ((1 - p) C_n S_{n+1} - p S_{n+1} C_{n+2})

    over the window ``n_lo <= n <= n_max`` of the prep, whose head and tail
    are each at most ``1e-12``. The top ``|e, n_max>`` amplitude has no
    partner inside the truncation and keeps its bare phase, so
    ``C_{n_max+1} = 1``. The lab-frame phases of adjacent blocks differ by
    ``omega t``, so one carrier replaces a complex exponential per photon
    number. :func:`coherence_from_propagator` (propagate and partial trace)
    is the cross-check of this series. The norm deficit of the truncated
    field is folded into the ground population, within the bounds of
    :func:`~cavitytherm.hilbert.check_norm_deficit`.

    One call is a :class:`~cavitytherm.hilbert.CoherentPrep` (so a too-small
    cutoff raises :class:`~cavitytherm.hilbert.TruncationError`), a
    :class:`FieldStep` and its :meth:`FieldStep.evolve`; callers that evolve
    one field over many times or atoms build the field step once themselves.
    ``t`` must be non-negative and finite.
    """
    return FieldStep(CoherentPrep(alpha, n_max), params).evolve(atom, t)


def coherence_from_propagator(t: float, alpha: complex,
                              params: PhysicalParams | None = None,
                              initial_level: int = LEVEL_E,
                              n_max: int | None = None) -> complex:
    """Reduced coherence via propagate + partial trace.

    The cross-check of the series in :func:`evolve_atom_field_mixture`, for
    the atom started in ``initial_level``. ``t`` must be non-negative and
    finite, as for the kernel. It spans all of ``0 <= n <= n_max``, so it
    also checks the kernel's lower window edge; on a bright field it skips
    only the amplitudes that are exact zeros.

    As the reference route it takes ``n_max`` unvalidated: a ``CoherentPrep``
    would sum the Poisson tail on every call (about 5% of a call at
    ``n_bar = 1e4``). A cutoff dropping over ``1e-6`` of the norm still fails
    the norm check of :func:`~cavitytherm.hilbert.partial_trace_field`.
    """
    check_interaction_time(t)
    params = params or PhysicalParams()
    alpha = complex(alpha)
    if n_max is None:
        n_max = default_cutoff(abs(alpha) ** 2)
    state = product_state(initial_level, coherent_amplitudes(alpha, n_max), params)
    return partial_trace_field(propagate(state, t)).rho01
