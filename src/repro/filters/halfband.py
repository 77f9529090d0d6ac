"""Saramäki halfband filter design (the Delta-Sigma Toolbox ``designHBF`` step).

Section V of the paper: the decimate-by-2 halfband filter is realized as a
tapped cascade of identical sub-filters following Saramäki's method
(ref. [16]); the search procedure of the Delta-Sigma Toolbox's ``designHBF``
picks the outer taps ``f1`` and the sub-filter taps ``f2`` such that the
composite response beats the sub-filter alone.  The 110th-order filter in
the paper achieves 90 dB stopband attenuation with only 124 adders (no true
multiplications) because both coefficient sets are CSD encoded.

This module reproduces that flow:

* :func:`design_halfband_remez` — a conventional equiripple halfband design
  (used as the baseline in the ablation study and to size the prototype).
* :class:`SaramakiHalfbandDesigner` — the tapped-cascade design.  The outer
  function is a Chebyshev-polynomial expansion (so the overall response is a
  polynomial in the sub-filter response), the sub-filter is an equiripple
  halfband, and a stochastic CSD search (the "non-deterministic search
  procedure" of the paper) refines the quantized coefficients.
* :class:`HalfbandDecimator` — bit-true decimate-by-2 implementation in the
  tapped-cascade structure of Fig. 7, plus resource accounting for the
  hardware model.

Structure (Fig. 7): the overall zero-phase response is

    H(ω) = 1/2 + Σ_{i=1}^{n1} f1(i) · [F2(ω)]^(2i−1)

where ``F2(ω) = 2·Σ_{j=1}^{n2} f2(j)·cos((2j−1)ω)`` is the zero-phase
response of the sub-filter (an odd-length, odd-coefficients-only halfband
kernel).  With ``n1 = 3`` and ``n2 = 6`` the equivalent FIR order is
``(2·n1−1)·(2·n2−1)·2 = 110``, exactly the order quoted in the paper.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro import _native
from repro.filters.fir import design_lowpass_remez
from repro.filters.polyphase import BitTrueFIRStage
from repro.filters.response import FrequencyResponse, default_frequency_grid
from repro.fixedpoint.csd import CSDCode, encode_coefficients
from repro.frozen import FrozenRecord, read_only


# ----------------------------------------------------------------------
# Conventional halfband design (baseline / prototype)
# ----------------------------------------------------------------------
def design_halfband_remez(order: int, transition_start: float,
                          transition_end: float = None,
                          stopband_weight: float = 1.0) -> np.ndarray:
    """Design an equiripple halfband FIR filter.

    Parameters
    ----------
    order:
        Filter order (number of taps minus one).  Must be an even number of
        the form ``4k + 2`` so that the halfband zero-coefficient pattern
        holds.
    transition_start:
        Passband edge as a fraction of the input sampling rate (e.g. 0.22
        for a transition band from 0.22·fs to 0.28·fs centred on fs/4).
    transition_end:
        Stopband edge; defaults to the image of ``transition_start`` around
        fs/4 (``0.5 - transition_start``), which is what makes the filter an
        exact halfband.
    stopband_weight:
        Relative Parks-McClellan weight on the stopband.  Values above 1
        trade passband ripple for stopband attenuation; useful when the
        filter is used as the sub-filter of a Saramäki cascade whose outer
        polynomial flattens the passband anyway.

    Returns
    -------
    numpy.ndarray
        The ``order + 1`` filter taps.  Every second tap (except the centre)
        is zero by construction.
    """
    if order % 2 != 0:
        raise ValueError("halfband order must be even")
    if (order // 2) % 2 != 1:
        raise ValueError("halfband order must be of the form 4k + 2")
    if transition_end is None:
        transition_end = 0.5 - transition_start
    if not 0.0 < transition_start < 0.25:
        raise ValueError("transition_start must lie in (0, 0.25)")
    if not 0.25 < transition_end < 0.5:
        raise ValueError("transition_end must lie in (0.25, 0.5)")
    # With symmetric band edges and equal weights the Parks-McClellan
    # solution is (numerically almost) a true halfband; forcing the odd taps
    # to zero and the centre tap to exactly 1/2 afterwards makes it exact.
    taps = design_lowpass_remez(order, transition_start, 0.5 - transition_start,
                                stopband_weight=float(stopband_weight))
    centre = order // 2
    for k in range(len(taps)):
        if k != centre and (k - centre) % 2 == 0:
            taps[k] = 0.0
    taps[centre] = 0.5
    return taps


#: Cached odd-harmonic cosine bases keyed by ``(n2, w.tobytes())``.  The
#: ``cos((2j+1)·w)`` rows depend only on the grid, and the same stopband grid
#: is evaluated again and again (once per CSD search, once per robustness
#: variant's attenuation), so caching them leaves the accumulation (and
#: therefore every float) exactly as before.  Bounded to a handful of grids
#: (attenuation + ripple + plot) and lock-guarded: the serve daemon's worker
#: threads design halfbands concurrently.
_COS_BASIS_CACHE: "dict[tuple, np.ndarray]" = {}
_COS_BASIS_CACHE_MAX = 8
_COS_BASIS_LOCK = threading.Lock()


def _cos_basis(w: np.ndarray, n2: int) -> np.ndarray:
    """Rows ``cos((2j+1)·w)`` for ``j = 0..n2-1``, memoized on the grid."""
    key = (n2, w.shape[0], w.tobytes())
    with _COS_BASIS_LOCK:
        basis = _COS_BASIS_CACHE.get(key)
    if basis is None:
        basis = np.empty((n2, len(w)))
        for j in range(n2):
            basis[j] = np.cos((2 * j + 1) * w)
        with _COS_BASIS_LOCK:
            while len(_COS_BASIS_CACHE) >= _COS_BASIS_CACHE_MAX:
                _COS_BASIS_CACHE.pop(next(iter(_COS_BASIS_CACHE)))
            _COS_BASIS_CACHE[key] = basis
    return basis


def _cascade_response(f1: np.ndarray, f2: np.ndarray,
                      basis: np.ndarray) -> np.ndarray:
    """The tapped-cascade zero-phase response ``1/2 + Σ f1(i)·F2^(2i−1)``.

    ``basis`` holds the rows ``cos((2j+1)·w)`` of :func:`_cos_basis`, one
    column per grid point.  This is the one place the response is
    computed: every operation is elementwise in the columns, so a column
    subset of ``basis`` yields the same values, bit for bit, at those
    points (the CSD search probes ripple peaks that way).
    """
    f2_resp = np.zeros(basis.shape[1])
    for j in range(len(f2)):
        f2_resp += 2.0 * f2[j] * basis[j]
    h = np.full(basis.shape[1], 0.5)
    # Odd powers by multiplication recurrence: libm ``pow`` on the
    # (mostly negative) sub-filter response is ~35x slower than two
    # elementwise multiplies.
    f2_sq = f2_resp * f2_resp
    power = f2_resp
    h += f1[0] * power
    for i in range(1, len(f1)):
        power = power * f2_sq
        h += f1[i] * power
    return h


def _attenuation_db(peak: float) -> float:
    """Attenuation in dB of a stopband whose largest magnitude is ``peak``."""
    return float(-20.0 * np.log10(max(peak, 1e-300)))


def _ripple_peak_columns(magnitude: np.ndarray) -> np.ndarray:
    """Mask of the interior local maxima of ``magnitude``, their ±1
    neighbours and both ends of the grid."""
    inner = magnitude[1:-1]
    peaks = (inner >= magnitude[:-2]) & (inner >= magnitude[2:])
    columns = np.zeros(len(magnitude), dtype=bool)
    columns[[0, -1]] = True
    columns[:-2] |= peaks
    columns[1:-1] |= peaks
    columns[2:] |= peaks
    return columns


#: Relative margin by which a probed trial magnitude must exceed the current
#: stopband peak before the CSD search rejects the trial unevaluated.  Any
#: excess already proves the trial's peak is higher; the margin keeps the
#: verdict far from the last bit of ``log10``.
_PROBE_MARGIN = 2.0 ** -30


def halfband_zero_phase_response(taps: np.ndarray, frequencies: np.ndarray) -> np.ndarray:
    """Zero-phase (real) frequency response of a symmetric odd-length FIR."""
    taps = np.asarray(taps, dtype=float)
    n = len(taps)
    centre = (n - 1) // 2
    w = 2.0 * np.pi * np.asarray(frequencies, dtype=float)
    response = np.full(len(w), taps[centre], dtype=float)
    for k in range(1, centre + 1):
        response += 2.0 * taps[centre - k] * np.cos(k * w)
    return response


# ----------------------------------------------------------------------
# Saramäki tapped-cascade design
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SaramakiHalfband(FrozenRecord):
    """A designed Saramäki tapped-cascade halfband filter.

    Immutable (a :class:`~repro.frozen.FrozenRecord`): ``f1``, ``f2``
    and ``metadata`` are read-only and the CSD codes are tuples.

    Attributes
    ----------
    f1:
        Outer tap weights (length ``n1``); applied to odd powers of the
        sub-filter response.
    f2:
        Sub-filter tap weights (length ``n2``); the sub-filter's impulse
        response has these values at the odd offsets ``±1, ±3, …`` from its
        centre and zeros elsewhere.
    f1_csd, f2_csd:
        CSD encodings of the quantized coefficients (present after the CSD
        search).
    """

    f1: np.ndarray
    f2: np.ndarray
    f1_csd: Optional[Tuple[CSDCode, ...]] = None
    f2_csd: Optional[Tuple[CSDCode, ...]] = None
    metadata: dict = field(default_factory=dict)

    _ARRAY_FIELDS = ("f1", "f2")

    # ------------------------------------------------------------------
    # Structure-derived quantities
    # ------------------------------------------------------------------
    @property
    def n1(self) -> int:
        """Order parameter of the tap-anchoring sub-filter."""
        return len(self.f1)

    @property
    def n2(self) -> int:
        """Order parameter of the cascaded sub-filter."""
        return len(self.f2)

    @property
    def equivalent_order(self) -> int:
        """Order of the single-FIR equivalent of the whole tapped cascade."""
        return (2 * self.n1 - 1) * (2 * self.n2 - 1) * 2

    @property
    def num_subfilters(self) -> int:
        """Number of identical F2 blocks instantiated in hardware (Fig. 7)."""
        return 2 * self.n1 - 1

    # ------------------------------------------------------------------
    # Responses
    # ------------------------------------------------------------------
    def subfilter_taps(self) -> np.ndarray:
        """Impulse response of one F2 sub-filter (odd taps only, unit centre span)."""
        length = 2 * (2 * self.n2 - 1) + 1
        taps = np.zeros(length)
        centre = length // 2
        for j in range(self.n2):
            offset = 2 * j + 1
            taps[centre + offset] = self.f2[j]
            taps[centre - offset] = self.f2[j]
        return taps

    def equivalent_fir(self) -> np.ndarray:
        """Single-FIR equivalent taps of the composite halfband filter.

        Computed by expanding ``1/2·δ + Σ_i f1(i)·(f2-kernel)^(*(2i−1))``
        where ``^(*k)`` denotes k-fold convolution.  Used for verification,
        cascade analysis and the ablation benchmark.
        """
        sub = self.subfilter_taps()
        total_len = self.equivalent_order + 1
        centre = total_len // 2
        taps = np.zeros(total_len)
        taps[centre] = 0.5
        power = np.array([1.0])
        sub_sq = np.convolve(sub, sub)
        for i in range(self.n1):
            if i == 0:
                power = sub.copy()
            else:
                power = np.convolve(power, sub_sq)
            offset = centre - (len(power) - 1) // 2
            taps[offset:offset + len(power)] += self.f1[i] * power
        return taps

    def zero_phase_response(self, frequencies: np.ndarray) -> np.ndarray:
        """Zero-phase response via the polynomial-in-F2 formula (fast path)."""
        w = 2.0 * np.pi * np.asarray(frequencies, dtype=float)
        return _cascade_response(self.f1, self.f2, _cos_basis(w, self.n2))

    def frequency_response(self, sample_rate_hz: float,
                           frequencies_hz: Optional[np.ndarray] = None,
                           n_points: int = 4096) -> FrequencyResponse:
        """Magnitude response referred to the stage's input rate."""
        if frequencies_hz is None:
            frequencies_hz = default_frequency_grid(sample_rate_hz, n_points)
        norm = np.asarray(frequencies_hz, dtype=float) / sample_rate_hz
        response = self.zero_phase_response(norm)
        return FrequencyResponse(
            frequencies_hz=np.asarray(frequencies_hz, dtype=float),
            magnitude=response.astype(complex),
            sample_rate_hz=sample_rate_hz,
            label="Saramäki halfband",
            metadata={"n1": self.n1, "n2": self.n2,
                      "equivalent_order": self.equivalent_order},
        )

    # ------------------------------------------------------------------
    # Figures of merit
    # ------------------------------------------------------------------
    def stopband_attenuation_db(self, stopband_start: float, n_points: int = 4096) -> float:
        """Minimum attenuation for normalized frequencies above ``stopband_start``."""
        freqs = np.linspace(stopband_start, 0.5, n_points)
        return _attenuation_db(np.max(np.abs(self.zero_phase_response(freqs))))

    def passband_ripple_db(self, passband_end: float, n_points: int = 2048) -> float:
        """Peak-to-peak zero-phase response variation over ``[0, passband_end]``."""
        freqs = np.linspace(0.0, passband_end, n_points)
        response = np.abs(self.zero_phase_response(freqs))
        return float(20.0 * np.log10(np.max(response) / max(np.min(response), 1e-300)))

    def with_coefficients(self, f1: Sequence[float], f2: Sequence[float],
                          f1_csd: Optional[Sequence[CSDCode]] = None,
                          f2_csd: Optional[Sequence[CSDCode]] = None,
                          **metadata) -> "SaramakiHalfband":
        """Rebuild this filter with replacement coefficient values.

        This is the coefficient-perturbation hook of the
        :mod:`repro.robustness` Monte Carlo subsystem (see
        :func:`perturbed_halfband`): the structure (``n1``/``n2``,
        transition band) is kept and the coefficient values are replaced,
        by the values of the CSD codes when those are given.  The achieved
        stopband attenuation in the metadata is recomputed so downstream
        mask checks see the perturbed filter, and ``metadata`` adds
        entries.  No design search runs.
        """
        if len(f1) != self.n1 or len(f2) != self.n2:
            raise ValueError("replacement coefficients must keep the (n1, n2) "
                             "structure of the designed filter")
        if f1_csd is not None:
            f1, f2 = [c.value for c in f1_csd], [c.value for c in f2_csd]
        f1, f2 = np.asarray(f1, dtype=float), np.asarray(f2, dtype=float)
        transition_start = float(self.metadata.get("transition_start", 0.22))
        attenuation = SaramakiHalfband(f1, f2).stopband_attenuation_db(
            0.5 - transition_start)
        return SaramakiHalfband(f1, f2, f1_csd, f2_csd, dict(
            self.metadata, achieved_attenuation_db=attenuation, **metadata))

    def coefficient_fingerprint(self) -> dict:
        """JSON-safe identity of the (possibly perturbed) coefficient sets.

        Used by the robustness engine to key per-variant caches: two
        halfbands with byte-equal fingerprints produce bit-identical
        outputs (the bit-true decimator derives everything from ``f1``,
        ``f2`` and the coefficient word width).
        """
        return {"f1": [float(v) for v in self.f1],
                "f2": [float(v) for v in self.f2]}

    def adder_count(self, coefficient_bits: int = 24) -> int:
        """Total adders of the tapped-cascade implementation.

        Counts: CSD shift-add adders for each f1 and f2 coefficient
        multiplication (each f2 multiplier is instantiated once per
        sub-filter block), the structural adders that combine the symmetric
        taps inside each sub-filter, the adders that sum the sub-filter
        outputs into the cascade, and the final combination with the
        delayed-centre path.
        """
        f1_codes = self.f1_csd or encode_coefficients(self.f1, coefficient_bits)
        f2_codes = self.f2_csd or encode_coefficients(self.f2, coefficient_bits)
        f2_csd_adders = sum(code.adder_cost for code in f2_codes)
        f1_csd_adders = sum(code.adder_cost for code in f1_codes)
        # Inside one sub-filter: n2 symmetric-tap pre-adders plus (n2 - 1)
        # adders combining the products, plus the CSD shift-add adders.
        per_subfilter = self.n2 + (self.n2 - 1) + f2_csd_adders
        structural = self.num_subfilters * per_subfilter
        # Outer structure: one multiplier (CSD adders) per f1 tap, n1 adders
        # summing the branches, one adder for the 0.5·delay path.
        outer = f1_csd_adders + self.n1 + 1
        return structural + outer


class SaramakiHalfbandDesigner:
    """Designer implementing the ``designHBF``-style search.

    The design proceeds in three steps:

    1. **Outer function** — the coefficients ``f1`` are taken from the
       Chebyshev expansion of the amplitude-change function, i.e. the overall
       response is ``1/2 + 1/2·T(F2)`` restricted to odd powers, where the
       polynomial maps the sub-filter's ±δ2 passband/stopband levels onto the
       target ±δ levels.  In practice the expansion of
       ``sin((2n1−1)·asin(x))`` provides exactly this odd polynomial.
    2. **Sub-filter** — ``f2`` is an equiripple halfband kernel designed with
       the Parks–McClellan algorithm for the specified transition band.
    3. **CSD search** — both coefficient sets are quantized to CSD with a
       bounded number of non-zero digits; a stochastic neighbourhood search
       (random ±1 LSB perturbations, the paper's "non-deterministic search
       procedure") recovers the attenuation lost to quantization.
    """

    def __init__(self, n1: int = 3, n2: int = 6,
                 transition_start: float = 0.22,
                 coefficient_bits: int = 24,
                 max_nonzero_digits: int = 4,
                 random_seed: int = 2011) -> None:
        if n1 < 1 or n2 < 1:
            raise ValueError("n1 and n2 must be positive")
        if not 0.0 < transition_start < 0.25:
            raise ValueError("transition_start must lie in (0, 0.25)")
        self.n1 = n1
        self.n2 = n2
        self.transition_start = transition_start
        self.coefficient_bits = coefficient_bits
        self.max_nonzero_digits = max_nonzero_digits
        self.random_seed = random_seed

    # ------------------------------------------------------------------
    # Step 1: outer (f1) coefficients
    # ------------------------------------------------------------------
    def outer_coefficients(self) -> np.ndarray:
        """Maximally-flat odd-polynomial coefficients mapping F2 onto the target.

        The sub-filter's zero-phase response ``F2`` swings around ``+1/2`` in
        the passband and ``−1/2`` in the stopband, with ripple ``δ2``.  The
        outer polynomial ``P(x) = Σ f1(i)·x^(2i−1)`` must reproduce those
        levels exactly (``P(±1/2) = ±1/2``) while being *flat* there so the
        sub-filter ripple is suppressed rather than amplified — flatness of
        order ``n1−1`` turns a sub-filter ripple δ2 into a composite ripple
        of order ``δ2^n1``.  This is the filter-sharpening construction
        underlying Saramäki's tapped cascade; the coefficients are obtained
        by solving the linear system of the interpolation and flatness
        constraints at ``x = 1/2`` (oddness makes ``x = −1/2`` automatic).
        """
        n1 = self.n1
        powers = [2 * i + 1 for i in range(n1)]
        a_matrix = np.zeros((n1, n1))
        rhs = np.zeros(n1)
        # Row 0: P(1/2) = 1/2.
        for col, p in enumerate(powers):
            a_matrix[0, col] = 0.5 ** p
        rhs[0] = 0.5
        # Rows 1..n1-1: d^k P / dx^k (1/2) = 0 for k = 1..n1-1.
        for k in range(1, n1):
            for col, p in enumerate(powers):
                if p >= k:
                    coeff = math.factorial(p) / math.factorial(p - k)
                    a_matrix[k, col] = coeff * 0.5 ** (p - k)
        f1 = np.linalg.solve(a_matrix, rhs)
        return f1

    # ------------------------------------------------------------------
    # Step 2: sub-filter (f2) coefficients
    # ------------------------------------------------------------------
    def subfilter_coefficients(self) -> np.ndarray:
        """Equiripple odd-tap halfband kernel for the F2 sub-filter.

        The sub-filter must swing to +1/2 over the passband and −1/2 over
        the stopband; a conventional halfband design of order ``4·n2 − 2``
        provides exactly ``n2`` distinct odd-offset taps.
        """
        order = 4 * self.n2 - 2
        taps = design_halfband_remez(order, self.transition_start)
        centre = order // 2
        f2 = np.array([taps[centre + 2 * j + 1] for j in range(self.n2)])
        return f2

    # ------------------------------------------------------------------
    # Step 3: CSD quantization with stochastic refinement
    # ------------------------------------------------------------------
    def _quantize(self, values: np.ndarray) -> Tuple[np.ndarray, List[CSDCode]]:
        codes = encode_coefficients(values, self.coefficient_bits, self.max_nonzero_digits)
        return np.array([c.value for c in codes]), codes

    def _trial_moves(self, iterations: int) -> Tuple[np.ndarray, np.ndarray]:
        """The CSD search's moves: per trial, the index of the moved
        coefficient (``f1`` then ``f2``) and the step added to it."""
        indices, signs, magnitudes = _search_moves(
            self.random_seed, self.n1, self.n2, iterations)
        return indices, signs * 2.0 ** (-self.coefficient_bits) * magnitudes

    def design(self, target_attenuation_db: float = 90.0,
               search_iterations: int = 400) -> SaramakiHalfband:
        """Run the full design and CSD search; returns the designed filter.

        The search is a seeded stochastic hill climb: each trial moves one
        quantized coefficient by ±1..7 LSB, re-quantizes both sets to CSD
        and is accepted when its minimum attenuation over a 4096-point
        stopband grid strictly beats the current point's.  A trial is
        evaluated only as far as that verdict needs, which leaves every
        accepted point (and so the result) exactly as a full evaluation of
        every trial would:

        * the grid and its cosine basis are built once per design, and the
          seeded moves once per structure (:func:`_search_moves`);
        * a trial that re-quantizes onto the current coefficients has the
          current response, so it is rejected without evaluation;
        * any other trial is first evaluated (by the same response
          formula) only at the current response's ripple peaks and their
          ±1 neighbours; if one of those values exceeds the current peak,
          the trial's attenuation is lower and it is rejected.  Only the
          trials no probe rejects are evaluated on the whole grid.

        The skipped and probed trials run in the compiled ``csd_search``
        kernel of :mod:`repro._native`, or in :func:`_fast_forward_python`,
        its gold model, when no kernel can be built.  The verdict on each
        trial that reaches the whole grid is taken here, in both cases.

        Parameters
        ----------
        target_attenuation_db:
            Stopband attenuation goal (90 dB in the paper).
        search_iterations:
            Number of random perturbation trials in the CSD refinement.
        """
        f1 = self.outer_coefficients()
        f2 = self.subfilter_coefficients()
        stopband = np.linspace(0.5 - self.transition_start, 0.5, 4096)
        basis = _cos_basis(2.0 * np.pi * stopband, self.n2)

        f1_q, f1_codes = self._quantize(f1)
        f2_q, f2_codes = self._quantize(f2)
        best = (f1_q, f2_q, f1_codes, f2_codes)
        response = np.abs(_cascade_response(f1_q, f2_q, basis))
        current_peak = response.max()
        best_attenuation = _attenuation_db(current_peak)
        probe = np.flatnonzero(_ripple_peak_columns(response))

        # Non-deterministic search: perturb one quantized coefficient at a
        # time by ±1 LSB and keep improvements (simple stochastic hill
        # climbing, restarted from the best point).
        current = np.concatenate([f1_q, f2_q])
        current_attenuation = best_attenuation
        fast_forward = None
        trial = 0
        while trial < search_iterations and not (
                current_attenuation >= target_attenuation_db
                and best_attenuation >= target_attenuation_db):
            if fast_forward is None:  # no moves are drawn for a met target
                indices, steps = self._trial_moves(search_iterations)
                fast_forward = _fast_forward(self, indices, steps, basis)
            trial, response = fast_forward(
                current, trial, search_iterations, probe,
                current_peak * (1.0 + _PROBE_MARGIN))
            if response is None:
                break
            peak = response.max()
            attenuation = _attenuation_db(peak)
            if attenuation > current_attenuation:
                moved = current.copy()
                moved[indices[trial]] += steps[trial]
                trial_f1_q, trial_f1_codes = self._quantize(moved[:self.n1])
                trial_f2_q, trial_f2_codes = self._quantize(moved[self.n1:])
                current = np.concatenate([trial_f1_q, trial_f2_q])
                current_attenuation = attenuation
                current_peak = peak
                probe = np.flatnonzero(_ripple_peak_columns(response))
                if attenuation > best_attenuation:
                    best = (trial_f1_q, trial_f2_q, trial_f1_codes,
                            trial_f2_codes)
                    best_attenuation = attenuation
            trial += 1

        return SaramakiHalfband(*best, metadata={
            "target_attenuation_db": target_attenuation_db,
            "achieved_attenuation_db": best_attenuation,
            "ideal_attenuation_db": _attenuation_db(
                np.max(np.abs(_cascade_response(f1, f2, basis)))),
            "transition_start": self.transition_start,
            "coefficient_bits": self.coefficient_bits,
            "search_iterations": search_iterations,
        })


_SIGNS = (-1.0, 1.0)


@lru_cache(maxsize=32)
def _search_moves(seed: int, n1: int, n2: int, iterations: int
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The CSD search's seeded trial moves: per trial, the index of the
    moved coefficient (f1 then f2), the sign and the size in LSB of the
    move, as read-only arrays.

    A move does not depend on whether earlier trials were accepted, so the
    moves are drawn once per structure, with the generator calls of the
    original per-trial loop in their order.  The sign is drawn as
    ``integers(0, 2)``, the draw ``Generator.choice`` of a two-element
    list makes, at a sixth of its cost (pinned against ``choice`` in the
    tests).
    """
    rng = np.random.default_rng(seed)
    indices = np.empty(iterations, dtype=np.int64)
    signs = np.empty(iterations)
    magnitudes = np.empty(iterations)
    for trial in range(iterations):
        if rng.random() < 0.4:
            indices[trial] = rng.integers(0, n1)
        else:
            indices[trial] = n1 + rng.integers(0, n2)
        signs[trial] = _SIGNS[rng.integers(0, 2)]
        magnitudes[trial] = float(rng.integers(1, 8))
    return read_only(indices), read_only(signs), read_only(magnitudes)


def _fast_forward(designer: SaramakiHalfbandDesigner, indices: np.ndarray,
                  steps: np.ndarray, basis: np.ndarray) -> Callable[
                      [np.ndarray, int, int, np.ndarray, float],
                      Tuple[int, Optional[np.ndarray]]]:
    """One design's fast-forward: :func:`_fast_forward_python` bound to its
    moves and stopband basis, run by the compiled ``csd_search`` kernel,
    which releases the GIL while it runs, or by the gold model itself when
    no kernel can be built.

    The kernel takes addresses, not checked arrays: the search calls it
    once per trial that reaches the full grid, and numpy's per-call array
    checks would cost several times the kernel's own work there.  The
    arrays behind the addresses are held by the returned function.
    """
    gold = partial(_fast_forward_python, designer, indices, steps, basis)
    library = _native.load()
    if library is None:
        return gold
    size = designer.n1 + designer.n2
    indices = np.ascontiguousarray(indices, dtype=np.int64)
    steps = np.ascontiguousarray(steps, dtype=np.float64)
    basis = np.ascontiguousarray(basis, dtype=np.float64)
    if (len(steps) != len(indices) or basis.shape[0] != designer.n2
            or len(indices) and not 0 <= indices.min() <= indices.max() < size):
        raise ValueError("moves or basis do not fit the designer's structure")
    trial_scratch = np.empty(size)
    digits = designer.max_nonzero_digits
    fixed = (designer.n1, designer.n2, indices.ctypes.data, steps.ctypes.data)
    grid = (designer.coefficient_bits, -1 if digits is None else digits,
            basis.ctypes.data, basis.shape[1])

    def fast_forward(current: np.ndarray, start: int, stop: int,
                     probe: np.ndarray, threshold: float
                     ) -> Tuple[int, Optional[np.ndarray]]:
        current = np.ascontiguousarray(current, dtype=np.float64)
        probe = np.ascontiguousarray(probe, dtype=np.int64)
        if (len(current) != size or not 0 <= start <= stop <= len(indices)
                or len(probe) and not 0 <= probe.min() <= probe.max()
                < basis.shape[1]):
            raise ValueError("search window, point or probe out of range")
        magnitude = np.empty(basis.shape[1])
        trial = library.csd_search(
            current.ctypes.data, *fixed, start, stop, *grid,
            probe.ctypes.data, len(probe), threshold, magnitude.ctypes.data,
            trial_scratch.ctypes.data)
        if trial < 0:
            return gold(current, start, stop, probe, threshold)
        return trial, (magnitude if trial < stop else None)

    return fast_forward


def _fast_forward_python(designer: SaramakiHalfbandDesigner,
                         indices: np.ndarray, steps: np.ndarray,
                         basis: np.ndarray, current: np.ndarray, start: int,
                         stop: int, probe: np.ndarray, threshold: float
                         ) -> Tuple[int, Optional[np.ndarray]]:
    """The CSD search's trials from ``start`` up to the first one that
    reaches the full grid: the gold model of the ``csd_search`` kernel.

    Trial ``t`` adds ``steps[t]`` to coefficient ``indices[t]`` of
    ``current`` (the quantized ``f1`` then ``f2``) and re-quantizes both
    sets.  It is skipped when that lands on ``current``, or when its
    magnitude at one of the ``probe`` columns of ``basis`` is at least
    ``threshold``.  Returns the first trial that is not skipped and its
    magnitude on the whole grid, or ``(stop, None)``.
    """
    n1 = designer.n1
    probe_basis = basis[:, probe]
    for trial in range(start, stop):
        moved = current.copy()
        moved[indices[trial]] += steps[trial]
        trial_f1_q, _ = designer._quantize(moved[:n1])
        trial_f2_q, _ = designer._quantize(moved[n1:])
        if trial_f1_q.tobytes() + trial_f2_q.tobytes() == current.tobytes():
            continue
        probed = np.abs(_cascade_response(trial_f1_q, trial_f2_q, probe_basis))
        if probed.max() >= threshold:
            continue
        return trial, np.abs(_cascade_response(trial_f1_q, trial_f2_q, basis))
    return stop, None


def _drop_least_significant_digit(code: CSDCode) -> CSDCode:
    """A copy of ``code`` with its least-significant non-zero digit dropped.

    Models a fabrication/implementation fault in one CSD shift-add term.
    Digits are stored most-significant first, so the dropped digit is the
    last one; a zero coefficient is returned unchanged.
    """
    if not code.digits:
        return code
    digits = code.digits[:-1]
    value = float(sum(s * (2.0 ** w) for w, s in digits))
    return CSDCode(digits=tuple(digits), value=value, original=code.original)


def perturbed_halfband(design: SaramakiHalfband, coefficient_bits: int,
                       f1_lsb_deltas: Optional[Sequence[int]] = None,
                       f2_lsb_deltas: Optional[Sequence[int]] = None,
                       f1_dropout: Optional[Sequence[int]] = None,
                       f2_dropout: Optional[Sequence[int]] = None) -> SaramakiHalfband:
    """Apply Monte Carlo coefficient perturbations to a designed halfband.

    Two perturbation axes of the :mod:`repro.robustness` subsystem compose
    here, in this order:

    1. **Coefficient-bit dithering** — each coefficient moves by an integer
       number of quantization LSBs (``delta * 2**-coefficient_bits``) before
       re-encoding in CSD, modelling word-level coefficient ROM errors.
    2. **CSD term dropout** — coefficients flagged in ``*_dropout`` lose
       their least-significant non-zero CSD digit after re-encoding,
       modelling a dropped shift-add term in the multiplierless datapath.

    Returns a new :class:`SaramakiHalfband` with refreshed
    ``achieved_attenuation_db`` metadata; all-zero draws return a filter
    with coefficient values identical to re-quantizing the original design.
    """
    lsb = 2.0 ** (-coefficient_bits)
    f1, f2 = design.f1, design.f2
    if f1_lsb_deltas is not None:
        f1 = f1 + lsb * np.asarray(f1_lsb_deltas, dtype=float)
    if f2_lsb_deltas is not None:
        f2 = f2 + lsb * np.asarray(f2_lsb_deltas, dtype=float)
    f1_csd = encode_coefficients(f1, coefficient_bits)
    f2_csd = encode_coefficients(f2, coefficient_bits)
    dropped = 0
    for flags, codes in ((f1_dropout, f1_csd), (f2_dropout, f2_csd)):
        for index, flag in enumerate(flags if flags is not None else ()):
            if flag:
                codes[index] = _drop_least_significant_digit(codes[index])
                dropped += 1
    extra = {"dropped_csd_digits": dropped} if dropped else {}
    return design.with_coefficients(f1, f2, f1_csd, f2_csd,
                                    perturbation="perturbed", **extra)


# ----------------------------------------------------------------------
# Bit-true implementation
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class HalfbandDecimator(BitTrueFIRStage):
    """Bit-true decimate-by-2 implementation of the composite halfband filter.

    The implementation convolves with the single-FIR equivalent of the
    tapped cascade using integer arithmetic on CSD-quantized coefficients;
    the structural decomposition only changes *how* the multiplications are
    built from adders (captured by the resource model), not the arithmetic
    result, so the equivalent-FIR computation is bit-exact with respect to
    the hardware.

    The output is aligned to the filter's group delay so it is the centred,
    linear-phase filtered sequence, then decimated by 2; the
    ``coefficient_bits`` fractional bits of the products are rounded away
    at the output, exactly as the fixed-point hardware does.
    :meth:`process` runs the engines of
    :class:`~repro.filters.polyphase.BitTrueFIRStage`: the ``int64``
    strided matmul computes only the kept (even) output phase while the
    accumulator provably fits, the arbitrary-precision gold model runs
    otherwise.  The stage is immutable, with read-only tap arrays.
    """

    design: SaramakiHalfband
    data_bits: int = 16
    coefficient_bits: int = 24

    def __post_init__(self) -> None:
        taps = read_only(self.design.equivalent_fir())
        int_taps = read_only(np.round(taps * (1 << self.coefficient_bits))
                             .astype(np.int64))
        vars(self).update(_int_taps=int_taps, _taps_float=taps,
                          _abs_tap_sum=int(np.abs(int_taps).sum()))

    @property
    def n_taps(self) -> int:
        """Number of taps of the equivalent FIR halfband."""
        return len(self._int_taps)

    def _output_window(self, n: int) -> Tuple[int, int, int]:
        return (self.n_taps - 1) // 2, 2, (n + 1) // 2

    def process_float(self, samples: np.ndarray) -> np.ndarray:
        """Floating-point reference of :meth:`process` (same alignment)."""
        filtered = np.convolve(np.asarray(samples, dtype=float), self._taps_float)
        delay = (self.n_taps - 1) // 2
        aligned = filtered[delay:delay + len(samples)]
        return aligned[::2]

    def resource_summary(self, input_rate_hz: float) -> dict:
        """Adder/register resources of the Fig. 7 structure."""
        adders = self.design.adder_count(self.coefficient_bits)
        # Registers: each sub-filter holds 2*(2*n2-1) unit delays of data_bits,
        # plus the outer delay lines (z^-11 blocks) and the output register.
        sub_regs = self.design.num_subfilters * 2 * (2 * self.design.n2 - 1)
        outer_regs = 2 * (2 * self.design.n2 - 1) + self.design.n1
        registers = (sub_regs + outer_regs) * self.data_bits
        return {
            "label": "Halfband",
            "adders": adders,
            "adder_bits": adders * self.data_bits,
            "registers": sub_regs + outer_regs,
            "register_bits": registers,
            "word_width": self.data_bits,
            "fast_clock_hz": input_rate_hz,
            "slow_clock_hz": input_rate_hz / 2.0,
            "fast_adders": 0,
            "slow_adders": adders,
            "coefficient_bits": self.coefficient_bits,
            "equivalent_order": self.design.equivalent_order,
        }
