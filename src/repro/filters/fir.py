"""General FIR design wrappers and bit-true FIR machinery.

The last stage of the paper's chain is a 64th-order linear-phase FIR
equalizer designed with the Parks–McClellan algorithm (``firpm`` in MATLAB);
its coefficients are CSD encoded and the filter runs at the decimated
Nyquist rate of 40 MHz.  This module provides:

* numpy ports of ``firpm`` (the Parks–McClellan exchange) and ``firls``
  used by the equalizer, the halfband prototypes and the ablation
  baselines, and
* :class:`FIRFilterFixedPoint` — a bit-true direct-form implementation with
  CSD-quantized coefficients, used by the chain simulator and by the
  switching-activity power estimation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.filters.polyphase import BitTrueFIRStage
from repro.filters.response import FrequencyResponse, default_frequency_grid, fir_freqz
from repro.fixedpoint.csd import CSDCode, encode_coefficients
from repro.frozen import read_only


_TWOPI = 2.0 * math.pi
#: Dense-grid points per extremal and the iteration limit of the exchange
#: (the values ``scipy.signal.remez`` uses by default).
_GRID_DENSITY = 16
_MAX_ITERATIONS = 25


def _barycentric(xf: np.ndarray, x: Sequence[float], y: Sequence[float],
                 ad: Sequence[float]) -> np.ndarray:
    """Lagrange interpolant through ``(x, y)`` in barycentric form, at ``xf``.

    Every point sums the nodes in node order, exactly like the scalar
    routine of the original program; only the points are batched.
    """
    x, y, ad = (np.asarray(v, dtype=float)[:, None] for v in (x, y, ad))
    num = np.zeros(len(xf))
    den = np.zeros(len(xf))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        c = ad / (xf - x)
        for c_j, term_j in zip(c, c * y):
            den += c_j
            num += term_j
        return num / den


def _climb(err: List[float], l: int, step: int, stop: int, sign: int,
           comp: float) -> Tuple[int, float]:
    """Walk from grid point ``l`` while the signed error keeps growing."""
    l += step
    while (l < stop if step > 0 else l > stop) and sign * err[l] - comp > 0.0:
        comp = sign * err[l]
        l += step
    return l - step, comp


def _exchange(err: List[float], iext: List[int], nfcns: int, dev: float,
              nu: int, ngrid: int) -> bool:
    """One Remez exchange of the 1-based extremal set ``iext``, in place.

    This is the search of McClellan, Parks & Rabiner (1973): move each
    extremal to the local maximum of the signed error around it, then try
    one extra extremal below the first and above the last.  Returns whether
    the exchange must iterate again.
    """
    nz, nzz = nfcns + 1, nfcns + 2
    jchnge = 0
    k1, knz = iext[1], iext[nz]
    klow = 0
    nut = -nu
    comp = y1 = dev
    for j in range(1, nzz):
        kup = iext[j + 1]
        nut = -nut
        if j == 2:
            y1 = comp
        comp = dev
        l = iext[j] + 1
        if l < kup and nut * err[l] - comp > 0.0:
            l, comp = _climb(err, l, 1, kup, nut, nut * err[l])
        else:
            l = iext[j] - 1
            while l > klow and nut * err[l] - comp <= 0.0 and jchnge <= 0:
                l -= 1
            if l > klow and nut * err[l] - comp > 0.0:
                l, comp = _climb(err, l, -1, klow, nut, nut * err[l])
                klow = iext[j]
                iext[j] = l
                jchnge += 1
                continue
            if l > klow:
                klow = iext[j]
                continue
            if jchnge <= 0:
                l = iext[j] + 2
                while l < kup and nut * err[l] - comp <= 0.0:
                    l += 1
                if l >= kup:
                    klow = iext[j]
                    continue
                l, comp = _climb(err, l, 1, kup, nut, nut * err[l])
            else:
                l = iext[j]
        iext[j] = klow = l
        jchnge += 1
    ynz = comp
    k1 = min(k1, iext[1])
    knz = max(knz, iext[nz])
    low_found = False
    nut1, nut = nut, -nu
    comp = ynz * 1.00001
    for l in range(1, k1):
        if nut * err[l] - comp > 0.0:
            l, comp = _climb(err, l, 1, k1, nut, nut * err[l])
            iext[nzz] = k1 = l
            jchnge += 1
            y1 = max(y1, comp)
            low_found = True
            break
    nut = -nut1
    comp = y1 * 1.00001
    for l in range(ngrid, knz, -1):
        if nut * err[l] - comp > 0.0:
            l, _ = _climb(err, l, -1, knz, nut, nut * err[l])
            iext[1:nz] = iext[2:nzz]
            iext[nz] = l
            return True
    if low_found:
        iext[2:nzz] = iext[1:nz]
        iext[1] = k1
        return True
    return jchnge > 0


def _remez_type1(numtaps: int, bands: Sequence[float], desired: Sequence[float],
                 weight: Sequence[float]) -> np.ndarray:
    """Parks–McClellan equiripple design of an odd-length linear-phase FIR.

    A numpy port of the McClellan–Parks–Rabiner program (1973) for Type I
    filters (odd ``numtaps``) whose bands cover ``[0, 0.5]`` (fs = 1), one
    ``desired`` level and one ``weight`` per band: the same dense grid,
    initial guess, exchange, convergence test and inverse-DFT coefficient
    step, in the same floating-point order.  Only the grid error is
    vectorized, one value per point.  Like the original it returns the
    current approximation after ``_MAX_ITERATIONS`` iterations, and raises
    ``ValueError`` when an iteration fails to grow the deviation.
    """
    nfcns = numtaps // 2 + 1
    delf = 0.5 / (_GRID_DENSITY * nfcns)
    grid: List[float] = []
    des: List[float] = []
    wt: List[float] = []
    for band, (level, band_weight) in enumerate(zip(desired, weight)):
        f, fup = float(bands[2 * band]), float(bands[2 * band + 1])
        start = len(grid)
        while True:
            grid.append(f)
            f = f + delf
            if not f <= fup:
                break
        grid[-1] = fup
        des += [float(level)] * (len(grid) - start)
        wt += [float(band_weight)] * (len(grid) - start)
    ngrid = len(grid)
    # 1-based indexing as in the original; index 0 is padding.
    xf = np.array([0.0] + [math.cos(_TWOPI * g) for g in grid])
    des, wt = [0.0] + des, [1.0] + wt
    des_a, wt_a = np.array(des), np.array(wt)
    step = (ngrid - 1) / nfcns
    iext = [0] + [int((j - 1) * step) + 1 for j in range(1, nfcns + 1)] + [ngrid, 0]
    nz, nzz = nfcns + 1, nfcns + 2
    jet = (nfcns - 1) // 15 + 1
    spread = [k for m in range(1, jet + 1) for k in range(m, nz + 1, jet)]
    devl = -1.0
    for iteration in range(1, _MAX_ITERATIONS + 1):
        iext[nzz] = ngrid + 1
        nodes = xf[iext[1:nz + 1]]
        x = [0.0] + nodes.tolist()
        prod = np.ones(nz)
        for k in spread:
            factor = 2.0 * (nodes - nodes[k - 1])
            factor[k - 1] = 1.0
            prod *= factor
        ad = [0.0] + (1.0 / prod).tolist()
        dnum = dden = 0.0
        sign = 1
        for j in range(1, nz + 1):
            dnum += ad[j] * des[iext[j]]
            dden += float(sign) * ad[j] / wt[iext[j]]
            sign = -sign
        dev = dnum / dden
        nu = -1 if dev > 0.0 else 1
        dev = -float(nu) * dev
        y = [0.0]
        sign = nu
        for j in range(1, nz + 1):
            y.append(des[iext[j]] + float(sign) * dev / wt[iext[j]])
            sign = -sign
        if dev <= devl:
            raise ValueError(f"Parks-McClellan exchange failed to converge at "
                             f"iteration {iteration}; widen the transition band")
        devl = dev
        err = ((_barycentric(xf, x[1:], y[1:], ad[1:]) - des_a) * wt_a).tolist()
        if not _exchange(err, iext, nfcns, dev, nu, ngrid):
            break
    # Amplitudes at the DFT frequencies (an extremal value where one lies
    # within 1e-6), then the inverse DFT.
    cn = float(2 * nfcns - 1)
    xt = [math.cos(_TWOPI * (j * (1.0 / cn))) for j in range(nfcns)]
    amplitude = _barycentric(np.array(xt), x[1:], y[1:], ad[1:]).tolist()
    x.append(-2.0)
    l = 1
    for j, xt_j in enumerate(xt):
        while xt_j <= x[l] and x[l] - xt_j >= 1.0e-6:
            l += 1
        if abs(xt_j - x[l]) < 1.0e-6:
            amplitude[j] = y[l]
        l = max(l - 1, 1)
    dden = _TWOPI / cn
    alpha = []
    for j in range(nfcns):
        total = 0.0
        for k in range(1, nfcns):
            total += amplitude[k] * math.cos((j * dden) * k)
        alpha.append(2.0 * total + amplitude[0])
    alpha = [alpha[0] / cn] + [a * (2.0 / cn) for a in alpha[1:]]
    half = [0.5 * alpha[nfcns - j] for j in range(1, nfcns)]
    return np.array(half + [alpha[0]] + half[::-1])


def design_lowpass_remez(order: int, passband: float, stopband: float,
                         passband_weight: float = 1.0,
                         stopband_weight: float = 1.0) -> np.ndarray:
    """Equiripple low-pass FIR design (normalized frequencies, fs = 1).

    ``order`` must be even (an odd tap count, Type I); the taps match
    ``scipy.signal.remez`` with the same bands and weights.
    """
    if order < 2:
        raise ValueError("order must be at least 2")
    if order % 2 != 0:
        raise ValueError("order must be even (Type I FIR)")
    if not 0.0 < passband < stopband < 0.5:
        raise ValueError("0 < passband < stopband < 0.5 required")
    return _remez_type1(order + 1, [0.0, passband, stopband, 0.5], [1.0, 0.0],
                        [passband_weight, stopband_weight])


def design_arbitrary_response_ls(order: int, frequencies: Sequence[float],
                                 desired: Sequence[float],
                                 weights: Optional[Sequence[float]] = None) -> np.ndarray:
    """Weighted least-squares design of a linear-phase FIR with arbitrary magnitude.

    This is the workhorse behind the droop equalizer: the desired response is
    the inverse of the decimation chain's droop over the passband and small
    (don't-care or zero) beyond it.  ``frequencies`` are normalized to fs=1
    (0..0.5) and must be increasing; ``desired`` holds the target magnitude
    at those points.

    The design solves ``min Σ w(f)·|A(f) − D(f)|²`` over the symmetric
    (Type I) zero-phase amplitude ``A(f) = c0 + 2·Σ c_k·cos(2πkf)``.
    """
    if order % 2 != 0:
        raise ValueError("arbitrary-response design requires an even order (Type I FIR)")
    freqs = np.asarray(frequencies, dtype=float)
    target = np.asarray(desired, dtype=float)
    if weights is None:
        weights = np.ones_like(freqs)
    w = np.sqrt(np.asarray(weights, dtype=float))
    if len(freqs) != len(target) or len(freqs) != len(w):
        raise ValueError("frequencies, desired and weights must have equal length")
    half = order // 2
    # Basis matrix of the zero-phase amplitude response.
    basis = np.ones((len(freqs), half + 1))
    for k in range(1, half + 1):
        basis[:, k] = 2.0 * np.cos(2.0 * np.pi * k * freqs)
    a_matrix = basis * w[:, None]
    rhs = target * w
    coeffs, _, _, _ = np.linalg.lstsq(a_matrix, rhs, rcond=None)
    taps = np.zeros(order + 1)
    taps[half] = coeffs[0]
    for k in range(1, half + 1):
        taps[half - k] = coeffs[k]
        taps[half + k] = coeffs[k]
    return taps


def fir_response(taps: Sequence[float], sample_rate_hz: float,
                 frequencies_hz: Optional[np.ndarray] = None,
                 n_points: int = 4096, label: str = "FIR") -> FrequencyResponse:
    """Frequency response of an FIR filter referred to absolute frequencies."""
    if frequencies_hz is None:
        frequencies_hz = default_frequency_grid(sample_rate_hz, n_points)
    w = 2.0 * np.pi * np.asarray(frequencies_hz, dtype=float) / sample_rate_hz
    h = fir_freqz(np.asarray(taps, dtype=float), w)
    return FrequencyResponse(
        frequencies_hz=np.asarray(frequencies_hz, dtype=float),
        magnitude=h,
        sample_rate_hz=sample_rate_hz,
        label=label,
        metadata={"n_taps": len(list(taps))},
    )


@dataclass(frozen=True, eq=False)
class FIRFilterFixedPoint(BitTrueFIRStage):
    """Bit-true linear-phase FIR with CSD-quantized coefficients.

    The filter operates on integer samples.  Products carry
    ``coefficient_bits`` fractional bits which are rounded away at the
    output, matching the synthesized datapath.  Symmetry of the impulse
    response is exploited for the adder count (pre-addition of the two
    samples sharing a coefficient), as the paper's implementation does.

    The output is aligned to the group delay (``order // 2``) and keeps
    every ``decimation``-th sample; :meth:`process` runs the engines of
    :class:`~repro.filters.polyphase.BitTrueFIRStage` (an ``int64``
    strided matmul when the accumulator provably fits, the
    arbitrary-precision gold model otherwise).  The stage is immutable,
    with read-only tap arrays.
    """

    taps: np.ndarray
    coefficient_bits: int = 16
    data_bits: int = 16
    label: str = "FIR"
    decimation: int = 1
    csd_codes: Sequence[CSDCode] = ()

    def __post_init__(self) -> None:
        taps = read_only(np.asarray(self.taps, dtype=float))
        if taps.ndim != 1 or len(taps) == 0:
            raise ValueError("taps must be a non-empty 1-D array")
        if self.decimation < 1:
            raise ValueError("decimation must be at least 1")
        csd_codes = tuple(self.csd_codes
                          or encode_coefficients(taps, self.coefficient_bits))
        quantized_taps = read_only([c.value for c in csd_codes])
        int_taps = read_only(np.round(quantized_taps * (1 << self.coefficient_bits)
                                      ).astype(np.int64))
        vars(self).update(taps=taps, csd_codes=csd_codes,
                          quantized_taps=quantized_taps, _int_taps=int_taps,
                          _abs_tap_sum=int(np.abs(int_taps).sum()))

    @property
    def n_taps(self) -> int:
        """Number of filter taps."""
        return len(self.taps)

    @property
    def order(self) -> int:
        """Filter order (number of taps minus one)."""
        return self.n_taps - 1

    @cached_property
    def is_symmetric(self) -> bool:
        """Whether the tap vector is symmetric (linear phase)."""
        return bool(np.allclose(self.taps, self.taps[::-1], atol=1e-12))

    # ------------------------------------------------------------------
    # Processing
    # ------------------------------------------------------------------
    def _output_window(self, n: int) -> Tuple[int, int, int]:
        return self.order // 2, self.decimation, -(-n // self.decimation)

    def process_float(self, samples: np.ndarray) -> np.ndarray:
        """Floating-point reference using the quantized coefficients."""
        filtered = np.convolve(np.asarray(samples, dtype=float), self.quantized_taps)
        delay = self.order // 2
        aligned = filtered[delay:delay + len(samples)]
        if self.decimation > 1:
            aligned = aligned[::self.decimation]
        return aligned

    # ------------------------------------------------------------------
    # Hardware accounting
    # ------------------------------------------------------------------
    def adder_count(self) -> int:
        """Adders: CSD shift-adds per distinct coefficient plus tap combining.

        Symmetric taps share their multiplier (one pre-adder per pair), so
        only ``ceil(n/2)`` distinct coefficient multipliers are built.
        """
        n = self.n_taps
        if self.is_symmetric:
            distinct = (n + 1) // 2
            pre_adders = n // 2
            codes = self.csd_codes[:distinct]
        else:
            distinct = n
            pre_adders = 0
            codes = self.csd_codes
        csd_adders = sum(code.adder_cost for code in codes)
        combine_adders = max(0, distinct - 1)
        return csd_adders + pre_adders + combine_adders

    def resource_summary(self, input_rate_hz: float) -> dict:
        """Adder/register resources for the hardware model, at the given clock."""
        adders = self.adder_count()
        registers = self.n_taps - 1
        return {
            "label": self.label,
            "adders": adders,
            "adder_bits": adders * self.data_bits,
            "registers": registers,
            "register_bits": registers * self.data_bits,
            "word_width": self.data_bits,
            "fast_clock_hz": input_rate_hz,
            "slow_clock_hz": input_rate_hz / self.decimation,
            "fast_adders": 0,
            "slow_adders": adders,
            "coefficient_bits": self.coefficient_bits,
            "n_taps": self.n_taps,
        }
