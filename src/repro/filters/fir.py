"""General FIR design wrappers and bit-true FIR machinery.

The last stage of the paper's chain is a 64th-order linear-phase FIR
equalizer designed with the Parks–McClellan algorithm (``firpm`` in MATLAB);
its coefficients are CSD encoded and the filter runs at the decimated
Nyquist rate of 40 MHz.  This module provides:

* thin wrappers over the scipy equivalents of ``firpm``/``firls`` used by
  the equalizer and by the ablation baselines, and
* :class:`FIRFilterFixedPoint` — a bit-true direct-form implementation with
  CSD-quantized coefficients, used by the chain simulator and by the
  switching-activity power estimation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy import signal

from repro.filters.polyphase import BitTrueFIRStage
from repro.filters.response import FrequencyResponse, default_frequency_grid
from repro.fixedpoint.csd import CSDCode, encode_coefficients


def design_lowpass_remez(order: int, passband: float, stopband: float,
                         passband_weight: float = 1.0,
                         stopband_weight: float = 1.0) -> np.ndarray:
    """Equiripple low-pass FIR design (normalized frequencies, fs = 1)."""
    if order < 2:
        raise ValueError("order must be at least 2")
    if not 0.0 < passband < stopband < 0.5:
        raise ValueError("0 < passband < stopband < 0.5 required")
    return signal.remez(order + 1, [0.0, passband, stopband, 0.5], [1.0, 0.0],
                        weight=[passband_weight, stopband_weight], fs=1.0)


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
    _, h = signal.freqz(np.asarray(taps, dtype=float), worN=w)
    return FrequencyResponse(
        frequencies_hz=np.asarray(frequencies_hz, dtype=float),
        magnitude=h,
        sample_rate_hz=sample_rate_hz,
        label=label,
        metadata={"n_taps": len(list(taps))},
    )


@dataclass
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
    arbitrary-precision gold model otherwise).
    """

    taps: np.ndarray
    coefficient_bits: int = 16
    data_bits: int = 16
    label: str = "FIR"
    decimation: int = 1
    csd_codes: List[CSDCode] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.taps = np.asarray(self.taps, dtype=float)
        if self.taps.ndim != 1 or len(self.taps) == 0:
            raise ValueError("taps must be a non-empty 1-D array")
        if self.decimation < 1:
            raise ValueError("decimation must be at least 1")
        if not self.csd_codes:
            self.csd_codes = encode_coefficients(self.taps, self.coefficient_bits)
        scale = 1 << self.coefficient_bits
        self._int_taps = np.array([int(round(float(c.value) * scale))
                                   for c in self.csd_codes], dtype=object)
        self._abs_tap_sum = int(sum(abs(int(t)) for t in self._int_taps))
        self.quantized_taps = np.array([c.value for c in self.csd_codes])

    @property
    def n_taps(self) -> int:
        """Number of filter taps."""
        return len(self.taps)

    @property
    def order(self) -> int:
        """Filter order (number of taps minus one)."""
        return self.n_taps - 1

    @property
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
