"""Coefficient quantization utilities.

The design flow quantizes every filter's tap coefficients to a finite word
length (24 bits for the halfband filter in the paper) and verifies that the
quantized cascade still meets the stopband/passband mask of Table I.  The
helpers here perform straight fixed-point rounding and CSD encoding with a
digit budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.fixedpoint.csd import CSDCode, encode_coefficients
from repro.fixedpoint.word import (
    FixedPointFormat,
    OverflowMode,
    RoundingMode,
)


@dataclass
class QuantizedCoefficients:
    """Result of quantizing a coefficient vector.

    Attributes
    ----------
    original:
        The infinite-precision coefficients.
    quantized:
        The coefficients after quantization (same length as ``original``).
    fraction_bits:
        Number of fractional bits used.
    csd_codes:
        CSD encodings of each quantized coefficient (present when CSD
        quantization was requested).
    """

    original: np.ndarray
    quantized: np.ndarray
    fraction_bits: int
    csd_codes: Optional[List[CSDCode]] = None
    metadata: dict = field(default_factory=dict)

    @property
    def max_error(self) -> float:
        """Largest absolute coefficient error introduced by quantization."""
        return float(np.max(np.abs(self.quantized - self.original)))

    @property
    def total_adders(self) -> int:
        """Total shift-add cost of the quantized coefficients (CSD if available)."""
        if self.csd_codes is not None:
            return int(sum(code.adder_cost for code in self.csd_codes))
        # Fall back to counting set bits of the two's-complement representation.
        scale = 1 << self.fraction_bits
        total = 0
        for c in self.quantized:
            raw = abs(int(round(float(c) * scale)))
            total += max(0, bin(raw).count("1") - 1)
        return total

    def __len__(self) -> int:
        return len(self.quantized)


def quantize_coefficients(coefficients: Sequence[float], fraction_bits: int,
                          total_bits: Optional[int] = None) -> QuantizedCoefficients:
    """Round coefficients to ``fraction_bits`` fractional bits.

    ``total_bits`` defaults to a width wide enough to hold the largest
    coefficient; coefficients exceeding the range saturate.
    """
    coeffs = np.asarray(coefficients, dtype=float)
    if coeffs.ndim != 1:
        raise ValueError("coefficients must be a one-dimensional sequence")
    if total_bits is None:
        max_mag = float(np.max(np.abs(coeffs))) if coeffs.size else 0.0
        integer_bits = max(0, int(np.ceil(np.log2(max_mag + 1e-300))) + 1) if max_mag >= 1.0 else 0
        total_bits = integer_bits + fraction_bits + 1
    fmt = FixedPointFormat(total_bits, fraction_bits,
                           overflow=OverflowMode.SATURATE,
                           rounding=RoundingMode.NEAREST)
    quantized = fmt.quantize_array(coeffs)
    return QuantizedCoefficients(
        original=coeffs,
        quantized=quantized,
        fraction_bits=fraction_bits,
        metadata={"total_bits": total_bits},
    )


def quantize_coefficients_csd(coefficients: Sequence[float], fraction_bits: int,
                              max_nonzero: Optional[int] = None) -> QuantizedCoefficients:
    """Quantize coefficients to CSD with an optional per-coefficient digit budget."""
    coeffs = np.asarray(coefficients, dtype=float)
    codes = encode_coefficients(coeffs, fraction_bits, max_nonzero)
    quantized = np.array([code.value for code in codes], dtype=float)
    return QuantizedCoefficients(
        original=coeffs,
        quantized=quantized,
        fraction_bits=fraction_bits,
        csd_codes=codes,
        metadata={"max_nonzero": max_nonzero},
    )
