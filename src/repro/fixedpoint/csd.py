"""Canonical Signed Digit (CSD) representation.

CSD represents a binary number with digits drawn from ``{-1, 0, +1}`` such
that no two consecutive digits are non-zero.  For FIR coefficient
multiplication this minimizes the number of shift-and-add operations: a
coefficient with ``n`` non-zero CSD digits costs ``n - 1`` adders and no true
multiplier.  The paper encodes the halfband, scaling and equalizer
coefficients in CSD to reduce power and area (Section V/VI, ref. [18]).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class CSDCode:
    """A CSD encoding of a real coefficient.

    Attributes
    ----------
    digits:
        Tuple of ``(weight, sign)`` pairs.  The encoded value is
        ``sum(sign * 2**weight)``.  Weights may be negative for fractional
        coefficients.
    value:
        The exact value represented by ``digits``.
    original:
        The real value that was encoded (before any digit-count truncation).
    """

    digits: Tuple[Tuple[int, int], ...]
    value: float
    original: float

    @property
    def nonzero_digits(self) -> int:
        """Number of non-zero CSD digits."""
        return len(self.digits)

    @property
    def adder_cost(self) -> int:
        """Number of two-input adders needed to multiply by this coefficient.

        A coefficient with ``n`` non-zero digits requires ``n - 1`` additions
        (shifts are free in hardware).  A zero coefficient costs nothing.
        """
        return max(0, len(self.digits) - 1)

    @property
    def error(self) -> float:
        """Quantization error introduced by the encoding."""
        return self.value - self.original

    def evaluate(self, x: float = 1.0) -> float:
        """Multiply ``x`` by the encoded coefficient using shift-adds."""
        return csd_multiply(x, self)

    def __deepcopy__(self, memo) -> "CSDCode":
        # Immutable all the way down (frozen, a tuple of int pairs, two
        # floats), like the shared instances :func:`to_csd` returns: a deep
        # copy of a design (a store hit) can share it.  The halfband's
        # codes were most of that copy's cost.
        return self

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return csd_string(self)


def _binary_to_csd_digits(raw: int) -> List[Tuple[int, int]]:
    """Convert a non-negative integer to CSD ``(weight, sign)`` digits.

    Uses the classic non-adjacent-form recoding: scanning from the LSB, runs
    of ones ``0111...1`` are replaced by ``100...0(-1)``.
    """
    digits: List[Tuple[int, int]] = []
    weight = 0
    n = raw
    while n != 0:
        if n & 1:
            # Remainder mod 4 decides whether this position becomes +1 or -1.
            if n & 2:
                digits.append((weight, -1))
                n += 1
            else:
                digits.append((weight, 1))
                n -= 1
        n >>= 1
        weight += 1
    return digits


@lru_cache(maxsize=65536)
def to_csd(value: float, fraction_bits: int = 16, max_nonzero: int = None) -> CSDCode:
    """Encode ``value`` in CSD with ``fraction_bits`` of fractional precision.

    The result is memoized (:class:`CSDCode` is frozen, so sharing the
    instance is safe): the halfband CSD refinement re-quantizes the same
    coefficient values hundreds of times per design.

    Parameters
    ----------
    value:
        Real coefficient to encode.
    fraction_bits:
        The coefficient is first rounded to a multiple of ``2**-fraction_bits``.
    max_nonzero:
        If given, keep only the ``max_nonzero`` most-significant non-zero
        digits (greedy truncation).  This is how the designer trades
        stopband attenuation against adder count.

    Returns
    -------
    CSDCode
    """
    if fraction_bits < 0:
        raise ValueError("fraction_bits must be non-negative")
    scale = 1 << fraction_bits
    raw = int(round(float(value) * scale))
    sign = 1
    if raw < 0:
        sign = -1
        raw = -raw
    digits = _binary_to_csd_digits(raw)
    # Express weights relative to the binary point and apply the sign.
    digits = [(w - fraction_bits, sign * s) for w, s in digits]
    # Most-significant first for readability and greedy truncation.
    digits.sort(key=lambda d: -d[0])
    if max_nonzero is not None and max_nonzero >= 0:
        digits = digits[:max_nonzero]
    encoded_value = float(sum(s * (2.0 ** w) for w, s in digits))
    return CSDCode(digits=tuple(digits), value=encoded_value, original=float(value))


def from_csd(code: CSDCode) -> float:
    """Decode a :class:`CSDCode` back to its real value."""
    return float(sum(s * (2.0 ** w) for w, s in code.digits))


def csd_nonzero_digits(value: float, fraction_bits: int = 16) -> int:
    """Number of non-zero CSD digits needed to represent ``value`` exactly
    after rounding to ``fraction_bits`` fractional bits."""
    return to_csd(value, fraction_bits).nonzero_digits


def csd_adder_cost(coefficients: Sequence[float], fraction_bits: int = 16) -> int:
    """Total adder cost of multiplying by each coefficient in ``coefficients``.

    This is the hardware-cost metric the paper optimizes: the Saramäki
    halfband filter uses "only 124 adders (no true multiplications)".
    """
    total = 0
    for c in coefficients:
        code = to_csd(float(c), fraction_bits)
        total += code.adder_cost
    return total


def csd_multiply(x: float, code: CSDCode) -> float:
    """Multiply ``x`` by a CSD-encoded coefficient using shift-and-add only.

    The implementation mirrors what the generated RTL does: each non-zero
    digit contributes ``±(x << w)`` (or a right-shift for fractional
    weights), and the partial products are summed.
    """
    acc = 0.0
    for weight, sign in code.digits:
        acc += sign * x * (2.0 ** weight)
    return acc


def csd_multiply_int(x: int, code: CSDCode, fraction_bits: int) -> int:
    """Bit-true integer multiply by a CSD coefficient.

    ``x`` is an integer sample; the coefficient digits are shifted by
    ``fraction_bits`` so the result is the full-precision product
    ``round(x * coeff * 2**fraction_bits)`` computed exactly with shifts and
    adds.  Digits whose shifted weight is still negative are dropped, which
    matches hardware that truncates sub-LSB partial products.
    """
    acc = 0
    for weight, sign in code.digits:
        w = weight + fraction_bits
        if w >= 0:
            acc += sign * (x << w)
        # Negative shifted weights are below the LSB of the product and are
        # truncated, exactly as the synthesized datapath would.
    return acc


def csd_string(code: CSDCode) -> str:
    """Human-readable CSD string, e.g. ``+2^-1 -2^-4 +2^-7``."""
    if not code.digits:
        return "0"
    parts = []
    for weight, sign in code.digits:
        mark = "+" if sign > 0 else "-"
        parts.append(f"{mark}2^{weight}")
    return " ".join(parts)


def encode_coefficients(coefficients: Sequence[float], fraction_bits: int = 16,
                        max_nonzero: int = None) -> List[CSDCode]:
    """Encode a whole coefficient vector in CSD."""
    return [to_csd(float(c), fraction_bits, max_nonzero) for c in coefficients]


def csd_statistics(coefficients: Sequence[float], fraction_bits: int = 16) -> Dict[str, float]:
    """Summary statistics used by the hardware cost model and reports."""
    codes = encode_coefficients(coefficients, fraction_bits)
    nonzeros = np.array([c.nonzero_digits for c in codes], dtype=int)
    adders = np.array([c.adder_cost for c in codes], dtype=int)
    errors = np.array([c.error for c in codes], dtype=float)
    return {
        "coefficients": len(codes),
        "total_nonzero_digits": int(nonzeros.sum()),
        "total_adders": int(adders.sum()),
        "mean_nonzero_digits": float(nonzeros.mean()) if len(codes) else 0.0,
        "max_abs_error": float(np.max(np.abs(errors))) if len(codes) else 0.0,
    }
