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
from typing import List, Sequence, Tuple


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
