"""Two's-complement fixed-point word model.

The CIC (Hogenauer) stages in the paper rely on *wrap-around* two's-complement
arithmetic: as long as the register width satisfies
``Bmax = K*log2(M) + Bin - 1`` the final output is correct even though the
intermediate accumulators overflow.  The halfband filter, scaler and
equalizer instead use saturating arithmetic with rounding.

The classes here model both behaviours explicitly.  They operate on plain
Python integers (arbitrary precision) or numpy integer arrays so that the
bit-true simulations of long bit-streams remain fast.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

Number = Union[int, float]


class OverflowMode(str, enum.Enum):
    """Behaviour when a value exceeds the representable range."""

    WRAP = "wrap"
    SATURATE = "saturate"
    ERROR = "error"


class RoundingMode(str, enum.Enum):
    """Behaviour when a value falls between representable steps."""

    FLOOR = "floor"
    NEAREST = "nearest"
    TRUNCATE = "truncate"


class FixedPointOverflowError(ArithmeticError):
    """Raised when a value overflows and :attr:`OverflowMode.ERROR` is active."""


def wrap_twos_complement(value: Union[int, np.ndarray], total_bits: int):
    """Wrap an integer into the two's-complement range of ``total_bits``.

    Parameters
    ----------
    value:
        Integer (or integer array) to wrap.
    total_bits:
        Total word width including the sign bit.

    Returns
    -------
    int or numpy.ndarray
        The wrapped value in ``[-2**(total_bits-1), 2**(total_bits-1) - 1]``.
    """
    if total_bits <= 0:
        raise ValueError("total_bits must be positive")
    modulus = 1 << total_bits
    half = 1 << (total_bits - 1)
    if isinstance(value, np.ndarray):
        wrapped = np.mod(value + half, modulus) - half
        return wrapped
    return ((int(value) + half) % modulus) - half


def saturate_twos_complement(value: Union[int, np.ndarray], total_bits: int):
    """Clamp an integer into the two's-complement range of ``total_bits``."""
    if total_bits <= 0:
        raise ValueError("total_bits must be positive")
    lo = -(1 << (total_bits - 1))
    hi = (1 << (total_bits - 1)) - 1
    if isinstance(value, np.ndarray):
        return np.clip(value, lo, hi)
    return max(lo, min(hi, int(value)))


@dataclass(frozen=True)
class FixedPointFormat:
    """A signed Q-format description.

    ``total_bits`` is the full register width including the sign bit and
    ``fraction_bits`` is the number of bits to the right of the binary point.
    The integer range is therefore ``[-2**(total_bits-1), 2**(total_bits-1)-1]``
    in raw (integer) units and the real-valued range is that divided by
    ``2**fraction_bits``.
    """

    total_bits: int
    fraction_bits: int = 0
    overflow: OverflowMode = OverflowMode.WRAP
    rounding: RoundingMode = RoundingMode.NEAREST

    def __post_init__(self) -> None:
        if self.total_bits <= 0:
            raise ValueError("total_bits must be positive")
        if self.fraction_bits < 0:
            raise ValueError("fraction_bits must be non-negative")
        if self.fraction_bits >= self.total_bits + 64:
            raise ValueError("fraction_bits is implausibly large")

    # ------------------------------------------------------------------
    # Range helpers
    # ------------------------------------------------------------------
    @property
    def integer_bits(self) -> int:
        """Number of bits left of the binary point (excluding the sign bit)."""
        return self.total_bits - self.fraction_bits - 1

    @property
    def scale(self) -> int:
        """The weight of one least-significant bit expressed as ``2**fraction_bits``."""
        return 1 << self.fraction_bits

    @property
    def min_int(self) -> int:
        """Smallest representable raw integer value."""
        return -(1 << (self.total_bits - 1))

    @property
    def max_int(self) -> int:
        """Largest representable raw integer value."""
        return (1 << (self.total_bits - 1)) - 1

    @property
    def min_value(self) -> float:
        """Smallest representable real value."""
        return self.min_int / self.scale

    @property
    def max_value(self) -> float:
        """Largest representable real value."""
        return self.max_int / self.scale

    @property
    def resolution(self) -> float:
        """Value of one LSB."""
        return 1.0 / self.scale

    def with_overflow(self, overflow: OverflowMode) -> "FixedPointFormat":
        """Copy of this format with a different overflow mode."""
        return FixedPointFormat(self.total_bits, self.fraction_bits, overflow, self.rounding)

    def with_rounding(self, rounding: RoundingMode) -> "FixedPointFormat":
        """Copy of this format with a different rounding mode."""
        return FixedPointFormat(self.total_bits, self.fraction_bits, self.overflow, rounding)

    def widened(self, extra_bits: int) -> "FixedPointFormat":
        """Return the same format with ``extra_bits`` more total bits."""
        return FixedPointFormat(
            self.total_bits + extra_bits, self.fraction_bits, self.overflow, self.rounding
        )

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def to_raw(self, value: Number) -> int:
        """Convert a real value to the raw integer representation."""
        scaled = float(value) * self.scale
        if self.rounding is RoundingMode.NEAREST:
            raw = int(math.floor(scaled + 0.5))
        elif self.rounding is RoundingMode.FLOOR:
            raw = int(math.floor(scaled))
        else:  # TRUNCATE — toward zero
            raw = int(scaled)
        return self.handle_overflow(raw)

    def to_raw_array(self, values: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`to_raw` returning an object/int64 array."""
        scaled = np.asarray(values, dtype=float) * self.scale
        if self.rounding is RoundingMode.NEAREST:
            raw = np.floor(scaled + 0.5)
        elif self.rounding is RoundingMode.FLOOR:
            raw = np.floor(scaled)
        else:
            raw = np.trunc(scaled)
        raw = raw.astype(np.int64)
        return self.handle_overflow_array(raw)

    def from_raw(self, raw: Union[int, np.ndarray]):
        """Convert a raw integer (array) back to a real value (array)."""
        if isinstance(raw, np.ndarray):
            return raw.astype(float) / self.scale
        return raw / self.scale

    def handle_overflow(self, raw: int) -> int:
        """Apply the overflow mode (wrap/saturate) to a raw integer."""
        if self.min_int <= raw <= self.max_int:
            return raw
        if self.overflow is OverflowMode.WRAP:
            return wrap_twos_complement(raw, self.total_bits)
        if self.overflow is OverflowMode.SATURATE:
            return saturate_twos_complement(raw, self.total_bits)
        raise FixedPointOverflowError(
            f"value {raw} does not fit in {self.total_bits}-bit word "
            f"(range [{self.min_int}, {self.max_int}])"
        )

    def handle_overflow_array(self, raw: np.ndarray) -> np.ndarray:
        """Apply the overflow mode (wrap/saturate) to a raw integer array."""
        if self.overflow is OverflowMode.WRAP:
            return wrap_twos_complement(raw, self.total_bits)
        if self.overflow is OverflowMode.SATURATE:
            return saturate_twos_complement(raw, self.total_bits)
        if np.any(raw < self.min_int) or np.any(raw > self.max_int):
            raise FixedPointOverflowError(
                f"array overflow in {self.total_bits}-bit word"
            )
        return raw

    def quantize(self, value: Number) -> float:
        """Quantize a real value to the nearest representable value."""
        return self.from_raw(self.to_raw(value))

    def quantize_array(self, values: Iterable[Number]) -> np.ndarray:
        """Quantize a float array to raw integers under this format."""
        arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values, dtype=float)
        return self.from_raw(self.to_raw_array(arr))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"Q{self.integer_bits}.{self.fraction_bits} ({self.total_bits}b, {self.overflow.value})"


@dataclass(frozen=True)
class FixedPointWord:
    """An immutable fixed-point value: a raw integer bound to a format.

    Arithmetic between words produces a word in the *wider* of the two
    formats (enough bits to hold the exact result would require growing the
    format; filter code that needs full-precision growth manages register
    widths explicitly instead).
    """

    raw: int
    fmt: FixedPointFormat

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_value(cls, value: Number, fmt: FixedPointFormat) -> "FixedPointWord":
        """Build a word from a real value under the given format."""
        return cls(fmt.to_raw(value), fmt)

    @classmethod
    def zero(cls, fmt: FixedPointFormat) -> "FixedPointWord":
        """The all-zero word of the given format."""
        return cls(0, fmt)

    # ------------------------------------------------------------------
    # Value access
    # ------------------------------------------------------------------
    @property
    def value(self) -> float:
        """The real value this word represents."""
        return self.fmt.from_raw(self.raw)

    def bits(self) -> str:
        """Return the two's-complement bit pattern as a string (MSB first)."""
        mask = (1 << self.fmt.total_bits) - 1
        return format(self.raw & mask, f"0{self.fmt.total_bits}b")

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def _coerce(self, other: Union["FixedPointWord", Number]) -> "FixedPointWord":
        if isinstance(other, FixedPointWord):
            return other
        return FixedPointWord.from_value(other, self.fmt)

    def _result_format(self, other: "FixedPointWord") -> FixedPointFormat:
        if other.fmt.fraction_bits != self.fmt.fraction_bits:
            raise ValueError(
                "fixed-point addition requires aligned binary points; "
                f"got {self.fmt} and {other.fmt}"
            )
        if other.fmt.total_bits >= self.fmt.total_bits:
            return other.fmt
        return self.fmt

    def __add__(self, other: Union["FixedPointWord", Number]) -> "FixedPointWord":
        other = self._coerce(other)
        fmt = self._result_format(other)
        return FixedPointWord(fmt.handle_overflow(self.raw + other.raw), fmt)

    def __sub__(self, other: Union["FixedPointWord", Number]) -> "FixedPointWord":
        other = self._coerce(other)
        fmt = self._result_format(other)
        return FixedPointWord(fmt.handle_overflow(self.raw - other.raw), fmt)

    def __neg__(self) -> "FixedPointWord":
        return FixedPointWord(self.fmt.handle_overflow(-self.raw), self.fmt)

    def multiply(self, other: "FixedPointWord", out_fmt: FixedPointFormat) -> "FixedPointWord":
        """Full-precision multiply followed by requantization into ``out_fmt``."""
        product = self.raw * other.raw
        shift = self.fmt.fraction_bits + other.fmt.fraction_bits - out_fmt.fraction_bits
        if shift > 0:
            if out_fmt.rounding is RoundingMode.NEAREST:
                product = (product + (1 << (shift - 1))) >> shift
            else:
                product >>= shift
        elif shift < 0:
            product <<= -shift
        return FixedPointWord(out_fmt.handle_overflow(product), out_fmt)

    def shift_right(self, bits: int, rounding: RoundingMode = RoundingMode.FLOOR) -> "FixedPointWord":
        """Arithmetic right shift keeping the same format (value divided by 2**bits)."""
        if bits < 0:
            raise ValueError("shift amount must be non-negative")
        raw = self.raw
        if rounding is RoundingMode.NEAREST and bits > 0:
            raw += 1 << (bits - 1)
        return FixedPointWord(self.fmt.handle_overflow(raw >> bits), self.fmt)

    def resize(self, fmt: FixedPointFormat) -> "FixedPointWord":
        """Re-represent the same value in a different format."""
        shift = fmt.fraction_bits - self.fmt.fraction_bits
        raw = self.raw
        if shift >= 0:
            raw <<= shift
        else:
            offset = 1 << (-shift - 1) if fmt.rounding is RoundingMode.NEAREST else 0
            raw = (raw + offset) >> (-shift)
        return FixedPointWord(fmt.handle_overflow(raw), fmt)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FixedPointWord):
            return self.raw == other.raw and self.fmt == other.fmt
        if isinstance(other, (int, float)):
            return self.value == float(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.raw, self.fmt))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FixedPointWord({self.value!r}, {self.fmt})"
