"""Fixed-point and canonical-signed-digit (CSD) arithmetic substrate.

The decimation filters in the paper are implemented with two's-complement
fixed-point arithmetic (wrap-around in the CIC stages, saturating elsewhere)
and with CSD-encoded coefficients so that every coefficient multiplication
becomes a small number of shift-and-add operations.

This package provides:

* :class:`~repro.fixedpoint.word.FixedPointFormat` and
  :class:`~repro.fixedpoint.word.FixedPointWord` — a Q-format container with
  explicit wrap/saturate overflow semantics and bit-true arithmetic helpers.
* :mod:`~repro.fixedpoint.csd` — CSD encoding/decoding, digit-count
  accounting and CSD-based shift-add multiplication.
* :mod:`~repro.fixedpoint.quantize` — coefficient quantization utilities
  (round-to-nearest fixed point, CSD with a bounded number of non-zero
  digits).
* :mod:`~repro.fixedpoint.horner` — nested (Horner-rule) evaluation of a
  CSD-encoded constant multiplication, as used by the scaling stage.
"""

from repro.fixedpoint.word import (
    FixedPointFormat,
    FixedPointWord,
    OverflowMode,
    RoundingMode,
    wrap_twos_complement,
    saturate_twos_complement,
)
from repro.fixedpoint.csd import (
    CSDCode,
    to_csd,
    from_csd,
    csd_multiply,
    csd_string,
)
from repro.fixedpoint.quantize import (
    QuantizedCoefficients,
    quantize_coefficients,
    quantize_coefficients_csd,
)
from repro.fixedpoint.horner import (
    HornerStep,
    horner_decomposition,
    horner_evaluate,
)

__all__ = [
    "FixedPointFormat",
    "FixedPointWord",
    "OverflowMode",
    "RoundingMode",
    "wrap_twos_complement",
    "saturate_twos_complement",
    "CSDCode",
    "to_csd",
    "from_csd",
    "csd_multiply",
    "csd_string",
    "QuantizedCoefficients",
    "quantize_coefficients",
    "quantize_coefficients_csd",
    "HornerStep",
    "horner_decomposition",
    "horner_evaluate",
]
