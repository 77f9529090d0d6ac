"""Canonical-signed-digit (CSD) coefficient arithmetic.

The paper encodes the halfband, scaling and equalizer coefficients in CSD
so that every coefficient multiplication becomes a small number of
shift-and-add operations.  The chain's word rules live with the stages
that apply them: the Sinc registers wrap
(:func:`~repro.filters.hogenauer.wrap_twos_complement`, Eq. 2) and the
output word rounds half-up and saturates
(:class:`~repro.core.chain.DecimationChain`).

This package provides:

* :mod:`~repro.fixedpoint.csd` — CSD encoding/decoding, digit-count
  accounting and the bit-true integer CSD multiply.
* :mod:`~repro.fixedpoint.horner` — nested (Horner-rule) evaluation of a
  CSD-encoded constant multiplication, as used by the scaling stage.
"""

from repro.fixedpoint.csd import (
    CSDCode,
    to_csd,
    from_csd,
    csd_string,
)
from repro.fixedpoint.horner import (
    HornerStep,
    horner_decomposition,
    horner_evaluate,
)

__all__ = [
    "CSDCode",
    "to_csd",
    "from_csd",
    "csd_string",
    "HornerStep",
    "horner_decomposition",
    "horner_evaluate",
]
