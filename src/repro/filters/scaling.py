"""Scaling stage (Section VI of the paper).

The modulator's maximum stable amplitude (MSA) limits the usable input swing
to 81 % of full scale, so the decimated signal only spans ±0.81 of the
digital range.  The scaling stage multiplies by a constant slightly below
``1/MSA`` — the paper uses ``S = 10.825/2^3... = 1.2345`` expressed as
``10.825`` after the Sinc gain normalization — to restore the full dynamic
range of the digital output without overflowing subsequent stages.  The
constant is CSD encoded and evaluated with nested Horner's rule to minimize
power and area.

The chain chooses the factor (``scaling_headroom / msa``); this stage
implements the constant multiplication as CSD/Horner shift-adds, bit-true,
with resource accounting for the hardware model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.filters.polyphase import int64_accumulator_safe
from repro.fixedpoint.csd import CSDCode, to_csd, csd_multiply_int
from repro.fixedpoint.horner import horner_decomposition, horner_adder_count
from repro.frozen import FrozenRecord


@dataclass(frozen=True)
class ScalingStage(FrozenRecord):
    """CSD/Horner implementation of the constant gain stage.

    Attributes
    ----------
    scale:
        The real-valued gain to apply.
    coefficient_bits:
        Fractional bits used for the CSD encoding of the gain.
    data_bits:
        Width of the data path (used only for resource accounting).

    Immutable (a :class:`~repro.frozen.FrozenRecord`).
    """

    scale: float
    coefficient_bits: int = 12
    data_bits: int = 16
    label: str = "Scaling"
    csd: Optional[CSDCode] = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        csd = self.csd if self.csd is not None else to_csd(self.scale,
                                                             self.coefficient_bits)
        vars(self).update(
            csd=csd,
            horner_steps=tuple(horner_decomposition(csd)),
            # The shift-add network multiplies by this exact integer: CSD
            # digits whose shifted weight falls below the product LSB are
            # truncated by csd_multiply_int, so the constant is rebuilt from
            # the surviving digits rather than from the rounded real value.
            _int_multiplier=sum(
                sign << (weight + self.coefficient_bits)
                for weight, sign in csd.digits
                if weight + self.coefficient_bits >= 0),
            metadata={"quantized_scale": csd.value,
                      "scale_error": csd.value - self.scale,
                      **self.metadata})
        super().__post_init__()

    @property
    def quantized_scale(self) -> float:
        """The gain actually applied after CSD quantization."""
        return self.csd.value

    # ------------------------------------------------------------------
    # Processing
    # ------------------------------------------------------------------
    def process(self, samples: np.ndarray) -> np.ndarray:
        """Bit-true scaling of integer samples.

        Each sample is multiplied by the CSD-encoded constant using shifts
        and adds only; the ``coefficient_bits`` fractional bits of the
        product are rounded away at the output.  The shift-add network
        computes an exact integer constant multiplication, so whenever the
        product provably fits ``int64`` the stage is a plain elementwise
        multiply by that constant (any shape, including ``(batch, n)``) —
        bit-exact with the shift-add gold model :meth:`_process_reference`,
        which runs otherwise.
        """
        samples = np.asarray(samples)
        if not int64_accumulator_safe(samples, abs(self._int_multiplier)):
            if samples.ndim == 2:
                return np.stack([self._process_reference(row) for row in samples])
            return self._process_reference(samples)
        product = samples.astype(np.int64, copy=False) * np.int64(self._int_multiplier)
        product += 1 << (self.coefficient_bits - 1)
        product >>= self.coefficient_bits
        return product

    def _process_reference(self, samples: np.ndarray) -> np.ndarray:
        """Gold model: CSD shift-add evaluation in Python integers (1-D)."""
        half = 1 << (self.coefficient_bits - 1)
        return np.array([
            (csd_multiply_int(int(v), self.csd, self.coefficient_bits) + half)
            >> self.coefficient_bits for v in samples.tolist()], dtype=object)

    def process_float(self, samples: np.ndarray) -> np.ndarray:
        """Floating-point reference using the quantized gain."""
        return np.asarray(samples, dtype=float) * self.quantized_scale

    # ------------------------------------------------------------------
    # Hardware accounting
    # ------------------------------------------------------------------
    def adder_count(self) -> int:
        """Adders of the nested Horner implementation (one per extra CSD digit)."""
        return horner_adder_count(self.horner_steps)

    def resource_summary(self, input_rate_hz: float) -> dict:
        """Adder/register resources for the hardware model, at the given clock."""
        adders = self.adder_count()
        # The Horner partial results carry the full product width (data plus
        # coefficient fraction bits) and each nested step is pipelined, so
        # the adders and registers are product-width, not data-width.
        product_width = self.data_bits + self.coefficient_bits
        registers = len(self.horner_steps) + 1
        return {
            "label": self.label,
            "adders": adders,
            "adder_bits": adders * product_width,
            "registers": registers,
            "register_bits": registers * product_width,
            "word_width": product_width,
            "fast_clock_hz": input_rate_hz,
            "slow_clock_hz": input_rate_hz,
            "fast_adders": 0,
            "slow_adders": adders,
            "coefficient_bits": self.coefficient_bits,
            "csd_digits": self.csd.nonzero_digits,
        }
