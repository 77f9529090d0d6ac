"""Internal quantizer model for delta-sigma modulators.

The paper's modulator uses a 4-bit quantizer (16 levels).  The model here
quantizes the loop-filter output to a uniform mid-rise level grid spanning the
full scale ±1 and reports the quantization error, which is what the
error-feedback simulation shapes through the NTF.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np


@dataclass(frozen=True)
class MultibitQuantizer:
    """A uniform multi-bit quantizer with full scale ±1.

    Attributes
    ----------
    bits:
        Number of quantizer bits; the quantizer has ``2**bits`` levels.
    full_scale:
        Half-range of the quantizer output (the paper's modulator uses a
        normalized full scale of 1).
    """

    bits: int = 4
    full_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.bits < 1:
            raise ValueError("quantizer must have at least 1 bit")
        if self.full_scale <= 0:
            raise ValueError("full_scale must be positive")

    @property
    def levels(self) -> int:
        """Number of quantizer output levels."""
        return 1 << self.bits

    @property
    def step(self) -> float:
        """Quantizer step size Δ (distance between adjacent output levels)."""
        return 2.0 * self.full_scale / (self.levels - 1)

    @property
    def level_values(self) -> np.ndarray:
        """The output level grid from ``-full_scale`` to ``+full_scale``."""
        return np.linspace(-self.full_scale, self.full_scale, self.levels)

    def quantize(self, x: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
        """Quantize ``x`` to the nearest level, saturating at full scale."""
        scalar = np.isscalar(x)
        arr = np.asarray(x, dtype=float)
        indices = np.round((arr + self.full_scale) / self.step)
        indices = np.clip(indices, 0, self.levels - 1)
        out = indices * self.step - self.full_scale
        if scalar:
            return float(out)
        return out

    def quantize_to_code(self, x: Union[float, np.ndarray]) -> Union[int, np.ndarray]:
        """Quantize and return the integer output code in ``[0, levels-1]``.

        These codes are what the decimation filter receives as its ``Bin``-bit
        input stream (4 bits for the paper's design).
        """
        scalar = np.isscalar(x)
        arr = np.asarray(x, dtype=float)
        indices = np.round((arr + self.full_scale) / self.step)
        indices = np.clip(indices, 0, self.levels - 1).astype(int)
        if scalar:
            return int(indices)
        return indices

    def code_to_value(self, code: Union[int, np.ndarray]) -> Union[float, np.ndarray]:
        """Map integer output codes back to quantizer output values."""
        arr = np.asarray(code, dtype=float)
        out = arr * self.step - self.full_scale
        if np.isscalar(code):
            return float(out)
        return out

    def error(self, x: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
        """Quantization error ``Q(x) - x`` (bounded by ±Δ/2 when not saturating)."""
        return self.quantize(x) - np.asarray(x, dtype=float)

    def is_saturating(self, x: Union[float, np.ndarray]) -> Union[bool, np.ndarray]:
        """Whether the input exceeds the outermost decision levels."""
        arr = np.asarray(x, dtype=float)
        limit = self.full_scale + self.step / 2.0
        out = np.abs(arr) > limit
        if np.isscalar(x):
            return bool(out)
        return out

    def theoretical_noise_power(self) -> float:
        """White-noise model quantization noise power Δ²/12."""
        return self.step ** 2 / 12.0
