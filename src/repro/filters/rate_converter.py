"""Output sample-rate converter (Section III of the paper).

"A sample rate converter is often used after the decimation filter for
allowing flexibility in the output sample rate for a direct interface to the
digital receiver blocks" — the paper cites the AD9262's flexible output rate
as the motivation.  This module provides that block: a Farrow-structure
fractional resampler (cubic Lagrange interpolator) operating on the 40 MHz
decimated output, so the chain can feed receivers expecting, e.g., 30.72 MS/s
(LTE) or 61.44/2 MS/s without redesigning the decimation filter.

The Farrow structure evaluates the interpolating polynomial with a handful of
multiply-adds per output sample and needs no per-rate coefficient storage,
which is why it is the standard hardware choice for this block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Farrow coefficient matrix of the 4-tap cubic Lagrange interpolator.
#: Row ``k`` holds the polynomial coefficients (in the fractional delay µ)
#: applied to input sample ``x[n-1+k]`` with k = 0..3 covering
#: ``x[n-1], x[n], x[n+1], x[n+2]``.
_LAGRANGE_FARROW = np.array([
    #  1        mu       mu^2     mu^3
    [0.0, -1.0 / 3.0, 1.0 / 2.0, -1.0 / 6.0],   # x[n-1]
    [1.0, -1.0 / 2.0, -1.0, 1.0 / 2.0],          # x[n]
    [0.0, 1.0, 1.0 / 2.0, -1.0 / 2.0],           # x[n+1]
    [0.0, -1.0 / 6.0, 0.0, 1.0 / 6.0],           # x[n+2]
])


@dataclass
class FarrowRateConverter:
    """Fractional sample-rate converter built on a cubic Farrow interpolator.

    Attributes
    ----------
    input_rate_hz:
        Rate of the incoming samples (the decimator output rate, 40 MHz in
        the paper's system).
    output_rate_hz:
        Desired output rate.  Any positive ratio below ``input_rate_hz`` (and
        modest interpolation above it) is supported; for the ADC use-case the
        ratio is close to one.
    """

    input_rate_hz: float
    output_rate_hz: float
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.input_rate_hz <= 0 or self.output_rate_hz <= 0:
            raise ValueError("rates must be positive")
        if self.output_rate_hz > 2.0 * self.input_rate_hz:
            raise ValueError("the cubic interpolator supports at most 2x interpolation")

    @property
    def conversion_ratio(self) -> float:
        """Input samples consumed per output sample (``f_in / f_out``)."""
        return self.input_rate_hz / self.output_rate_hz

    # ------------------------------------------------------------------
    # Processing
    # ------------------------------------------------------------------
    def process(self, samples: np.ndarray) -> np.ndarray:
        """Resample a block of samples to the output rate.

        The first and last couple of samples of the block are used only as
        interpolation support, so the output length is approximately
        ``(len(samples) - 3) / conversion_ratio`` (exactly
        :meth:`expected_output_count`).

        The evaluation is vectorized: all fractional positions are derived
        with one cumulative sum (the same sequentially-rounded values the
        original per-sample loop produced), and the four Farrow branch
        polynomials are evaluated for every output sample with a single
        ``(4, n)`` matrix product.
        """
        x = np.asarray(samples, dtype=float)
        if len(x) < 4:
            return np.zeros(0)
        positions = self._positions(len(x))
        if positions.size == 0:
            return np.zeros(0)
        base = np.floor(positions).astype(np.int64)
        mu = positions - base
        mu_powers = np.vstack((np.ones_like(mu), mu, mu * mu, mu * mu * mu))
        weights = _LAGRANGE_FARROW @ mu_powers            # (4, n_out)
        windows = x[base[:, None] + np.arange(-1, 3)]     # (n_out, 4)
        return np.einsum("ij,ji->i", windows, weights)

    def _positions(self, n_input: int) -> np.ndarray:
        """Fractional input positions of every output sample.

        Position ``k`` is the k-fold sequential sum ``1.0 + ratio + ...``
        (one :func:`numpy.cumsum`, reproducing the rounding of an
        accumulator loop); interpolation starts between ``x[1]`` and
        ``x[2]`` and stops two samples short of the end, where the 4-tap
        window would run out of support.
        """
        ratio = self.conversion_ratio
        limit = n_input - 2.0
        if limit <= 1.0:
            return np.zeros(0)
        bound = int(np.ceil((limit - 1.0) / ratio)) + 2
        steps = np.full(bound, ratio)
        steps[0] = 1.0
        positions = np.cumsum(steps)
        return positions[positions < limit]

    def expected_output_count(self, n_input: int) -> int:
        """Number of output samples :meth:`process` produces for a block."""
        return int(self._positions(n_input).size)

    # ------------------------------------------------------------------
    # Hardware accounting
    # ------------------------------------------------------------------
    def resource_summary(self, data_bits: int = 14) -> dict:
        """Adder/multiplier resources of the Farrow structure."""
        # Four 3rd-order polynomial branches evaluated with Horner's rule:
        # 3 multiply-adds each, plus the 3 adders of the final mu-combination.
        multipliers = 4 * 3
        adders = 4 * 3 + 3
        registers = 4 + 3  # delay line + mu accumulator/pipeline
        return {
            "label": "Sample-rate converter",
            "adders": adders,
            "multipliers": multipliers,
            "adder_bits": adders * data_bits,
            "registers": registers,
            "register_bits": registers * data_bits,
            "word_width": data_bits,
            "fast_clock_hz": self.input_rate_hz,
            "slow_clock_hz": self.output_rate_hz,
            "fast_adders": 0,
            "slow_adders": adders,
        }
