"""Sinc^K (CIC) decimation filter design.

Section IV of the paper: three Sinc stages (Sinc4, Sinc4, Sinc6), each
decimating by 2, perform the initial quantization-noise filtering.  The
transfer function of a Sinc^K decimate-by-M stage is

    H(z) = [ (1/M) * (1 - z^-M) / (1 - z^-1) ]^K

and the required register width is ``Bmax = K*log2(M) + Bin - 1`` (Eq. 2).
This module provides the *design-level* view of the Sinc stages — transfer
functions, frequency responses, droop, alias-band attenuation and word-length
bookkeeping.  The bit-true Hogenauer implementation lives in
``repro.filters.hogenauer``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.filters.response import (
    FrequencyResponse,
    alias_bands_for_decimation,
    band_limited_grid,
    default_frequency_grid,
)


@dataclass(frozen=True)
class SincFilterSpec:
    """Specification of one Sinc^K decimate-by-M stage.

    Attributes
    ----------
    order:
        Number of cascaded comb/integrator sections ``K``.
    decimation:
        Decimation factor ``M``.
    input_bits:
        Input word length ``Bin`` at this stage's input.
    input_rate_hz:
        Sampling rate at the stage input.
    """

    order: int
    decimation: int
    input_bits: int
    input_rate_hz: float
    label: str = ""

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ValueError("Sinc order K must be at least 1")
        if self.decimation < 2:
            raise ValueError("decimation factor M must be at least 2")
        if self.input_bits < 1:
            raise ValueError("input word length must be at least 1 bit")
        if self.input_rate_hz <= 0:
            raise ValueError("input rate must be positive")

    @property
    def output_rate_hz(self) -> float:
        """Sample rate after this stage's decimation."""
        return self.input_rate_hz / self.decimation

    @property
    def register_bits(self) -> int:
        """Register width needed for correct wrap-around arithmetic.

        Eq. (2) of the paper, ``Bmax = K*log2(M) + Bin - 1``, gives the index
        of the most-significant bit (Hogenauer's convention); the physical
        register is therefore ``Bmax + 1 = K*log2(M) + Bin`` bits wide.  With
        wrap-around two's-complement arithmetic this width guarantees a
        correct final output despite intermediate accumulator overflow, and
        it reproduces the paper's 4 → 8 → 12-bit stage word-length
        progression.
        """
        return self.input_bits + int(math.ceil(self.order * math.log2(self.decimation)))

    @property
    def output_bits(self) -> int:
        """Full-precision output word length ``Bin + K*log2(M)``.

        The DC gain of the un-normalized Sinc^K filter is ``M**K``, so the
        output grows by ``K*log2(M)`` bits.  For the paper's cascade this
        reproduces the quoted 4 → 8 → 12-bit word-length progression.
        """
        return self.input_bits + int(math.ceil(self.order * math.log2(self.decimation)))

    @property
    def dc_gain(self) -> float:
        """DC gain before the 1/M^K normalization (``M**K``)."""
        return float(self.decimation ** self.order)


@dataclass(frozen=True)
class SincFilter:
    """A single Sinc^K decimate-by-M stage (design-level model)."""

    spec: SincFilterSpec

    # ------------------------------------------------------------------
    # Coefficients and responses
    # ------------------------------------------------------------------
    def impulse_response(self, normalized: bool = True) -> np.ndarray:
        """Equivalent FIR impulse response (a K-fold convolution of boxcars).

        The Sinc^K filter is identical to the FIR filter obtained by
        convolving a length-M boxcar with itself K times; this is the form
        used for cascade response analysis and cross-checking the Hogenauer
        implementation.
        """
        box = np.ones(self.spec.decimation)
        taps = np.array([1.0])
        for _ in range(self.spec.order):
            taps = np.convolve(taps, box)
        if normalized:
            taps = taps / (self.spec.decimation ** self.spec.order)
        return taps

    def frequency_response(self, frequencies_hz: Optional[np.ndarray] = None,
                           n_points: int = 4096) -> FrequencyResponse:
        """Magnitude response evaluated analytically from the sinc formula."""
        if frequencies_hz is None:
            frequencies_hz = default_frequency_grid(self.spec.input_rate_hz, n_points)
        f_norm = np.asarray(frequencies_hz, dtype=float) / self.spec.input_rate_hz
        m, k = self.spec.decimation, self.spec.order
        # H(f) = [ sin(pi M f) / (M sin(pi f)) ]^K, with the DC limit of 1.
        numerator = np.sin(np.pi * m * f_norm)
        denominator = m * np.sin(np.pi * f_norm)
        with np.errstate(divide="ignore", invalid="ignore"):
            h = np.where(np.abs(denominator) < 1e-15, 1.0, numerator / denominator)
        magnitude = h ** k
        return FrequencyResponse(
            frequencies_hz=np.asarray(frequencies_hz, dtype=float),
            magnitude=magnitude.astype(complex),
            sample_rate_hz=self.spec.input_rate_hz,
            label=self.spec.label or f"Sinc{k} (M={m})",
            metadata={"order": k, "decimation": m},
        )

    # ------------------------------------------------------------------
    # Figures of merit
    # ------------------------------------------------------------------
    def passband_droop_db(self, bandwidth_hz: float) -> float:
        """Droop at the band edge — the quantity the equalizer must undo."""
        response = self.frequency_response(np.array([0.0, bandwidth_hz]))
        return float(response.magnitude_db[0] - response.magnitude_db[1])

    def alias_bands(self, bandwidth_hz: float) -> List[Tuple[float, float]]:
        """Alias bands ``m*fs/M ± fB`` for this stage (Section IV)."""
        return alias_bands_for_decimation(
            self.spec.decimation, self.spec.output_rate_hz, bandwidth_hz,
            self.spec.input_rate_hz,
        )

    def worst_alias_attenuation_db(self, bandwidth_hz: float, n_points: int = 8192) -> float:
        """Minimum attenuation over all alias bands."""
        response = self.frequency_response(n_points=n_points)
        bands = self.alias_bands(bandwidth_hz)
        return response.worst_alias_attenuation_db(bands)


@dataclass(frozen=True)
class SincCascadeSpec:
    """Specification of the cascade of Sinc stages (the paper uses 4, 4, 6)."""

    orders: Sequence[int]
    input_bits: int
    input_rate_hz: float
    decimation_per_stage: int = 2

    @property
    def total_decimation(self) -> int:
        """Product of every stage's decimation factor."""
        return self.decimation_per_stage ** len(self.orders)


@dataclass(frozen=True, eq=False)
class SincCascade:
    """The cascade of Sinc^K decimate-by-2 stages used for initial filtering.

    The paper uses Sinc4 → Sinc4 → Sinc6 with input word lengths 4, 8 and 12
    bits respectively; those word lengths are re-derived here from Eq. (2)
    rather than hard-coded.  The cascade is immutable.
    """

    spec: SincCascadeSpec

    def __post_init__(self) -> None:
        spec = self.spec
        stages: List[SincFilter] = []
        rate = spec.input_rate_hz
        bits = spec.input_bits
        for i, order in enumerate(spec.orders):
            stage_spec = SincFilterSpec(
                order=order,
                decimation=spec.decimation_per_stage,
                input_bits=bits,
                input_rate_hz=rate,
                label=f"Sinc{order} stage {i + 1}",
            )
            stages.append(SincFilter(stage_spec))
            bits = stage_spec.output_bits
            rate = stage_spec.output_rate_hz
        vars(self).update(stages=tuple(stages))

    @property
    def total_decimation(self) -> int:
        """Product of every stage's decimation factor."""
        return self.spec.total_decimation

    @property
    def output_rate_hz(self) -> float:
        """Sample rate at the cascade output."""
        return self.spec.input_rate_hz / self.total_decimation

    @property
    def output_bits(self) -> int:
        """Word width at the cascade output (full register growth)."""
        return self.stages[-1].spec.output_bits if self.stages else self.spec.input_bits

    def stage_word_lengths(self) -> List[int]:
        """Input word length of each stage (4, 8, 12 for the paper's design)."""
        return [stage.spec.input_bits for stage in self.stages]

    # ------------------------------------------------------------------
    # Responses
    # ------------------------------------------------------------------
    def stage_responses(self, frequencies_hz: Optional[np.ndarray] = None,
                        n_points: int = 4096) -> List[FrequencyResponse]:
        """Frequency response of each stage referred to the chain input rate."""
        if frequencies_hz is None:
            frequencies_hz = default_frequency_grid(self.spec.input_rate_hz, n_points)
        responses = []
        for stage in self.stages:
            responses.append(stage.frequency_response(frequencies_hz))
        return responses

    def cascade_response(self, frequencies_hz: Optional[np.ndarray] = None,
                         n_points: int = 4096) -> FrequencyResponse:
        """Overall response of the Sinc cascade (Fig. 8's 'Cascaded Response')."""
        if frequencies_hz is None:
            frequencies_hz = default_frequency_grid(self.spec.input_rate_hz, n_points)
        responses = self.stage_responses(frequencies_hz)
        total = responses[0]
        for r in responses[1:]:
            total = total.cascade_with(r)
        total.label = "Sinc cascade"
        return total

    def equivalent_fir(self) -> np.ndarray:
        """Single-rate equivalent FIR of the whole cascade at the input rate.

        Each stage's impulse response is upsampled by the cumulative
        decimation of the preceding stages before convolution (noble
        identity), giving the exact single-stage equivalent used for the
        cascaded response and for the droop-equalizer design.
        """
        taps = np.array([1.0])
        upsample = 1
        for stage in self.stages:
            stage_taps = stage.impulse_response(normalized=True)
            if upsample > 1:
                expanded = np.zeros((len(stage_taps) - 1) * upsample + 1)
                expanded[::upsample] = stage_taps
            else:
                expanded = stage_taps
            taps = np.convolve(taps, expanded)
            upsample *= stage.spec.decimation
        return taps

    # ------------------------------------------------------------------
    # Figures of merit
    # ------------------------------------------------------------------
    def passband_droop_db(self, bandwidth_hz: float) -> float:
        """Worst in-band droop of the whole cascade (the equalizer's burden)."""
        response = self.cascade_response(np.linspace(0.0, bandwidth_hz, 512))
        return float(response.magnitude_db[0] - np.min(response.magnitude_db))

    def worst_alias_attenuation_db(self, bandwidth_hz: float, n_points: int = 16384) -> float:
        """Attenuation in the bands that fold onto the signal band after the
        full cascade decimation (the >100 dB number visible in Fig. 8).

        The measurement reads an ``n_points`` grid from DC to the input
        Nyquist only at DC and inside the alias bands, so the cascade
        response is evaluated on just those grid points
        (:func:`~repro.filters.response.band_limited_grid`), with the same
        result as the whole grid.
        """
        bands = alias_bands_for_decimation(
            self.total_decimation, self.output_rate_hz, bandwidth_hz,
            self.spec.input_rate_hz,
        )
        grid = default_frequency_grid(self.spec.input_rate_hz, n_points)
        response = self.cascade_response(band_limited_grid(grid, bands))
        return response.worst_alias_attenuation_db(bands)
