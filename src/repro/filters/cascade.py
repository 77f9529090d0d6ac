"""Multirate cascade response analysis.

The decimation chain mixes stages running at different rates (640, 320, 160,
80 and 40 MHz).  To evaluate the overall response seen by the 640 MHz input
— the curve in Fig. 11 of the paper — each stage's FIR-equivalent impulse
response is referred back to the input rate with the noble identity
(upsampling the taps by the cumulative decimation of the stages before it)
and the responses are multiplied on a common absolute-frequency grid.

The module is deliberately independent of the concrete stage classes: a
stage is described by its equivalent taps, its input rate and its decimation
factor, so the same machinery serves the paper's chain, the ablation
variants and user-defined chains.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.filters.response import (
    FrequencyResponse,
    alias_bands_for_decimation,
    default_frequency_grid,
    fir_frequency_response,
)


@dataclass
class CascadeStageDescription:
    """One stage of a multirate cascade, described rate-agnostically.

    Attributes
    ----------
    taps:
        FIR-equivalent impulse response of the stage at its own input rate.
    decimation:
        Decimation factor of the stage (1 for the scaler/equalizer).
    label:
        Stage name used in reports and plot legends.
    """

    taps: np.ndarray
    decimation: int
    label: str

    def __post_init__(self) -> None:
        self.taps = np.asarray(self.taps, dtype=float)
        if self.decimation < 1:
            raise ValueError("decimation must be at least 1")


class MultirateCascade:
    """Frequency-domain model of a chain of decimating FIR stages."""

    def __init__(self, stages: Sequence[CascadeStageDescription], input_rate_hz: float) -> None:
        if not stages:
            raise ValueError("cascade requires at least one stage")
        self.stages = list(stages)
        self.input_rate_hz = float(input_rate_hz)

    # ------------------------------------------------------------------
    # Derived rates
    # ------------------------------------------------------------------
    @property
    def total_decimation(self) -> int:
        """Product of every stage's decimation factor."""
        total = 1
        for stage in self.stages:
            total *= stage.decimation
        return total

    @property
    def output_rate_hz(self) -> float:
        """Sample rate at the cascade output."""
        return self.input_rate_hz / self.total_decimation

    def stage_input_rates(self) -> List[float]:
        """Input sample rate of each stage, walking the decimation down."""
        rates = []
        rate = self.input_rate_hz
        for stage in self.stages:
            rates.append(rate)
            rate /= stage.decimation
        return rates

    # ------------------------------------------------------------------
    # Responses
    # ------------------------------------------------------------------
    def equivalent_fir(self) -> np.ndarray:
        """Single-rate FIR equivalent of the whole chain at the input rate."""
        taps = np.array([1.0])
        upsample = 1
        for stage in self.stages:
            if upsample > 1:
                expanded = np.zeros((len(stage.taps) - 1) * upsample + 1)
                expanded[::upsample] = stage.taps
            else:
                expanded = stage.taps
            taps = np.convolve(taps, expanded)
            upsample *= stage.decimation
        return taps

    def stage_responses(self, frequencies_hz: Optional[np.ndarray] = None,
                        n_points: int = 8192) -> List[FrequencyResponse]:
        """Response of each stage referred to the chain input rate."""
        if frequencies_hz is None:
            frequencies_hz = default_frequency_grid(self.input_rate_hz, n_points)
        responses = []
        rates = self.stage_input_rates()
        for stage, rate in zip(self.stages, rates):
            responses.append(fir_frequency_response(
                stage.taps, rate, frequencies_hz, label=stage.label,
                decimation=stage.decimation,
            ))
        return responses

    def overall_response(self, frequencies_hz: Optional[np.ndarray] = None,
                         n_points: int = 8192, normalize_dc: bool = True) -> FrequencyResponse:
        """Overall response of the chain (the Fig. 11 curve)."""
        if frequencies_hz is None:
            frequencies_hz = default_frequency_grid(self.input_rate_hz, n_points)
        responses = self.stage_responses(frequencies_hz)
        total = responses[0]
        for r in responses[1:]:
            total = total.cascade_with(r)
        if normalize_dc:
            dc = abs(total.magnitude[0])
            if dc > 0:
                total = FrequencyResponse(total.frequencies_hz, total.magnitude / dc,
                                          total.sample_rate_hz, label="Decimation filter cascade")
        else:
            total.label = "Decimation filter cascade"
        return total

    # ------------------------------------------------------------------
    # Specification measurements
    # ------------------------------------------------------------------
    def passband_ripple_db(self, passband_hz: float, n_points: int = 1024) -> float:
        """Peak-to-peak overall-response variation over ``[0, passband_hz]``."""
        freqs = np.linspace(0.0, passband_hz, n_points)
        return self.overall_response(freqs).passband_ripple_db(passband_hz)

    def alias_attenuation_db(self, bandwidth_hz: float, n_points: int = 32768) -> float:
        """Worst attenuation over the bands folding onto the signal band."""
        response = self.overall_response(n_points=n_points)
        bands = alias_bands_for_decimation(self.total_decimation, self.output_rate_hz,
                                           bandwidth_hz, self.input_rate_hz)
        return response.worst_alias_attenuation_db(bands)
