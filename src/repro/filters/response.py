"""Frequency-response evaluation and mask checking.

Every filter stage in the decimation chain is characterized by the same
measurements the paper reports: passband ripple/droop over 0–20 MHz,
attenuation in the alias bands that fold onto the signal band after
decimation, and overall stopband attenuation against the >85 dB requirement
of Table I.  This module provides a common response container plus the
mask-checking helpers used by the designer, the tests and the benchmark
harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np


@dataclass
class FrequencyResponse:
    """Magnitude response of a filter stage evaluated on a frequency grid.

    Attributes
    ----------
    frequencies_hz:
        Absolute frequencies at which the response is evaluated.
    magnitude:
        Complex frequency response values.
    sample_rate_hz:
        Input sampling rate the response is referred to.
    label:
        Human-readable name used in reports and plots.
    """

    frequencies_hz: np.ndarray
    magnitude: np.ndarray
    sample_rate_hz: float
    label: str = ""
    metadata: dict = field(default_factory=dict)

    @property
    def magnitude_db(self) -> np.ndarray:
        """Magnitude in dB (floored to avoid log-of-zero)."""
        return 20.0 * np.log10(np.maximum(np.abs(self.magnitude), 1e-300))

    def at(self, frequency_hz: float) -> complex:
        """Response at the grid point closest to ``frequency_hz``."""
        idx = int(np.argmin(np.abs(self.frequencies_hz - frequency_hz)))
        return complex(self.magnitude[idx])

    def magnitude_db_at(self, frequency_hz: float) -> float:
        """Magnitude in dB at the grid point closest to ``frequency_hz``."""
        return float(20.0 * np.log10(max(abs(self.at(frequency_hz)), 1e-300)))

    # ------------------------------------------------------------------
    # Band measurements
    # ------------------------------------------------------------------
    def band_mask(self, f_lo: float, f_hi: float) -> np.ndarray:
        """Boolean mask of the grid points inside ``[f_lo, f_hi]``."""
        return (self.frequencies_hz >= f_lo) & (self.frequencies_hz <= f_hi)

    def passband_ripple_db(self, passband_hz: float, f_lo: float = 0.0) -> float:
        """Peak-to-peak magnitude variation over ``[f_lo, passband_hz]``."""
        mask = self.band_mask(f_lo, passband_hz)
        band = self.magnitude_db[mask]
        if band.size == 0:
            raise ValueError("passband contains no grid points")
        return float(np.max(band) - np.min(band))

    def passband_droop_db(self, passband_hz: float) -> float:
        """Droop: response at DC minus the minimum response in the passband."""
        mask = self.band_mask(0.0, passband_hz)
        band = self.magnitude_db[mask]
        if band.size == 0:
            raise ValueError("passband contains no grid points")
        return float(band[0] - np.min(band))

    def stopband_attenuation_db(self, f_lo: float, f_hi: Optional[float] = None) -> float:
        """Minimum attenuation (positive dB) over ``[f_lo, f_hi]`` relative to DC."""
        if f_hi is None:
            f_hi = float(self.frequencies_hz[-1])
        mask = self.band_mask(f_lo, f_hi)
        band = self.magnitude_db[mask]
        if band.size == 0:
            raise ValueError("stopband contains no grid points")
        reference = self.magnitude_db[0]
        return float(reference - np.max(band))

    def worst_alias_attenuation_db(self, alias_bands: Sequence[Tuple[float, float]]) -> float:
        """Smallest attenuation over a set of alias bands (the binding constraint)."""
        worst = np.inf
        for f_lo, f_hi in alias_bands:
            if f_hi <= f_lo:
                continue
            mask = self.band_mask(f_lo, f_hi)
            if not np.any(mask):
                continue
            attenuation = self.magnitude_db[0] - np.max(self.magnitude_db[mask])
            worst = min(worst, float(attenuation))
        return float(worst)

    # ------------------------------------------------------------------
    # Composition
    # ------------------------------------------------------------------
    def cascade_with(self, other: "FrequencyResponse", label: str = "") -> "FrequencyResponse":
        """Multiply two responses evaluated on the same frequency grid."""
        if len(self.frequencies_hz) != len(other.frequencies_hz) or not np.allclose(
            self.frequencies_hz, other.frequencies_hz
        ):
            raise ValueError("responses must share the same frequency grid")
        return FrequencyResponse(
            frequencies_hz=self.frequencies_hz.copy(),
            magnitude=self.magnitude * other.magnitude,
            sample_rate_hz=self.sample_rate_hz,
            label=label or f"{self.label} * {other.label}",
        )


def _polyval(z: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """``Σ c[k]·z**k`` by Horner's rule, starting from ``c[-1]`` as a complex."""
    value = np.full(z.shape, coefficients[-1], dtype=complex)
    for c in coefficients[-2::-1]:
        value *= z
        value += c
    return value


def fir_freqz(taps: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Complex response of FIR ``taps`` at angular frequencies ``w`` (rad/sample).

    The arithmetic is ``scipy.signal.freqz(taps, worN=w)``'s, step for step
    (the ``2π·w/2π`` round trip, Horner's rule in ``exp(-1j·w)`` and the
    division by the ``a = [1]`` denominator), so the values are identical.
    """
    w = 2 * np.pi * np.asarray(w, dtype=float) / (2 * np.pi)
    zm1 = np.exp(-1j * w)
    return _polyval(zm1, taps) / _polyval(zm1, np.ones(1))


def fir_frequency_response(taps: Sequence[float], sample_rate_hz: float,
                           frequencies_hz: np.ndarray, label: str = "",
                           decimation: int = 1) -> FrequencyResponse:
    """Evaluate an FIR filter's response at absolute frequencies.

    ``sample_rate_hz`` is the rate at which the filter operates (its input
    rate); frequencies above that Nyquist simply wrap, which is exactly the
    aliasing picture needed when composing stages running at different rates.
    """
    taps = np.asarray(taps, dtype=float)
    w = 2.0 * np.pi * np.asarray(frequencies_hz, dtype=float) / sample_rate_hz
    h = fir_freqz(taps, w)
    return FrequencyResponse(
        frequencies_hz=np.asarray(frequencies_hz, dtype=float),
        magnitude=h,
        sample_rate_hz=sample_rate_hz,
        label=label,
        metadata={"decimation": decimation, "n_taps": len(taps)},
    )


def default_frequency_grid(sample_rate_hz: float, n_points: int = 4096,
                           f_max: Optional[float] = None) -> np.ndarray:
    """A dense linear grid from DC to ``f_max`` (default: input Nyquist)."""
    if f_max is None:
        f_max = sample_rate_hz / 2.0
    return np.linspace(0.0, f_max, n_points)


def band_limited_grid(frequencies_hz: np.ndarray,
                      bands: Sequence[Tuple[float, float]]) -> np.ndarray:
    """The points of ``frequencies_hz`` that a band measurement reads.

    :meth:`FrequencyResponse.stopband_attenuation_db` and
    :meth:`FrequencyResponse.worst_alias_attenuation_db` read the first
    grid point (DC on :func:`default_frequency_grid`, their reference) and
    the points inside their bands, nothing else.  Every stage response is
    computed point by point, so a response evaluated on this subset holds
    the same values at those points and gives the same measurements, at a
    fraction of the cost and memory of the full grid.
    """
    frequencies_hz = np.asarray(frequencies_hz, dtype=float)
    keep = np.zeros(len(frequencies_hz), dtype=bool)
    keep[0] = True
    for f_lo, f_hi in bands:
        keep |= (frequencies_hz >= f_lo) & (frequencies_hz <= f_hi)
    return frequencies_hz[keep]


def alias_bands_for_decimation(decimation: int, output_rate_hz: float,
                               bandwidth_hz: float,
                               input_rate_hz: Optional[float] = None) -> List[Tuple[float, float]]:
    """Frequency bands that alias onto the signal band after decimation by ``M``.

    For a decimator with output rate ``f_out`` the bands
    ``[m·f_out − f_B, m·f_out + f_B]`` for ``m = 1 … M−1`` (clipped to the
    input Nyquist) fold back onto ``[0, f_B]``.  This matches the alias-band
    definition in Section IV of the paper.
    """
    if decimation < 2:
        return []
    if input_rate_hz is None:
        input_rate_hz = output_rate_hz * decimation
    nyquist_in = input_rate_hz / 2.0
    bands = []
    for m in range(1, decimation):
        center = m * output_rate_hz
        f_lo = max(0.0, center - bandwidth_hz)
        f_hi = min(nyquist_in, center + bandwidth_hz)
        if f_hi > f_lo:
            bands.append((f_lo, f_hi))
    return bands


def group_delay_samples(taps: Sequence[float]) -> float:
    """Group delay of a linear-phase FIR filter in samples ((N-1)/2)."""
    return (len(list(taps)) - 1) / 2.0


def is_symmetric(taps: Sequence[float], tolerance: float = 1e-12) -> bool:
    """Whether the impulse response is (even) symmetric — i.e. linear phase."""
    arr = np.asarray(taps, dtype=float)
    return bool(np.allclose(arr, arr[::-1], atol=tolerance))
