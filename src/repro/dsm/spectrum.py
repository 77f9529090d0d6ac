"""Spectral analysis: PSD, SQNR/SNR and ENOB estimation.

Reproduces the measurements behind Fig. 4 (modulator output spectrum and its
102 dB SQNR) and the decimator's 86 dB output SNR (Table I).  The analysis
follows standard delta-sigma practice: windowed periodogram, signal power
taken from the bins around the (coherent) test tone, noise power integrated
over the signal band excluding those bins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np


def db_power(x: np.ndarray) -> np.ndarray:
    """Convert a power quantity to dB, guarding against log(0)."""
    return 10.0 * np.log10(np.maximum(np.asarray(x, dtype=float), 1e-300))


@dataclass
class SpectrumAnalysis:
    """Result of a PSD / SNR analysis of a data record."""

    frequencies_hz: np.ndarray
    psd_db: np.ndarray
    signal_power: float
    noise_power: float
    signal_bin: int
    bandwidth_hz: float
    sample_rate_hz: float
    metadata: dict = field(default_factory=dict)

    @property
    def snr_db(self) -> float:
        """Signal-to-noise ratio over the analysis bandwidth."""
        return float(db_power(self.signal_power / max(self.noise_power, 1e-300)))

    @property
    def enob(self) -> float:
        """Effective number of bits, ``(SNR - 1.76) / 6.02``."""
        return (self.snr_db - 1.76) / 6.02


def periodogram(x: np.ndarray, sample_rate_hz: float,
                window: str = "hann") -> Tuple[np.ndarray, np.ndarray]:
    """One-sided windowed periodogram (power spectral density estimate).

    Returns ``(frequencies_hz, psd)`` where ``psd`` integrates (sums) to the
    signal power.  A Hann window is used by default, matching the usual
    delta-sigma toolbox plots; pass ``window='rect'`` for coherent records.

    ``x`` may also be a 2-D ``(batch, n)`` array of independent records:
    one batched real FFT along the last axis produces a ``(batch, bins)``
    PSD whose row ``b`` is bit-exact to the 1-D call on ``x[b]`` (the FFT,
    the window multiply and the one-sided doubling are all computed per
    row by the same kernels).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2):
        raise ValueError("x must be a 1-D record or a 2-D (batch, n) array")
    n = x.shape[-1]
    if n < 8:
        raise ValueError("record too short for spectral analysis")
    if window == "hann":
        w = np.hanning(n)
    elif window == "rect":
        w = np.ones(n)
    elif window == "blackman":
        w = np.blackman(n)
    elif window == "blackmanharris":
        # 4-term Blackman-Harris: −92 dB sidelobes, the standard choice for
        # high-SNR ADC tone tests where the record may not be coherent.
        k = np.arange(n)
        w = (0.35875
             - 0.48829 * np.cos(2.0 * np.pi * k / (n - 1))
             + 0.14128 * np.cos(4.0 * np.pi * k / (n - 1))
             - 0.01168 * np.cos(6.0 * np.pi * k / (n - 1)))
    else:
        raise ValueError(f"unknown window {window!r}")
    # Normalize so that a full-scale sine shows its power correctly.
    coherent_gain = np.sum(w) / n
    # In place where the arithmetic allows it: a batch's spectrum holds
    # one record-sized array at a time besides its input.
    spectrum = np.fft.rfft(x * w, axis=-1)
    spectrum /= n * coherent_gain
    power = np.abs(spectrum)
    del spectrum
    power **= 2
    # One-sided: double everything except DC and Nyquist.
    power[..., 1:-1] *= 2.0
    freqs = np.fft.rfftfreq(n, d=1.0 / sample_rate_hz)
    return freqs, power


def analyze_tone(x: np.ndarray, sample_rate_hz: float, tone_hz: float,
                 bandwidth_hz: Optional[float] = None,
                 window: str = "hann",
                 signal_bins: int = 4,
                 exclude_dc_bins: int = 4) -> SpectrumAnalysis:
    """Measure SNR of a record containing a single test tone.

    Parameters
    ----------
    x:
        The data record (modulator output or decimator output).
    sample_rate_hz:
        Sampling rate of ``x``.
    tone_hz:
        Frequency of the test tone.
    bandwidth_hz:
        Noise integration bandwidth (defaults to Nyquist).
    window:
        Window for the periodogram.
    signal_bins:
        Number of bins on each side of the tone attributed to the signal
        (accounts for window spreading).
    exclude_dc_bins:
        Bins near DC excluded from the noise (window skirt / offset).

    The record runs through :func:`analyze_tone_batch` as a batch of one,
    so the single-record and batched measurements share one tone-bin and
    noise-mask computation.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("analyze_tone expects a 1-D record; use "
                         "analyze_tone_batch for a (batch, n) array")
    analysis = analyze_tone_batch(x[np.newaxis], sample_rate_hz, tone_hz,
                                  bandwidth_hz, window, signal_bins,
                                  exclude_dc_bins)[0]
    del analysis.metadata["batch_index"]
    return analysis


def analyze_tone_batch(x: np.ndarray, sample_rate_hz: float, tone_hz: float,
                       bandwidth_hz: Optional[float] = None,
                       window: str = "hann",
                       signal_bins: int = 4,
                       exclude_dc_bins: int = 4) -> list:
    """Batched :func:`analyze_tone` over a ``(batch, n)`` array of records.

    All records share the tone and analysis parameters; the PSDs come from
    one batched rFFT and the signal/noise powers from per-row sums.  This
    is the one implementation of the tone measurement (``analyze_tone``
    runs it on a batch of one).  Entry ``b`` of the returned list is
    bit-exact to ``analyze_tone(x[b], ...)`` — same frequencies, same PSD
    bins, same power sums — because every per-row kernel (FFT, window
    multiply, contiguous pairwise sum) is independent of the other rows.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("analyze_tone_batch expects a 2-D (batch, n) array")
    freqs, power = periodogram(x, sample_rate_hz, window)
    if bandwidth_hz is None:
        bandwidth_hz = sample_rate_hz / 2.0
    n_bins = len(freqs)
    bin_width = freqs[1] - freqs[0]
    tone_bin = int(round(tone_hz / bin_width))
    tone_bin = min(max(tone_bin, 1), n_bins - 1)
    lo = max(0, tone_bin - signal_bins)
    hi = min(n_bins, tone_bin + signal_bins + 1)
    in_band = freqs <= bandwidth_hz
    noise_mask = in_band.copy()
    noise_mask[lo:hi] = False
    noise_mask[:exclude_dc_bins] = False
    # Row-wise 1-D reductions, not an axis reduction: numpy's 2-D axis sum
    # blocks differently from the contiguous 1-D pairwise sum, which would
    # make a record's last ulp depend on the batch it rides in.
    signal_power = np.array([np.sum(row[lo:hi]) for row in power])
    noise_power = np.array([np.sum(row[noise_mask]) for row in power])
    return [
        SpectrumAnalysis(
            frequencies_hz=freqs,
            psd_db=db_power(power[b]),
            signal_power=float(signal_power[b]),
            noise_power=float(noise_power[b]),
            signal_bin=tone_bin,
            bandwidth_hz=float(bandwidth_hz),
            sample_rate_hz=float(sample_rate_hz),
            metadata={"window": window, "signal_bins": signal_bins,
                      "batch_index": b},
        )
        for b in range(x.shape[0])
    ]


def spectrum_for_plot(x: np.ndarray, sample_rate_hz: float,
                      window: str = "hann",
                      smooth_bins: int = 1) -> Tuple[np.ndarray, np.ndarray]:
    """PSD in dBFS for plotting (Fig. 4 style), optionally bin-averaged."""
    freqs, power = periodogram(x, sample_rate_hz, window)
    full_scale_power = 0.5
    psd_dbfs = db_power(power / full_scale_power)
    if smooth_bins > 1:
        kernel = np.ones(smooth_bins) / smooth_bins
        psd_dbfs = np.convolve(psd_dbfs, kernel, mode="same")
    return freqs, psd_dbfs
