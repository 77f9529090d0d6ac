"""Droop-compensating FIR equalizer (Section VI of the paper).

The Sinc cascade (and the halfband filter's band-edge roll-off) droops the
passband; a 64th-order linear-phase FIR running at the 40 MHz output rate
equalizes the response back to 0 dB across the signal band.  The original
flow obtains the coefficients with the Parks–McClellan algorithm (``firpm``)
against the inverse of the droop; here the equalizer is designed against the
measured droop of the actual preceding stages with a weighted least-squares
fit (numerically more robust for arbitrary target responses), and the
resulting residual ripple (< 0.5 dB in the paper) is verified by the tests
and benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.filters.fir import design_arbitrary_response_ls, fir_response
from repro.filters.response import FrequencyResponse
from repro.frozen import FrozenRecord


@dataclass(frozen=True)
class EqualizerDesign(FrozenRecord):
    """A designed droop equalizer.

    Immutable (a :class:`~repro.frozen.FrozenRecord`): ``taps`` and
    ``metadata`` are read-only.

    Attributes
    ----------
    taps:
        The ``order + 1`` symmetric FIR coefficients.
    sample_rate_hz:
        Rate at which the equalizer runs (the decimated output rate).
    passband_hz:
        Upper edge of the equalized band.
    """

    taps: np.ndarray
    sample_rate_hz: float
    passband_hz: float
    metadata: dict = field(default_factory=dict)

    _ARRAY_FIELDS = ("taps",)

    @property
    def order(self) -> int:
        """Equalizer filter order (number of taps minus one)."""
        return len(self.taps) - 1

    def response(self, frequencies_hz: Optional[np.ndarray] = None,
                 n_points: int = 2048) -> FrequencyResponse:
        """Frequency response of the (unquantized) equalizer taps."""
        return fir_response(self.taps, self.sample_rate_hz, frequencies_hz,
                            n_points, label="Equalizer")

    def with_tap_deltas(self, lsb_deltas: np.ndarray,
                        coefficient_bits: int = 16) -> "EqualizerDesign":
        """A copy of this design with taps dithered by quantization LSBs.

        The coefficient-perturbation hook of the :mod:`repro.robustness`
        Monte Carlo subsystem: tap ``k`` moves by ``lsb_deltas[k] *
        2**-coefficient_bits``, i.e. by whole LSBs of the fixed-point
        coefficient word, so the downstream
        :class:`~repro.filters.fir.FIRFilterFixedPoint` quantization shifts
        its integer tap by exactly ``lsb_deltas[k]``.  No fit runs — this
        is a cheap value perturbation of an already designed equalizer.
        """
        deltas = np.asarray(lsb_deltas, dtype=float)
        if deltas.shape != self.taps.shape:
            raise ValueError("lsb_deltas must have one entry per tap")
        lsb = 2.0 ** (-coefficient_bits)
        return EqualizerDesign(
            taps=self.taps + deltas * lsb,
            sample_rate_hz=self.sample_rate_hz,
            passband_hz=self.passband_hz,
            metadata=dict(self.metadata, perturbation="lsb-dither"),
        )


def design_droop_equalizer(droop_response: FrequencyResponse,
                           sample_rate_hz: float,
                           passband_hz: float,
                           order: int = 64,
                           equalize_fraction: float = 0.98,
                           stopband_gain: float = 1.0,
                           max_boost_db: float = 10.0) -> EqualizerDesign:
    """Design an FIR equalizer that inverts a measured droop response.

    Parameters
    ----------
    droop_response:
        Frequency response of the preceding decimation stages referred to
        absolute frequency (only the band up to ``passband_hz`` matters).
    sample_rate_hz:
        Rate at which the equalizer will run (40 MHz in the paper).
    passband_hz:
        Signal band edge to equalize up to (20 MHz in the paper).
    order:
        FIR order (64 in the paper).  Must be even (Type I linear phase).
    equalize_fraction:
        Fraction of the passband over which exact inversion is requested;
        the remaining sliver up to the band edge is weighted less to keep
        the required boost bounded near the output Nyquist frequency.
    stopband_gain:
        Desired gain above the passband (the equalizer does not need to
        filter there — the preceding stages already have — so a gain of 1
        keeps the coefficients small; 0 asks the equalizer to add
        attenuation).
    max_boost_db:
        Upper limit applied to the requested inverse gain, preventing the
        design from chasing the −6 dB half-band edge notch with unbounded
        boost.
    """
    if order % 2 != 0:
        raise ValueError("equalizer order must be even")
    nyquist = sample_rate_hz / 2.0
    if passband_hz > nyquist + 1e-9:
        raise ValueError("passband cannot exceed the equalizer Nyquist frequency")

    # Build the design grid: dense over the passband, sparse above it.
    n_pass = 256
    n_stop = 64
    pass_freqs = np.linspace(0.0, passband_hz, n_pass)
    droop = np.maximum(_droop_magnitudes(droop_response, pass_freqs), 1e-6)
    dc_gain = droop[0]
    inverse = dc_gain / droop
    max_boost = 10.0 ** (max_boost_db / 20.0)
    inverse = np.minimum(inverse, max_boost)

    weights = np.ones(n_pass)
    # De-emphasize the last sliver of the passband where the half-band edge
    # notch would otherwise dominate the least-squares fit.
    edge_start = equalize_fraction * passband_hz
    weights[pass_freqs > edge_start] = 0.2

    if passband_hz < nyquist - 1e-6:
        stop_freqs = np.linspace(min(passband_hz * 1.05, nyquist), nyquist, n_stop)
        stop_target = np.full(n_stop, float(stopband_gain))
        stop_weights = np.full(n_stop, 0.05)
        freqs = np.concatenate([pass_freqs, stop_freqs])
        target = np.concatenate([inverse, stop_target])
        weights = np.concatenate([weights, stop_weights])
    else:
        freqs = pass_freqs
        target = inverse

    taps = design_arbitrary_response_ls(order, freqs / sample_rate_hz, target, weights)
    design = EqualizerDesign(
        taps=taps,
        sample_rate_hz=sample_rate_hz,
        passband_hz=passband_hz,
        metadata={
            "order": order,
            "max_requested_boost_db": float(20.0 * np.log10(np.max(inverse))),
            "equalize_fraction": equalize_fraction,
        },
    )
    return design


def _droop_magnitudes(droop_response: FrequencyResponse,
                      frequencies_hz: np.ndarray) -> np.ndarray:
    """``abs(droop_response.at(f))`` for every frequency, in one lookup.

    ``|z|`` is libm's ``hypot``, as Python's ``abs(complex)`` takes it:
    :func:`numpy.abs` of a complex array can differ in the last bit, and
    the equalizer taps must not.
    """
    samples = droop_response.at_each(frequencies_hz)
    return np.hypot(samples.real, samples.imag)


def compensated_response(droop_response: FrequencyResponse,
                         equalizer: EqualizerDesign,
                         frequencies_hz: Optional[np.ndarray] = None) -> FrequencyResponse:
    """Cascade of the droop response and the equalizer (Fig. 10's compensated curve)."""
    if frequencies_hz is None:
        frequencies_hz = droop_response.frequencies_hz
    eq_resp = equalizer.response(frequencies_hz)
    droop = FrequencyResponse(
        frequencies_hz=np.asarray(frequencies_hz, dtype=float),
        magnitude=droop_response.at_each(frequencies_hz),
        sample_rate_hz=droop_response.sample_rate_hz,
        label=droop_response.label,
    )
    out = droop.cascade_with(eq_resp, label="Droop-compensated response")
    return out


def residual_ripple_db(droop_response: FrequencyResponse, equalizer: EqualizerDesign,
                       passband_hz: float, fraction: float = 0.98,
                       n_points: int = 512) -> float:
    """Peak-to-peak ripple of the compensated response over the equalized band."""
    freqs = np.linspace(0.0, passband_hz * fraction, n_points)
    comp = compensated_response(droop_response, equalizer, freqs)
    return comp.passband_ripple_db(passband_hz * fraction)
