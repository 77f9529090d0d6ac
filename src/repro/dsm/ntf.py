"""Noise transfer function (NTF) synthesis for delta-sigma modulators.

The paper's modulator is a 5th-order, OSR-16 design with an out-of-band gain
(OBG) of 3 and optimized in-band NTF zeros realized by two resonators
(Table I / Fig. 2).  This module reproduces the functionality of the
Delta-Sigma Toolbox's ``synthesizeNTF`` that the authors used:

* optimal placement of NTF zeros inside the signal band (minimizing the
  integrated in-band quantization noise), and
* a maximally-flat (Butterworth-style) high-pass pole placement whose corner
  frequency is tuned so that the out-of-band NTF gain equals the requested
  ``h_inf`` (the Lee-criterion knob controlling stability vs. noise
  suppression).

The resulting NTF is returned in zero-pole-gain form and can be converted to
transfer-function or loop-filter form for simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.frozen import FrozenRecord

#: Optimal normalized zero positions (relative to the band edge) that minimize
#: the integrated in-band noise power for an all-zero-on-the-unit-circle NTF.
#: Values follow Schreier & Temes, "Understanding Delta-Sigma Data
#: Converters", Table 4.1 (odd orders include a zero at DC); they are the
#: non-negative Legendre roots to five digits, which higher orders use.
_OPTIMAL_ZERO_POSITIONS = {
    1: [0.0],
    2: [0.57735],
    3: [0.0, 0.77459],
    4: [0.33998, 0.86113],
    5: [0.0, 0.53846, 0.90617],
    6: [0.23861, 0.66120, 0.93246],
    7: [0.0, 0.40584, 0.74153, 0.94910],
    8: [0.18343, 0.52553, 0.79666, 0.96028],
}


class NTFSynthesisError(RuntimeError):
    """Raised when NTF synthesis cannot satisfy the requested parameters."""


@dataclass(frozen=True)
class NoiseTransferFunction(FrozenRecord):
    """A synthesized noise transfer function in zero-pole-gain form.

    Immutable: :func:`synthesize_ntf` hands one memoized instance to every
    caller, so the fields cannot be reassigned, ``zeros``, ``poles`` and
    ``metadata["zero_frequencies"]`` are read-only copies of the arrays
    given and ``metadata`` is read-only.  Derive a variant with
    :func:`dataclasses.replace`.

    Attributes
    ----------
    zeros, poles:
        Arrays of complex zeros and poles in the z-plane.
    gain:
        Overall gain (always 1.0 for an NTF, whose leading impulse-response
        sample must be unity).
    order:
        Modulator order.
    osr:
        Oversampling ratio the NTF was designed for.
    h_inf:
        Out-of-band gain actually achieved.
    """

    zeros: np.ndarray
    poles: np.ndarray
    gain: float
    order: int
    osr: int
    h_inf: float
    metadata: dict = field(default_factory=dict)

    _ARRAY_FIELDS = ("zeros", "poles")

    # ------------------------------------------------------------------
    # Response evaluation
    # ------------------------------------------------------------------
    def evaluate(self, z: np.ndarray) -> np.ndarray:
        """Evaluate the NTF at points ``z`` in the complex plane."""
        z = np.asarray(z, dtype=complex)
        return _zpk_response(z, _root_product(z, self.zeros), self.poles,
                             self.gain)

    def frequency_response(self, frequencies: np.ndarray) -> np.ndarray:
        """Evaluate the NTF at normalized frequencies (cycles/sample)."""
        return self.evaluate(_unit_circle(frequencies))

    def magnitude_db(self, frequencies: np.ndarray) -> np.ndarray:
        """NTF magnitude in dB at normalized frequencies (cycles/sample)."""
        resp = np.abs(self.frequency_response(frequencies))
        return 20.0 * np.log10(np.maximum(resp, 1e-300))

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def as_zpk(self) -> Tuple[np.ndarray, np.ndarray, float]:
        """The NTF as a ``(zeros, poles, gain)`` tuple (copies, scipy layout)."""
        return self.zeros.copy(), self.poles.copy(), self.gain

    def as_tf(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(b, a)`` polynomial coefficients of the NTF."""
        b = np.multiply(np.atleast_1d(np.asarray(self.gain, dtype=float)),
                        _poly(self.zeros))
        a = _poly(self.poles)
        return np.real_if_close(b).astype(float), np.real_if_close(a).astype(float)

    def loop_filter_impulse_response(self, n_samples: int = 64) -> np.ndarray:
        """Impulse response of the error-feedback loop filter ``1 - NTF``.

        With a signal transfer function of unity, the quantizer input is
        ``y[n] = u[n] - sum_k h[k] e[n-k]`` where ``h`` is this impulse
        response without its leading (zero) sample.  This is the sequence
        used by the error-feedback modulator simulation.
        """
        b, a = self.as_tf()
        # 1 - NTF(z):  numerator a - b over denominator a.
        diff = np.polysub(a, b)
        return impulse_response(diff, a, n_samples)

    # ------------------------------------------------------------------
    # Figures of merit
    # ------------------------------------------------------------------
    def inband_noise_gain(self, osr: Optional[int] = None, n_points: int = 2048) -> float:
        """RMS gain of the NTF over the signal band ``[0, 0.5/OSR]``.

        This is the factor by which the quantization noise standard
        deviation is attenuated in band; it drives the theoretical SQNR.
        """
        osr = osr or self.osr
        freqs = np.linspace(0.0, 0.5 / osr, n_points)
        mag2 = np.abs(self.frequency_response(freqs)) ** 2
        return float(np.sqrt(np.trapezoid(mag2, freqs) * 2.0 * osr))

    def out_of_band_gain(self, n_points: int = 4096) -> float:
        """Maximum NTF magnitude over the whole band (attained near fs/2)."""
        freqs = np.linspace(0.0, 0.5, n_points)
        return float(np.max(np.abs(self.frequency_response(freqs))))

    def predicted_sqnr_db(self, quantizer_levels: int = 16,
                          input_amplitude: float = 0.5,
                          osr: Optional[int] = None) -> float:
        """Linear-model SQNR prediction.

        Assumes the quantization error is white with power ``Δ²/12`` where
        ``Δ = 2/(levels-1)`` (full scale ±1), shaped by the NTF and
        integrated over the signal band.
        """
        osr = osr or self.osr
        delta = 2.0 / (quantizer_levels - 1)
        noise_power_total = delta ** 2 / 12.0
        freqs = np.linspace(1e-6, 0.5 / osr, 4096)
        mag2 = np.abs(self.frequency_response(freqs)) ** 2
        inband_noise = noise_power_total * 2.0 * np.trapezoid(mag2, freqs)
        signal_power = input_amplitude ** 2 / 2.0
        return float(10.0 * np.log10(signal_power / max(inband_noise, 1e-300)))


def _unit_circle(frequencies: np.ndarray) -> np.ndarray:
    """``exp(j·2π·f)`` at normalized frequencies ``f`` (cycles/sample)."""
    w = 2.0 * np.pi * np.asarray(frequencies, dtype=float)
    return np.exp(1j * w)


def _root_product(z: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """``prod_k (z - roots[k])``, one factor at a time in root order."""
    product = np.ones_like(z)
    for root in roots:
        product = product * (z - root)
    return product


def _zpk_response(z: np.ndarray, zero_product: np.ndarray, poles: np.ndarray,
                  gain: float) -> np.ndarray:
    """The zero-pole-gain response at ``z`` given its zero product.

    The one formula behind :meth:`NoiseTransferFunction.evaluate` and the
    synthesis bisection, which builds the zero product once and forms
    only the pole product per step; both get the same bits.
    """
    return gain * zero_product / _root_product(z, poles)


def optimal_zero_frequencies(order: int, osr: int, optimize: bool = True) -> np.ndarray:
    """Normalized frequencies (cycles/sample) of the optimal in-band NTF zeros.

    When ``optimize`` is ``False`` all zeros are placed at DC, matching a
    plain ``(1 - z^-1)^N`` differentiator NTF.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    band_edge = 0.5 / osr
    if not optimize:
        return np.zeros(order)
    positions = _OPTIMAL_ZERO_POSITIONS.get(order)
    if positions is None:
        positions = _legendre_zero_positions(order)
    freqs = []
    for p in positions:
        if p == 0.0:
            freqs.append(0.0)
        else:
            freqs.append(p * band_edge)
            freqs.append(-p * band_edge)
    freqs = np.array(sorted(freqs))
    if len(freqs) != order:
        raise NTFSynthesisError(
            f"internal error: produced {len(freqs)} zeros for order {order}"
        )
    return freqs


def _legendre_zero_positions(order: int) -> Sequence[float]:
    """Optimal zero positions of any order: the Legendre roots.

    Minimizing ``∫_0^1 prod_i (x - x_i)^2 dx`` over symmetric zero
    placements ``x_i`` in [0, 1] (DC zero included for odd orders), the
    band-normalized in-band noise power for zeros on the unit circle, asks
    for the monic polynomial of least L2 norm on [-1, 1]: the monic Legendre
    polynomial.  Its non-negative roots are the positions.
    """
    from numpy.polynomial.legendre import leggauss

    roots, _ = leggauss(order)
    return [float(r) for r in roots if r >= 0.0]


def _poly(roots: np.ndarray) -> np.ndarray:
    """Coefficients of the monic polynomial with the given roots.

    ``scipy.signal.zpk2tf``'s expansion: one convolution per root, and a
    real result when the imaginary parts pair up as conjugates.
    """
    roots = np.atleast_1d(np.asarray(roots))
    coefficients = np.ones(1, dtype=roots.dtype)
    for root in roots:
        coefficients = np.convolve(coefficients, np.array([1, -root], dtype=roots.dtype))
    if np.iscomplexobj(coefficients) and np.all(
            np.sort(roots.imag) == np.sort(-roots.imag)):
        coefficients = coefficients.real.copy()
    return coefficients


def impulse_response(b: np.ndarray, a: np.ndarray, n_samples: int) -> np.ndarray:
    """First ``n_samples`` of the impulse response of ``b(z)/a(z)``.

    ``b`` and ``a`` have one length of at least 2.  This is the
    direct-form-II-transposed recursion of ``scipy.signal.lfilter``: both
    polynomials are divided by ``a[0]``, and every sample takes the same
    operations in the same order.
    """
    a = np.asarray(a, dtype=float)
    num, den = np.asarray(b, dtype=float) / a[0], a / a[0]
    state = np.zeros(len(den) - 1)
    out = np.empty(n_samples)
    for n in range(n_samples):
        x = 1.0 if n == 0 else 0.0
        y = state[0] + num[0] * x
        state[:-1] = state[1:] + x * num[1:-1] - y * den[1:-1]
        state[-1] = x * num[-1] - y * den[-1]
        out[n] = y
    return out


def _butterworth_highpass_poles(order: int, corner: float) -> np.ndarray:
    """Poles of a digital Butterworth high-pass with normalized corner frequency.

    ``corner`` is in cycles/sample (0..0.5).  Only the poles are used; the
    NTF zeros come from :func:`optimal_zero_frequencies`.  The steps are
    ``scipy.signal.butter(order, 2·corner, "highpass", output="zpk")``'s, in
    its order: the analog prototype poles, the prewarp at ``fs = 2``, the
    low-pass to high-pass inversion and the bilinear transform.
    """
    corner = min(max(corner, 1e-6), 0.49999)
    m = np.arange(-order + 1, order, 2, dtype=float)
    prototype = -np.exp(1j * np.pi * m / (2 * order))
    fs = 2.0
    warped = 2 * fs * np.tan(np.pi * np.asarray(2.0 * corner) / fs)
    highpass = float(warped) / prototype
    return (2.0 * fs + highpass) / (2.0 * fs - highpass)


def synthesize_ntf(order: int = 5, osr: int = 16, h_inf: float = 3.0,
                   optimize_zeros: bool = True) -> NoiseTransferFunction:
    """Synthesize a low-pass delta-sigma NTF.

    Synthesis is deterministic in its arguments and the returned
    :class:`NoiseTransferFunction` is never mutated, so results are
    memoized under the canonical key ``(order, osr, h_inf,
    optimize_zeros)``, however the call spells it: the linear-model SNR
    estimate and the modulator share one synthesis, and so does every
    point of a sweep that shares a modulator spec.

    Parameters
    ----------
    order:
        Loop-filter order (5 for the paper's modulator).
    osr:
        Oversampling ratio (16 for the paper's modulator).
    h_inf:
        Target out-of-band gain (infinity-norm of the NTF).  The paper's
        design uses 3 (Table I, "OBG").
    optimize_zeros:
        Spread the NTF zeros across the signal band (two resonators plus a
        DC zero for a 5th-order design) instead of stacking them at DC.

    Returns
    -------
    NoiseTransferFunction

    Raises
    ------
    NTFSynthesisError
        If the requested out-of-band gain cannot be realized.
    """
    if order != int(order) or osr != int(osr):
        raise ValueError("order and osr must be integers")
    if order < 1 or order > 12:
        raise ValueError("order must be between 1 and 12")
    if osr < 2:
        raise ValueError("osr must be at least 2")
    if h_inf <= 1.0:
        raise ValueError("h_inf must exceed 1.0")
    return _synthesize(int(order), int(osr), float(h_inf),
                       bool(optimize_zeros))


@lru_cache(maxsize=64)
def _synthesize(order: int, osr: int, h_inf: float,
                optimize_zeros: bool) -> NoiseTransferFunction:
    """:func:`synthesize_ntf` on validated, canonical arguments."""
    zero_freqs = optimal_zero_frequencies(order, osr, optimize_zeros)
    zeros = np.exp(2j * np.pi * zero_freqs)
    # The out-of-band gain grid of NoiseTransferFunction.out_of_band_gain
    # and its zero product, built once; each corner forms only its poles.
    z = _unit_circle(np.linspace(0.0, 0.5, 4096))
    zero_product = _root_product(z, zeros)

    def out_of_band_gain_for(corner: float) -> float:
        poles = _butterworth_highpass_poles(order, corner)
        return float(np.max(np.abs(_zpk_response(z, zero_product, poles,
                                                 1.0))))

    # The out-of-band gain grows monotonically with the Butterworth corner
    # frequency once the corner is at or above the signal-band edge (below
    # the band edge the poles crowd the in-band zeros and the response peaks
    # in band); bisect the corner in that monotone region.
    lo, hi = 0.5 / osr, 0.45
    gain_lo = out_of_band_gain_for(lo)
    gain_hi = out_of_band_gain_for(hi)
    if gain_lo > h_inf:
        raise NTFSynthesisError(
            f"requested h_inf={h_inf} is below the minimum achievable "
            f"({gain_lo:.3f}) for order {order}"
        )
    if gain_hi < h_inf:
        hi = 0.499
        gain_hi = out_of_band_gain_for(hi)
        if gain_hi < h_inf:
            raise NTFSynthesisError(
                f"requested h_inf={h_inf} exceeds the maximum achievable "
                f"({gain_hi:.3f}) for order {order}"
            )
    # A step depends on (lo, hi) alone, so once one leaves the bracket
    # unchanged every later step would too: stop there, exactly.
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        bracket = (mid, hi) if out_of_band_gain_for(mid) < h_inf else (lo, mid)
        if bracket == (lo, hi):
            break
        lo, hi = bracket
    corner = 0.5 * (lo + hi)
    poles = _butterworth_highpass_poles(order, corner)
    return NoiseTransferFunction(
        zeros=zeros,
        poles=poles,
        gain=1.0,
        order=order,
        osr=osr,
        h_inf=out_of_band_gain_for(corner),
        metadata={
            "butterworth_corner": corner,
            "optimized_zeros": optimize_zeros,
            "zero_frequencies": zero_freqs,
        },
    )
