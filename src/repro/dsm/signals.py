"""Test-signal generation for modulator and decimator characterization.

The paper characterizes the modulator with a single tone near the band edge
(Fig. 4) and estimates decimation-filter power with a 5 MHz tone at the
maximum stable amplitude (Section VIII).  The generators here produce
coherently-sampled tones (an integer number of cycles in the record) so that
windowless FFT analysis has no spectral leakage, plus impulse and DC
records for bit-true filter tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ToneSpec:
    """Description of a coherently-sampled sine tone."""

    frequency_hz: float
    amplitude: float
    sample_rate_hz: float
    n_samples: int
    phase: float = 0.0

    @property
    def coherent_frequency_hz(self) -> float:
        """The tone frequency snapped to the nearest coherent FFT bin."""
        cycles = max(1, int(round(self.frequency_hz / self.sample_rate_hz * self.n_samples)))
        return cycles * self.sample_rate_hz / self.n_samples

    @property
    def bin_index(self) -> int:
        """FFT bin index of the coherent tone."""
        return max(1, int(round(self.frequency_hz / self.sample_rate_hz * self.n_samples)))


def coherent_tone(frequency_hz: float, amplitude: float, sample_rate_hz: float,
                  n_samples: int, phase: float = 0.0) -> np.ndarray:
    """Generate a sine tone with an integer number of cycles in the record.

    The requested frequency is snapped to the nearest FFT bin so that the
    signal is periodic in the record length.
    """
    spec = ToneSpec(frequency_hz, amplitude, sample_rate_hz, n_samples, phase)
    f = spec.coherent_frequency_hz
    return amplitude * np.sin(tone_argument(f, sample_rate_hz, n_samples, phase))


def tone_argument(frequency_hz: float, sample_rate_hz: float, n_samples: int,
                  phase: float = 0.0) -> np.ndarray:
    """The clean sine argument ``2π·f/fs·n + phase`` of a tone record.

    The SNR-leg reference stimulus
    (:func:`repro.core.verification.modulator_tone_codes`) is built from
    it.  A caller writing many tones of one frequency and length computes
    it once and hands it to :func:`write_jittered_tone` for every record.
    """
    n = np.arange(n_samples)
    return 2.0 * np.pi * frequency_hz / sample_rate_hz * n + phase


def jittered_tone(frequency_hz: float, amplitude: float, sample_rate_hz: float,
                  n_samples: int, jitter_rms_s: float,
                  rng: np.random.Generator, phase: float = 0.0) -> np.ndarray:
    """A coherent tone sampled on a jittered clock.

    Models sampling-clock jitter on the modulator stimulus: sample ``n`` is
    taken at ``t_n = n/fs + δ_n`` with ``δ_n`` independent zero-mean Gaussian
    aperture errors of RMS ``jitter_rms_s`` drawn from ``rng``.  This is the
    stimulus-domain jitter axis of the :mod:`repro.robustness` Monte Carlo
    subsystem.

    Unlike :func:`coherent_tone`, the frequency is used **as given** — no
    coherent-bin snapping.  Callers (the robustness engine, the SNR leg)
    already hold the exact coherent frequency for their *analysis* record
    length, which differs from the generated record length when the
    stimulus carries group-delay settle padding; re-snapping here would
    silently move the tone off the analysis bin.  With a frequency of the
    form ``k·fs/n`` and ``jitter_rms_s = 0`` the output is bit-identical to
    the reference stimulus of
    :func:`repro.core.verification.modulator_tone_codes`.

    Parameters
    ----------
    frequency_hz, amplitude, sample_rate_hz, n_samples, phase:
        As in :func:`coherent_tone`, except that ``frequency_hz`` is not
        snapped.
    jitter_rms_s:
        RMS of the per-sample timing error, in seconds.
    rng:
        Seeded :class:`numpy.random.Generator`; the caller owns the seeding
        so Monte Carlo draws stay reproducible.
    """
    argument = tone_argument(frequency_hz, sample_rate_hz, n_samples, phase)
    return write_jittered_tone(np.empty(n_samples), argument, frequency_hz,
                               amplitude, jitter_rms_s, rng)


def write_jittered_tone(out: np.ndarray, argument: np.ndarray,
                        frequency_hz: float, amplitude: float,
                        jitter_rms_s: float, rng: np.random.Generator,
                        offset: float = 0.0) -> np.ndarray:
    """Write one jittered tone record into ``out`` and return ``out``.

    The tone writer behind :func:`jittered_tone`: ``out`` receives
    ``amplitude·sin(argument + 2π·f·jitter_rms_s·N(0, 1)) + offset`` with
    the Gaussian draws taken from ``rng``, every step computed in place,
    so a caller filling the rows of a preallocated matrix from one
    :func:`tone_argument` allocates nothing per record.  Each row equals
    ``jittered_tone(f, amplitude, fs, n, jitter_rms_s, rng, phase) +
    offset`` bit for bit (the in-place products and sums are the same
    IEEE operations with the operands swapped).  A zero ``offset`` is not
    added.

    ``out`` must be a float64 C-contiguous array of ``argument``'s shape
    that does not overlap it.
    """
    if jitter_rms_s > 0.0:
        rng.standard_normal(out=out)
        out *= 2.0 * np.pi * frequency_hz * jitter_rms_s
        out += argument
        np.sin(out, out=out)
    else:
        np.sin(argument, out=out)
    out *= amplitude
    if offset:
        out += offset
    return out


def impulse(n_samples: int, amplitude: float = 1.0, position: int = 0) -> np.ndarray:
    """A single impulse for measuring impulse responses of bit-true filters."""
    out = np.zeros(n_samples)
    if not 0 <= position < n_samples:
        raise ValueError("impulse position outside the record")
    out[position] = amplitude
    return out


def dc(level: float, n_samples: int) -> np.ndarray:
    """Constant DC input."""
    return np.full(n_samples, float(level))
