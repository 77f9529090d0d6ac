"""Tests for the test-signal generators."""

import numpy as np
import pytest

from repro.dsm import ToneSpec, coherent_tone, dc, impulse
from repro.dsm.signals import jittered_tone, tone_argument, write_jittered_tone


class TestCoherentTone:
    def test_amplitude(self):
        tone = coherent_tone(5e6, 0.7, 640e6, 4096)
        assert np.max(np.abs(tone)) == pytest.approx(0.7, rel=1e-2)

    def test_coherence_integer_cycles(self):
        n = 4096
        spec = ToneSpec(5e6, 1.0, 640e6, n)
        cycles = spec.coherent_frequency_hz * n / 640e6
        assert cycles == pytest.approx(round(cycles))

    def test_no_leakage_for_coherent_tone(self):
        n = 4096
        tone = coherent_tone(5e6, 1.0, 640e6, n)
        spectrum = np.abs(np.fft.rfft(tone))
        peak_bin = int(np.argmax(spectrum))
        # All energy concentrates in the single tone bin.
        others = np.delete(spectrum, peak_bin)
        assert np.max(others) < 1e-6 * spectrum[peak_bin]

    def test_bin_index_positive(self):
        spec = ToneSpec(1.0, 1.0, 1000.0, 64)
        assert spec.bin_index >= 1

    def test_phase_offset(self):
        tone = coherent_tone(5e6, 1.0, 640e6, 1024, phase=np.pi / 2)
        assert tone[0] == pytest.approx(1.0, abs=1e-9)


class TestTwoTones:
    def test_two_coherent_tones_present(self):
        n = 8192
        signal = coherent_tone(5e6, 0.4, 640e6, n) + coherent_tone(7e6, 0.4, 640e6, n)
        spectrum = np.abs(np.fft.rfft(signal))
        peaks = np.argsort(spectrum)[-2:]
        freqs = peaks * 640e6 / n
        assert set(np.round(freqs / 1e6)) == {5.0, 7.0}


class TestJitteredToneWriter:
    """The in-place writer the Monte Carlo fills its stimulus rows with."""

    FS = 640e6
    N = 3000
    F = 5.12e6

    @pytest.mark.parametrize("jitter_rms_s", [0.0, 2e-12])
    @pytest.mark.parametrize("phase", [0.0, 0.7])
    def test_writer_is_bit_identical_to_jittered_tone_plus_offset(
            self, jitter_rms_s, phase):
        argument = tone_argument(self.F, self.FS, self.N, phase)
        rows = np.empty((3, self.N))
        for seed, (out, gain, offset) in enumerate(
                zip(rows, (1.01, 0.97, 1.0), (3e-3, -2e-3, 0.0))):
            written = write_jittered_tone(
                out, argument, self.F, 0.5 * gain, jitter_rms_s,
                np.random.default_rng(seed), offset)
            assert written is out
            expected = jittered_tone(self.F, 0.5 * gain, self.FS, self.N,
                                     jitter_rms_s, np.random.default_rng(seed),
                                     phase) + offset
            assert np.array_equal(out, expected)

    @pytest.mark.parametrize("jitter_rms_s", [0.0, 2e-12])
    def test_jittered_tone_keeps_the_out_of_place_arithmetic(self,
                                                             jitter_rms_s):
        rng = np.random.default_rng(11)
        t = np.arange(self.N)
        arg = 2.0 * np.pi * self.F / self.FS * t + 0.3
        if jitter_rms_s > 0.0:
            arg = arg + (2.0 * np.pi * self.F * jitter_rms_s
                         * rng.standard_normal(self.N))
        reference = 0.5 * np.sin(arg)
        tone = jittered_tone(self.F, 0.5, self.FS, self.N, jitter_rms_s,
                             np.random.default_rng(11), 0.3)
        assert np.array_equal(reference.view(np.uint64), tone.view(np.uint64))


class TestNoiseAndUtilities:
    def test_impulse_position_and_amplitude(self):
        imp = impulse(16, amplitude=2.0, position=3)
        assert imp[3] == 2.0
        assert np.sum(np.abs(imp)) == 2.0

    def test_impulse_invalid_position(self):
        with pytest.raises(ValueError):
            impulse(8, position=8)

    def test_dc_level(self):
        d = dc(0.25, 10)
        assert np.all(d == 0.25)
        assert len(d) == 10
