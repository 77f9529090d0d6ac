"""Tests for the spectral analysis helpers."""

import numpy as np
import pytest

from repro.dsm import (
    analyze_tone,
    coherent_tone,
    db_power,
    periodogram,
    spectrum_for_plot,
)


class TestDbHelpers:
    def test_db_power_of_one_is_zero(self):
        assert db_power(np.array([1.0]))[0] == 0.0

    def test_db_power_guards_zero(self):
        assert np.isfinite(db_power(np.array([0.0]))[0])


class TestPeriodogram:
    def test_parseval_white_noise(self, rng):
        x = rng.standard_normal(8192)
        freqs, power = periodogram(x, 1.0, window="rect")
        assert np.sum(power) == pytest.approx(np.mean(x ** 2), rel=0.01)

    def test_tone_power_recovered(self):
        n = 4096
        x = coherent_tone(50.0, 0.5, 1000.0, n)
        _, power = periodogram(x, 1000.0, window="rect")
        assert np.max(power) == pytest.approx(0.5 ** 2 / 2, rel=1e-6)

    def test_hann_tone_peak_bin_has_correct_power(self):
        # With coherent-gain normalization the peak bin carries the tone
        # power; the summed power over the main lobe exceeds it by the
        # window's noise-equivalent bandwidth (1.5 for Hann).
        n = 4096
        x = coherent_tone(50.0, 0.5, 1000.0, n)
        _, power = periodogram(x, 1000.0, window="hann")
        peak = int(np.argmax(power))
        assert power[peak] == pytest.approx(0.5 ** 2 / 2, rel=0.01)
        assert np.sum(power[peak - 2:peak + 3]) == pytest.approx(1.5 * 0.5 ** 2 / 2, rel=0.01)

    def test_frequency_axis(self):
        freqs, _ = periodogram(np.zeros(128) + 1e-9, 256.0)
        assert freqs[0] == 0.0
        assert freqs[-1] == pytest.approx(128.0)

    def test_unknown_window_raises(self):
        with pytest.raises(ValueError):
            periodogram(np.zeros(64), 1.0, window="kaiser")

    def test_short_record_raises(self):
        with pytest.raises(ValueError):
            periodogram(np.zeros(4), 1.0)


class TestAnalyzeTone:
    def test_clean_tone_with_known_noise_floor(self, rng):
        n = 16384
        fs = 40e6
        tone = coherent_tone(5e6, 0.5, fs, n)
        noise = rng.standard_normal(n) * 1e-4
        analysis = analyze_tone(tone + noise, fs, 5e6, bandwidth_hz=20e6)
        expected_snr = 10 * np.log10((0.5 ** 2 / 2) / 1e-8)
        assert analysis.snr_db == pytest.approx(expected_snr, abs=1.5)

    def test_enob_consistent_with_snr(self):
        n = 8192
        tone = coherent_tone(1e6, 0.9, 40e6, n)
        analysis = analyze_tone(tone + 1e-5 * np.sin(np.arange(n)), 40e6, 1e6)
        assert analysis.enob == pytest.approx((analysis.snr_db - 1.76) / 6.02)

    def test_bandwidth_limits_noise_integration(self, rng):
        n = 16384
        fs = 40e6
        tone = coherent_tone(2e6, 0.5, fs, n)
        noise = rng.standard_normal(n) * 1e-3
        wide = analyze_tone(tone + noise, fs, 2e6, bandwidth_hz=20e6)
        narrow = analyze_tone(tone + noise, fs, 2e6, bandwidth_hz=5e6)
        assert narrow.snr_db > wide.snr_db

    def test_modulator_spectrum_sqnr(self, paper_modulator, modulator_codes):
        analysis = analyze_tone(modulator_codes.output, 640e6, 2.5e6, 20e6)
        assert analysis.snr_db > 90.0
        assert analysis.enob > 14.5


class TestPlot:
    def test_spectrum_for_plot_shapes(self, modulator_codes):
        freqs, psd = spectrum_for_plot(modulator_codes.output, 640e6)
        assert len(freqs) == len(psd)
        assert freqs[-1] == pytest.approx(320e6)

    def test_spectrum_smoothing(self, modulator_codes):
        _, raw = spectrum_for_plot(modulator_codes.output, 640e6, smooth_bins=1)
        _, smooth = spectrum_for_plot(modulator_codes.output, 640e6, smooth_bins=16)
        assert np.std(np.diff(smooth)) < np.std(np.diff(raw))
