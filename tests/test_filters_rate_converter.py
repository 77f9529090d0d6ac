"""Tests for the Farrow output sample-rate converter."""

import numpy as np
import pytest

from repro.filters.rate_converter import FarrowRateConverter


class TestFarrowRateConverter:
    def test_conversion_ratio(self):
        conv = FarrowRateConverter(40e6, 30.72e6)
        assert conv.conversion_ratio == pytest.approx(40.0 / 30.72)

    def test_output_length_matches_ratio(self):
        conv = FarrowRateConverter(40e6, 30.72e6)
        out = conv.process(np.zeros(4003))
        expected = 4000 / conv.conversion_ratio
        assert abs(len(out) - expected) <= 2

    def test_unity_ratio_reproduces_input(self):
        conv = FarrowRateConverter(40e6, 40e6)
        x = np.sin(2 * np.pi * 0.01 * np.arange(256))
        out = conv.process(x)
        # Integer steps with mu = 0 reproduce the input samples exactly
        # (shifted by the one-sample interpolation offset).
        assert np.allclose(out[:200], x[1:201], atol=1e-12)

    def test_tone_preserved_through_resampling(self):
        # A 5 MHz tone at 40 MS/s resampled to 30.72 MS/s must appear at
        # 5 MHz with the same amplitude.
        fs_in, fs_out = 40e6, 30.72e6
        n = 4096
        t = np.arange(n) / fs_in
        x = np.sin(2 * np.pi * 5e6 * t)
        out = FarrowRateConverter(fs_in, fs_out).process(x)
        spectrum = np.abs(np.fft.rfft(out * np.hanning(len(out))))
        freqs = np.fft.rfftfreq(len(out), d=1.0 / fs_out)
        peak = freqs[int(np.argmax(spectrum))]
        assert peak == pytest.approx(5e6, rel=0.01)
        # Amplitude preserved within a fraction of a dB for an in-band tone
        # (estimated from the RMS to avoid FFT scalloping bias).
        recon_amp = np.sqrt(2.0) * np.sqrt(np.mean(out ** 2))
        assert recon_amp == pytest.approx(1.0, abs=0.02)

    def test_resampling_error_small_for_oversampled_tone(self):
        # For a tone well below Nyquist the cubic interpolator error is tiny.
        fs_in, fs_out = 40e6, 38.4e6
        n = 2048
        x = np.sin(2 * np.pi * 2e6 * np.arange(n) / fs_in)
        conv = FarrowRateConverter(fs_in, fs_out)
        out = conv.process(x)
        t_out = (1.0 + np.arange(len(out)) * conv.conversion_ratio) / fs_in
        ideal = np.sin(2 * np.pi * 2e6 * t_out)
        assert np.max(np.abs(out - ideal)) < 1e-3

    def test_short_input_returns_empty(self):
        conv = FarrowRateConverter(40e6, 30.72e6)
        assert len(conv.process(np.zeros(3))) == 0

    def test_invalid_rates(self):
        with pytest.raises(ValueError):
            FarrowRateConverter(0.0, 30e6)
        with pytest.raises(ValueError):
            FarrowRateConverter(40e6, 90e6)

    def test_resource_summary(self):
        conv = FarrowRateConverter(40e6, 30.72e6)
        res = conv.resource_summary(data_bits=14)
        assert res["multipliers"] == 12
        assert res["adders"] == 15
        assert res["slow_clock_hz"] == pytest.approx(30.72e6)


class TestVectorizedEvaluation:
    def _reference_loop(self, conv, samples):
        # The original per-sample Farrow loop, kept as the gold model for
        # the vectorized evaluation.
        from repro.filters.rate_converter import _LAGRANGE_FARROW

        x = np.asarray(samples, dtype=float)
        if len(x) < 4:
            return np.zeros(0)
        ratio = conv.conversion_ratio
        outputs = []
        position = 1.0
        limit = len(x) - 2.0
        while position < limit:
            base = int(np.floor(position))
            mu = position - base
            window = x[base - 1:base + 3]
            mu_powers = np.array([1.0, mu, mu * mu, mu * mu * mu])
            outputs.append(float(np.dot(_LAGRANGE_FARROW @ mu_powers, window)))
            position += ratio
        return np.array(outputs)

    @pytest.mark.parametrize("rates", [(40e6, 30.72e6), (40e6, 40e6),
                                       (40e6, 61.44e6), (48e3, 44.1e3)])
    def test_matches_reference_loop(self, rates):
        rng = np.random.default_rng(7)
        conv = FarrowRateConverter(*rates)
        for n in (4, 5, 17, 1000):
            x = rng.standard_normal(n)
            expected = self._reference_loop(conv, x)
            got = conv.process(x)
            assert len(got) == len(expected)
            assert np.allclose(got, expected, rtol=1e-13, atol=1e-13)

    def test_expected_output_count_matches_process(self):
        conv = FarrowRateConverter(40e6, 30.72e6)
        for n in (3, 4, 100, 4003):
            assert conv.expected_output_count(n) == len(conv.process(np.zeros(n)))

    def test_cubic_polynomial_reproduced_exactly(self):
        # The cubic Lagrange interpolator is exact on cubic polynomials.
        conv = FarrowRateConverter(40e6, 31e6)
        t = np.arange(64, dtype=float)
        x = 0.5 * t ** 3 - 2.0 * t ** 2 + 3.0 * t - 1.0
        out = conv.process(x)
        positions = conv._positions(len(x))
        ideal = 0.5 * positions ** 3 - 2.0 * positions ** 2 + 3.0 * positions - 1.0
        assert np.allclose(out, ideal, rtol=1e-9)

    def test_interpolation_above_input_rate(self):
        # Modest interpolation (< 2x) is supported: more outputs than inputs.
        conv = FarrowRateConverter(40e6, 61.44e6)
        out = conv.process(np.sin(2 * np.pi * 0.01 * np.arange(256)))
        assert len(out) > 256


class TestChainIntegration:
    def test_decimator_output_to_lte_rate(self, paper_chain, modulator_codes):
        # The paper's Section III note: a rate converter after the decimator
        # provides a flexible output rate (e.g. LTE's 30.72 MS/s).
        out = paper_chain.output_to_normalized(
            paper_chain.process_fixed(modulator_codes.codes))
        resampled = FarrowRateConverter(40e6, 30.72e6).process(out[200:])
        assert len(resampled) == pytest.approx(len(out[200:]) * 30.72 / 40.0, abs=3)
        # The 2.5 MHz test tone survives with its amplitude intact.
        spectrum = np.abs(np.fft.rfft(resampled * np.hanning(len(resampled))))
        freqs = np.fft.rfftfreq(len(resampled), d=1.0 / 30.72e6)
        peak = freqs[int(np.argmax(spectrum))]
        assert peak == pytest.approx(2.5e6, rel=0.02)
