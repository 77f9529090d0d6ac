"""Tests for the delta-sigma modulator simulation."""

import dataclasses

import numpy as np
import pytest

from repro.dsm import (
    DeltaSigmaModulator,
    ErrorFeedbackSimulator,
    MultibitQuantizer,
    analyze_tone,
    coherent_tone,
    synthesize_ntf,
)


class TestErrorFeedbackSimulator:
    def test_output_values_on_quantizer_grid(self, paper_modulator, modulator_codes):
        grid = paper_modulator.quantizer.level_values
        assert np.all(np.isin(np.round(modulator_codes.output, 10),
                              np.round(grid, 10)))

    def test_codes_in_range(self, modulator_codes):
        assert modulator_codes.codes.min() >= 0
        assert modulator_codes.codes.max() <= 15

    def test_stable_for_moderate_input(self, modulator_codes):
        assert modulator_codes.stable

    def test_output_tracks_input_at_low_frequency(self, paper_modulator):
        # The STF is unity, so a slow ramp must be followed closely on average.
        n = 4096
        u = np.full(n, 0.5)
        result = paper_modulator.simulate(u)
        assert np.mean(result.output[n // 2:]) == pytest.approx(0.5, abs=0.01)

    def test_dc_input_zero_gives_near_zero_mean(self, paper_modulator):
        result = paper_modulator.simulate(np.zeros(4096))
        assert abs(np.mean(result.output[1000:])) < 0.02

    def test_noise_is_shaped_highpass(self, paper_modulator):
        # Quantization error spectrum must rise with frequency: compare the
        # in-band noise with the out-of-band noise for a zero input.
        result = paper_modulator.simulate(np.zeros(16384))
        spectrum = np.abs(np.fft.rfft(result.output * np.hanning(16384))) ** 2
        freqs = np.fft.rfftfreq(16384)
        inband = np.sum(spectrum[(freqs > 0.001) & (freqs < 0.5 / 16)])
        outband = np.sum(spectrum[freqs > 0.25])
        assert outband > 100 * inband

    def test_requires_monic_ntf(self):
        # A non-monic copy: the synthesized NTF is shared by the cache.
        ntf = dataclasses.replace(synthesize_ntf(3, 16, 1.5), gain=2.0)
        with pytest.raises(ValueError):
            ErrorFeedbackSimulator(ntf, MultibitQuantizer(4))

    def test_measured_sqnr_near_paper_value(self, paper_modulator):
        n = 16384
        tone = coherent_tone(2e6, 0.6, 640e6, n)
        result = paper_modulator.simulate(tone)
        analysis = analyze_tone(result.output, 640e6, 2e6, 20e6)
        # Paper: 102 dB at full MSA; at -4 dBFS we expect >90 dB.
        assert analysis.snr_db > 90.0

    def test_instability_flag_for_large_input(self, paper_modulator):
        n = 4096
        tone = coherent_tone(2e6, 1.3, 640e6, n)
        result = paper_modulator.simulate(tone)
        saturating = np.mean(paper_modulator.quantizer.is_saturating(result.quantizer_input))
        assert (not result.stable) or saturating > 0.1


class TestDeltaSigmaModulator:
    def test_derived_rates(self, paper_modulator):
        assert paper_modulator.signal_bandwidth_hz == pytest.approx(20e6)
        assert paper_modulator.output_rate_hz == pytest.approx(40e6)

    def test_bitstream_for_tone_helper(self, paper_modulator):
        result = paper_modulator.bitstream_for_tone(3e6, 0.5, 2048)
        assert result.n_samples == 2048

    def test_msa_estimate_in_plausible_range(self, paper_modulator):
        msa = paper_modulator.estimate_msa(n_samples=2048,
                                           amplitude_grid=np.linspace(0.6, 1.0, 9))
        # The paper reports 0.81; the coarse empirical estimate must land in
        # the same neighbourhood.
        assert 0.6 <= msa <= 1.0

    def test_predicted_sqnr(self, paper_modulator):
        assert paper_modulator.predicted_sqnr_db(0.81) > 95.0

    def test_unknown_engine_raises(self, paper_modulator):
        with pytest.raises(ValueError):
            paper_modulator.simulate(np.zeros(16), engine="spice")
