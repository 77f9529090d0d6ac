"""Tests for the Sinc^K (CIC) design-level model."""

import numpy as np
import pytest

from repro.filters import (
    SincCascade,
    SincCascadeSpec,
    SincFilter,
    SincFilterSpec,
)


class TestSincFilterSpec:
    def test_paper_word_length_progression(self, paper_sinc_cascade_fixture):
        assert paper_sinc_cascade_fixture.stage_word_lengths() == [4, 8, 12]
        assert paper_sinc_cascade_fixture.output_bits == 18

    def test_register_bits_equation(self):
        # Register width = K*log2(M) + Bin (Eq. 2 with Hogenauer's MSB convention).
        spec = SincFilterSpec(order=4, decimation=2, input_bits=4, input_rate_hz=640e6)
        assert spec.register_bits == 8
        spec = SincFilterSpec(order=6, decimation=2, input_bits=12, input_rate_hz=160e6)
        assert spec.register_bits == 18

    def test_output_rate(self):
        spec = SincFilterSpec(4, 2, 4, 640e6)
        assert spec.output_rate_hz == pytest.approx(320e6)

    def test_dc_gain(self):
        assert SincFilterSpec(4, 2, 4, 640e6).dc_gain == 16
        assert SincFilterSpec(6, 2, 4, 640e6).dc_gain == 64

    @pytest.mark.parametrize("kwargs", [
        dict(order=0, decimation=2, input_bits=4, input_rate_hz=1.0),
        dict(order=4, decimation=1, input_bits=4, input_rate_hz=1.0),
        dict(order=4, decimation=2, input_bits=0, input_rate_hz=1.0),
        dict(order=4, decimation=2, input_bits=4, input_rate_hz=0.0),
    ])
    def test_invalid_specs(self, kwargs):
        with pytest.raises(ValueError):
            SincFilterSpec(**kwargs)


class TestSincFilter:
    def test_impulse_response_is_boxcar_power(self):
        f = SincFilter(SincFilterSpec(2, 2, 4, 640e6))
        taps = f.impulse_response(normalized=False)
        assert np.array_equal(taps, [1, 2, 1])

    def test_normalized_impulse_response_sums_to_one(self):
        f = SincFilter(SincFilterSpec(4, 2, 4, 640e6))
        assert np.sum(f.impulse_response(normalized=True)) == pytest.approx(1.0)

    def test_frequency_response_dc_gain_unity(self):
        f = SincFilter(SincFilterSpec(4, 2, 4, 640e6))
        resp = f.frequency_response(np.array([0.0]))
        assert abs(resp.magnitude[0]) == pytest.approx(1.0)

    def test_nulls_at_output_rate_multiples(self):
        f = SincFilter(SincFilterSpec(4, 2, 4, 640e6))
        resp = f.frequency_response(np.array([320e6]))
        assert abs(resp.magnitude[0]) < 1e-12

    def test_analytical_matches_fir_response(self):
        f = SincFilter(SincFilterSpec(4, 2, 4, 640e6))
        freqs = np.linspace(1e5, 310e6, 64)
        analytical = np.abs(f.frequency_response(freqs).magnitude)
        from repro.filters import fir_frequency_response
        fir = np.abs(fir_frequency_response(f.impulse_response(), 640e6, freqs).magnitude)
        assert np.allclose(analytical, fir, atol=1e-9)

    def test_droop_increases_with_order(self):
        low = SincFilter(SincFilterSpec(2, 2, 4, 640e6)).passband_droop_db(20e6)
        high = SincFilter(SincFilterSpec(6, 2, 4, 640e6)).passband_droop_db(20e6)
        assert high > low

    def test_alias_attenuation_increases_with_order(self):
        low = SincFilter(SincFilterSpec(2, 2, 4, 640e6)).worst_alias_attenuation_db(20e6)
        high = SincFilter(SincFilterSpec(6, 2, 4, 640e6)).worst_alias_attenuation_db(20e6)
        assert high > low

    def test_alias_bands_for_decimate_by_two(self):
        f = SincFilter(SincFilterSpec(4, 2, 4, 640e6))
        bands = f.alias_bands(20e6)
        assert bands == [(300e6, 320e6)]


class TestSincCascade:
    def test_total_decimation(self, paper_sinc_cascade_fixture):
        assert paper_sinc_cascade_fixture.total_decimation == 8
        assert paper_sinc_cascade_fixture.output_rate_hz == pytest.approx(80e6)

    def test_cascade_response_is_product_of_stages(self, paper_sinc_cascade_fixture):
        freqs = np.linspace(0, 320e6, 128)
        stages = paper_sinc_cascade_fixture.stage_responses(freqs)
        cascade = paper_sinc_cascade_fixture.cascade_response(freqs)
        product = stages[0].magnitude * stages[1].magnitude * stages[2].magnitude
        assert np.allclose(cascade.magnitude, product)

    def test_equivalent_fir_dc_gain_unity(self, paper_sinc_cascade_fixture):
        taps = paper_sinc_cascade_fixture.equivalent_fir()
        assert np.sum(taps) == pytest.approx(1.0)

    def test_equivalent_fir_matches_cascade_response(self, paper_sinc_cascade_fixture):
        from repro.filters import fir_frequency_response
        freqs = np.linspace(0, 300e6, 96)
        taps = paper_sinc_cascade_fixture.equivalent_fir()
        via_fir = np.abs(fir_frequency_response(taps, 640e6, freqs).magnitude)
        via_product = np.abs(paper_sinc_cascade_fixture.cascade_response(freqs).magnitude)
        assert np.allclose(via_fir, via_product, atol=1e-9)

    def test_paper_droop_about_five_db(self, paper_sinc_cascade_fixture):
        # Fig. 8/10: the Sinc cascade droops by roughly 5 dB at 20 MHz.
        droop = paper_sinc_cascade_fixture.passband_droop_db(20e6)
        assert 3.0 < droop < 7.0

    def test_alias_band_centre_attenuation_over_100_db(self, paper_sinc_cascade_fixture):
        # The paper quotes >100 dB in the alias bands (read at the CIC nulls).
        assert paper_sinc_cascade_fixture.worst_alias_attenuation_db(2.5e6) > 100.0

    def test_stage_words_and_rates(self, paper_sinc_cascade_fixture):
        cascade = paper_sinc_cascade_fixture
        assert cascade.stage_word_lengths() == [4, 8, 12]
        assert [s.spec.order for s in cascade.stages] == [4, 4, 6]
        assert cascade.stages[0].spec.input_rate_hz == pytest.approx(640e6)
        assert cascade.stages[-1].spec.output_rate_hz == pytest.approx(80e6)
