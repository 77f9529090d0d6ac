"""Tests for the multirate cascade response analysis."""

import numpy as np
import pytest
from scipy import signal

from repro.filters import CascadeStageDescription, MultirateCascade


@pytest.fixture()
def two_stage_cascade():
    stage1 = CascadeStageDescription(np.ones(4) / 4.0, 2, "CIC-ish")
    stage2 = CascadeStageDescription(signal.firwin(31, 0.4), 2, "clean-up")
    return MultirateCascade([stage1, stage2], 160e6)


class TestMultirateCascade:
    def test_total_decimation_and_rates(self, two_stage_cascade):
        assert two_stage_cascade.total_decimation == 4
        assert two_stage_cascade.output_rate_hz == pytest.approx(40e6)
        assert two_stage_cascade.stage_input_rates() == [160e6, 80e6]

    def test_equivalent_fir_noble_identity(self, two_stage_cascade, rng):
        # Filtering + decimating stage by stage must equal filtering with the
        # single-rate equivalent FIR and decimating once.
        x = rng.standard_normal(1024)
        stage1, stage2 = two_stage_cascade.stages
        y1 = signal.lfilter(stage1.taps, [1.0], x)[::2]
        y2 = signal.lfilter(stage2.taps, [1.0], y1)[::2]
        equivalent = two_stage_cascade.equivalent_fir()
        y_eq = signal.lfilter(equivalent, [1.0], x)[::4]
        assert np.allclose(y2, y_eq, atol=1e-12)

    def test_overall_response_is_product(self, two_stage_cascade):
        freqs = np.linspace(0, 80e6, 128)
        responses = two_stage_cascade.stage_responses(freqs)
        overall = two_stage_cascade.overall_response(freqs, normalize_dc=False)
        product = responses[0].magnitude * responses[1].magnitude
        assert np.allclose(overall.magnitude, product)

    def test_dc_normalization(self, two_stage_cascade):
        overall = two_stage_cascade.overall_response(n_points=256, normalize_dc=True)
        assert abs(overall.magnitude[0]) == pytest.approx(1.0)

    def test_passband_ripple_uses_fine_grid(self, paper_chain):
        cascade = paper_chain.multirate_cascade()
        ripple = cascade.passband_ripple_db(19e6)
        assert 0.0 <= ripple < 1.0

    def test_empty_cascade_rejected(self):
        with pytest.raises(ValueError):
            MultirateCascade([], 100e6)

    def test_invalid_stage_decimation(self):
        with pytest.raises(ValueError):
            CascadeStageDescription(np.ones(3), 0, "bad")

    def test_alias_attenuation_reported(self, paper_chain):
        cascade = paper_chain.multirate_cascade()
        # Worst-case attenuation over the ±17 MHz protected alias bands is
        # limited by the CIC band-edge roll-off (tens of dB), far below the
        # >100 dB at the band centres — the measurement must reflect that
        # physics (it is why the paper reads its >100 dB figure at the
        # centres of the alias bands).
        worst = cascade.alias_attenuation_db(17e6, n_points=16384)
        assert 40.0 < worst < 90.0
