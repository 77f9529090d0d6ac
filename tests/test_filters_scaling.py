"""Tests for the CSD/Horner scaling stage."""

import numpy as np
import pytest

from repro.filters import ScalingStage, choose_scale_factor


class TestScaleFactorChoice:
    def test_slightly_below_inverse_msa(self):
        s = choose_scale_factor(0.81)
        assert s < 1.0 / 0.81
        assert s == pytest.approx(0.99 / 0.81)

    def test_invalid_msa(self):
        with pytest.raises(ValueError):
            choose_scale_factor(0.0)
        with pytest.raises(ValueError):
            choose_scale_factor(1.5)

    def test_invalid_headroom(self):
        with pytest.raises(ValueError):
            choose_scale_factor(0.8, headroom=0.0)


class TestScalingStage:
    def test_quantized_scale_close_to_requested(self):
        stage = ScalingStage(scale=1.2345, coefficient_bits=12)
        assert stage.quantized_scale == pytest.approx(1.2345, abs=2 ** -11)

    def test_process_matches_float_reference(self, rng):
        stage = ScalingStage(scale=1.2345, coefficient_bits=12)
        x = rng.integers(-5000, 5000, 256)
        fixed = np.array([int(v) for v in stage.process(x)], dtype=float)
        ref = stage.process_float(x)
        assert np.max(np.abs(fixed - ref)) <= 1.5

    def test_scaling_by_power_of_two_is_exact(self):
        stage = ScalingStage(scale=0.5, coefficient_bits=8)
        out = stage.process(np.array([128, -64, 32]))
        assert [int(v) for v in out] == [64, -32, 16]

    def test_adder_count_matches_csd_digits(self):
        stage = ScalingStage(scale=10.825, coefficient_bits=12)
        assert stage.adder_count() == stage.csd.nonzero_digits - 1

    def test_paper_constant_is_cheap_in_csd(self):
        # The paper's composite constant 10.825 must only need a handful of
        # shift-add operations — that is the point of CSD + Horner.
        stage = ScalingStage(scale=10.825, coefficient_bits=12)
        assert stage.adder_count() <= 8

    def test_resource_summary(self):
        stage = ScalingStage(scale=1.2345, coefficient_bits=12, data_bits=16)
        res = stage.resource_summary(40e6)
        assert res["word_width"] == 28  # data + coefficient bits
        assert res["fast_clock_hz"] == pytest.approx(40e6)
        assert res["adders"] == stage.adder_count()

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            ScalingStage(scale=-1.0)

    def test_metadata_records_quantization_error(self):
        stage = ScalingStage(scale=1.2345, coefficient_bits=12)
        assert abs(stage.metadata["scale_error"]) <= 2 ** -11
