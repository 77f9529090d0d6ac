"""Tests for the CSD/Horner scaling stage."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import DecimationChain
from repro.filters import ScalingStage
from repro.fixedpoint import horner_decomposition, to_csd
from repro.fixedpoint.csd import csd_multiply_int


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

    def test_zero_scale_rejected(self):
        with pytest.raises(ValueError):
            ScalingStage(scale=0.0)

    def test_steps_are_the_decomposition_of_its_code(self):
        stage = ScalingStage(scale=10.825, coefficient_bits=12)
        assert stage.csd == to_csd(10.825, 12)
        assert stage.horner_steps == tuple(horner_decomposition(stage.csd))

    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_output_rounds_half_up(self, dtype):
        stage = ScalingStage(scale=0.5, coefficient_bits=8)
        x = np.array([1, -1, 3, -3], dtype=dtype)
        assert stage.process(x).tolist() == [1, 0, 2, -1]

    @pytest.mark.parametrize("scale", [10.825, 1.2345, 0.5, 3.0])
    def test_fast_path_matches_shift_add_gold_model(self, scale, rng):
        stage = ScalingStage(scale=scale, coefficient_bits=12)
        x = rng.integers(-2 ** 20, 2 ** 20, (3, 64))
        fast = stage.process(x)
        assert fast.dtype == np.int64
        assert fast.tolist() == [stage._process_reference(row).tolist() for row in x]
        half = 1 << 11
        assert fast[0].tolist() == [
            (csd_multiply_int(int(v), stage.csd, 12) + half) >> 12 for v in x[0]]

    def test_wide_samples_take_the_gold_model(self):
        stage = ScalingStage(scale=1.2345, coefficient_bits=12)
        x = np.array([2 ** 62, -(2 ** 62), 7], dtype=np.int64)
        out = stage.process(x)
        assert out.dtype == object
        assert out.tolist() == stage._process_reference(x).tolist()


class TestChainScaleFactor:
    """The chain sets the scaler gain to ``scaling_headroom / msa`` of the
    MSA-limited Sinc output, so the scaled signal spans just under the
    guarded output full scale."""

    @pytest.mark.parametrize("msa", [0.6, 0.81, 1.0])
    def test_gain_restores_msa_to_headroom(self, paper_chain, msa):
        spec = replace(paper_chain.spec,
                       modulator=replace(paper_chain.spec.modulator, msa=msa))
        chain = DecimationChain.design(spec, paper_chain.options)
        sinc_gain = 2 ** sum(s.spec.order for s in chain.sinc_cascade.stages)
        max_input = ((1 << spec.modulator.quantizer_bits) - 1) / 2
        guarded_full_scale = ((1 << (spec.decimator.output_bits - 1)) - 1
                              << chain.options.guard_bits)
        at_msa = chain.scaling.scale * msa * max_input * sinc_gain
        assert at_msa / guarded_full_scale == pytest.approx(
            chain.options.scaling_headroom, rel=1e-12)
        assert chain.options.scaling_headroom < 1.0
        bits = chain.options.scaling_coefficient_bits
        assert abs(chain.scaling.quantized_scale - chain.scaling.scale) <= 2 ** -(bits + 1)
