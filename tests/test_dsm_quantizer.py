"""Tests for the internal quantizer models."""

import numpy as np
import pytest

from repro.dsm import MultibitQuantizer, synthesize_ntf


class TestMultibitQuantizer:
    def test_level_count(self):
        assert MultibitQuantizer(bits=4).levels == 16
        assert MultibitQuantizer(bits=1).levels == 2

    def test_step_size(self):
        q = MultibitQuantizer(bits=4)
        assert q.step == pytest.approx(2.0 / 15.0)

    def test_levels_span_full_scale(self):
        q = MultibitQuantizer(bits=3)
        grid = q.level_values
        assert grid[0] == -1.0
        assert grid[-1] == 1.0
        assert len(grid) == 8

    def test_quantize_on_grid_is_identity(self):
        q = MultibitQuantizer(bits=4)
        for level in q.level_values:
            assert q.quantize(level) == pytest.approx(level)

    def test_quantize_error_bounded_by_half_step(self):
        q = MultibitQuantizer(bits=4)
        x = np.linspace(-1, 1, 1001)
        err = q.error(x)
        assert np.max(np.abs(err)) <= q.step / 2 + 1e-12

    def test_saturation_above_full_scale(self):
        q = MultibitQuantizer(bits=4)
        assert q.quantize(5.0) == 1.0
        assert q.quantize(-5.0) == -1.0

    def test_codes_cover_range(self):
        q = MultibitQuantizer(bits=4)
        codes = q.quantize_to_code(np.linspace(-1.2, 1.2, 101))
        assert codes.min() == 0
        assert codes.max() == 15

    def test_code_round_trip(self):
        q = MultibitQuantizer(bits=4)
        x = np.linspace(-0.99, 0.99, 57)
        values = q.code_to_value(q.quantize_to_code(x))
        assert np.allclose(values, q.quantize(x))

    def test_scalar_and_array_agree(self):
        q = MultibitQuantizer(bits=4)
        assert q.quantize(0.3) == q.quantize(np.array([0.3]))[0]
        assert q.quantize_to_code(0.3) == q.quantize_to_code(np.array([0.3]))[0]

    def test_is_saturating_flags(self):
        q = MultibitQuantizer(bits=4)
        assert q.is_saturating(1.5)
        assert not q.is_saturating(0.99)

    def test_theoretical_noise_power(self):
        q = MultibitQuantizer(bits=4)
        assert q.theoretical_noise_power() == pytest.approx(q.step ** 2 / 12.0)

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            MultibitQuantizer(bits=0)

    def test_invalid_full_scale(self):
        with pytest.raises(ValueError):
            MultibitQuantizer(bits=4, full_scale=0.0)


class TestOneBitQuantizer:
    """The single-bit case of the quantizer: two levels at ±full scale."""

    def test_sign_behaviour(self):
        q = MultibitQuantizer(bits=1)
        assert q.quantize(0.3) == 1.0
        assert q.quantize(-0.3) == -1.0
        assert q.quantize(7.0) == 1.0

    def test_codes(self):
        q = MultibitQuantizer(bits=1)
        assert q.quantize_to_code(0.5) == 1
        assert q.quantize_to_code(-0.5) == 0
        assert q.code_to_value(1) == 1.0

    def test_properties(self):
        q = MultibitQuantizer(bits=1)
        assert q.levels == 2
        assert q.step == 2.0
        assert list(q.level_values) == [-1.0, 1.0]


class TestLinearModelSQNR:
    """``NoiseTransferFunction.predicted_sqnr_db`` over quantizer and OSR."""

    def test_increases_with_osr(self):
        ntf = synthesize_ntf(order=5, osr=16)
        assert ntf.predicted_sqnr_db(osr=32) > ntf.predicted_sqnr_db(osr=16)

    def test_increases_with_bits(self):
        ntf = synthesize_ntf(order=5, osr=16)
        assert (ntf.predicted_sqnr_db(quantizer_levels=32)
                > ntf.predicted_sqnr_db(quantizer_levels=16))

    def test_paper_configuration_exceeds_target(self):
        # 4-bit, OSR 16, 5th order must be comfortably above the 86 dB target.
        ntf = synthesize_ntf(order=5, osr=16)
        assert ntf.predicted_sqnr_db(quantizer_levels=16, input_amplitude=0.81) > 86.0
