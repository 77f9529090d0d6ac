"""Tests for coefficient quantization."""

import numpy as np
import pytest

from repro.fixedpoint import (
    quantize_coefficients,
    quantize_coefficients_csd,
)


@pytest.fixture()
def sample_coefficients():
    rng = np.random.default_rng(7)
    return rng.uniform(-0.9, 0.9, 31)


class TestPlainQuantization:
    def test_error_bounded_by_half_lsb(self, sample_coefficients):
        q = quantize_coefficients(sample_coefficients, fraction_bits=12)
        assert q.max_error <= 2 ** -13 + 1e-15

    def test_lengths_match(self, sample_coefficients):
        q = quantize_coefficients(sample_coefficients, fraction_bits=10)
        assert len(q) == len(sample_coefficients)
        assert q.quantized.shape == q.original.shape

    def test_more_bits_reduce_error(self, sample_coefficients):
        coarse = quantize_coefficients(sample_coefficients, fraction_bits=6)
        fine = quantize_coefficients(sample_coefficients, fraction_bits=16)
        assert fine.max_error < coarse.max_error

    def test_handles_coefficients_above_one(self):
        q = quantize_coefficients([1.875, -2.5, 10.825], fraction_bits=8)
        assert q.max_error <= 2 ** -9 + 1e-12

    def test_rejects_matrix_input(self):
        with pytest.raises(ValueError):
            quantize_coefficients(np.zeros((3, 3)), fraction_bits=8)

    def test_adder_cost_positive_for_nontrivial_taps(self, sample_coefficients):
        q = quantize_coefficients(sample_coefficients, fraction_bits=12)
        assert q.total_adders > 0


class TestCSDQuantization:
    def test_error_bounded(self, sample_coefficients):
        q = quantize_coefficients_csd(sample_coefficients, fraction_bits=14)
        assert q.max_error <= 2 ** -14

    def test_csd_codes_present(self, sample_coefficients):
        q = quantize_coefficients_csd(sample_coefficients, fraction_bits=12)
        assert q.csd_codes is not None
        assert len(q.csd_codes) == len(sample_coefficients)

    def test_digit_budget_reduces_adders(self, sample_coefficients):
        free = quantize_coefficients_csd(sample_coefficients, 16)
        budgeted = quantize_coefficients_csd(sample_coefficients, 16, max_nonzero=2)
        assert budgeted.total_adders <= free.total_adders
        assert budgeted.total_adders <= len(sample_coefficients)  # ≤1 adder each
