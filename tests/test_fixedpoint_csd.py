"""Tests for the canonical-signed-digit encoding."""

import numpy as np
import pytest

from repro.fixedpoint import (
    CSDCode,
    csd_adder_cost,
    csd_multiply,
    csd_nonzero_digits,
    csd_string,
    from_csd,
    to_csd,
)
from repro.fixedpoint.csd import csd_multiply_int, csd_statistics, encode_coefficients


class TestCSDEncoding:
    @pytest.mark.parametrize("value", [0.0, 1.0, -1.0, 0.5, -0.5, 0.375, 7.0, -7.0,
                                       10.825, 1.2345, 0.0823, 100.0, -63.0])
    def test_round_trip_within_lsb(self, value):
        bits = 16
        code = to_csd(value, bits)
        assert from_csd(code) == pytest.approx(value, abs=2 ** -(bits - 1))

    def test_zero_has_no_digits(self):
        assert to_csd(0.0, 12).nonzero_digits == 0
        assert to_csd(0.0, 12).adder_cost == 0

    def test_no_adjacent_nonzero_digits(self):
        # The defining property of CSD: no two consecutive weights are used.
        for value in [0.7071, -0.997, 3.14159, 123.456, -0.001953125]:
            code = to_csd(value, 20)
            weights = sorted(w for w, _ in code.digits)
            for a, b in zip(weights, weights[1:]):
                assert b - a >= 2, f"adjacent digits in CSD of {value}"

    def test_csd_digit_count_never_exceeds_binary(self):
        # CSD has at most as many non-zero digits as plain binary.
        for raw in range(1, 200):
            value = raw / 64.0
            csd_digits = to_csd(value, 6).nonzero_digits
            binary_digits = bin(raw).count("1")
            assert csd_digits <= binary_digits

    def test_seven_uses_two_digits(self):
        # 7 = 8 - 1 in CSD (two digits) vs three in binary.
        code = to_csd(7.0, 0)
        assert code.nonzero_digits == 2
        assert from_csd(code) == 7.0

    def test_max_nonzero_truncation(self):
        code = to_csd(0.7071, 16, max_nonzero=3)
        assert code.nonzero_digits <= 3
        # Truncation keeps the most significant digits, so the error is
        # bounded by the weight of the first dropped digit.
        assert abs(code.value - 0.7071) < 2 ** -4

    def test_negative_symmetric_to_positive(self):
        pos = to_csd(0.625, 12)
        neg = to_csd(-0.625, 12)
        assert pos.nonzero_digits == neg.nonzero_digits
        assert from_csd(neg) == -from_csd(pos)

    def test_adder_cost_is_digits_minus_one(self):
        code = to_csd(0.40625, 12)  # 0.5 - 0.125 + 0.03125
        assert code.adder_cost == code.nonzero_digits - 1

    def test_deepcopy_shares_the_immutable_code(self):
        import copy
        import dataclasses

        code = to_csd(0.7071, 20, 3)
        assert copy.deepcopy(code) is code
        with pytest.raises(dataclasses.FrozenInstanceError):
            code.digits = ()
        assert isinstance(code.digits, tuple)
        assert all(isinstance(d, tuple) for d in code.digits)

    def test_error_property(self):
        code = to_csd(0.1, 8)
        assert code.error == pytest.approx(code.value - 0.1)


class TestCSDMultiply:
    @pytest.mark.parametrize("coeff,x", [(0.5, 3.0), (-0.75, 2.0), (1.25, -4.0),
                                         (10.825, 1.0), (0.0823, 100.0)])
    def test_multiply_matches_product(self, coeff, x):
        code = to_csd(coeff, 16)
        assert csd_multiply(x, code) == pytest.approx(code.value * x)

    def test_multiply_by_zero_coefficient(self):
        assert csd_multiply(123.0, to_csd(0.0, 8)) == 0.0

    def test_integer_multiply_matches_float_within_truncation(self):
        code = to_csd(0.6180339, 16)
        x = 12345
        exact = code.value * x * (1 << 16)
        got = csd_multiply_int(x, code, 16)
        # Sub-LSB partial products are truncated, so the result can differ by
        # at most the number of digits.
        assert abs(got - exact) <= code.nonzero_digits + 1

    def test_evaluate_method(self):
        code = to_csd(0.5, 8)
        assert code.evaluate(8.0) == pytest.approx(4.0)


class TestCSDHelpers:
    def test_nonzero_digit_helper(self):
        assert csd_nonzero_digits(0.5, 8) == 1
        assert csd_nonzero_digits(0.75, 8) == 2  # 1 - 0.25

    def test_adder_cost_of_vector(self):
        coeffs = [0.5, 0.75, 0.0, -0.375]
        expected = sum(max(0, to_csd(c, 12).nonzero_digits - 1) for c in coeffs)
        assert csd_adder_cost(coeffs, 12) == expected

    def test_string_representation(self):
        assert csd_string(to_csd(0.0, 8)) == "0"
        text = csd_string(to_csd(0.75, 8))
        assert "2^" in text and ("+" in text or "-" in text)

    def test_encode_coefficients_length(self):
        codes = encode_coefficients([0.1, 0.2, 0.3], 12)
        assert len(codes) == 3
        assert all(isinstance(c, CSDCode) for c in codes)

    def test_statistics_keys_and_consistency(self):
        stats = csd_statistics([0.5, -0.25, 0.125], 12)
        assert stats["coefficients"] == 3
        assert stats["total_nonzero_digits"] >= stats["total_adders"]
        assert stats["max_abs_error"] <= 2 ** -12
