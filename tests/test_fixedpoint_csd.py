"""Tests for the canonical-signed-digit encoding."""

import numpy as np
import pytest

from repro.fixedpoint import (
    CSDCode,
    csd_string,
    from_csd,
    to_csd,
)
from repro.fixedpoint.csd import csd_multiply_int, encode_coefficients


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

    def test_error_property(self):
        code = to_csd(0.1, 8)
        assert code.error == pytest.approx(code.value - 0.1)


class TestCSDMultiply:
    def test_integer_multiply_matches_float_within_truncation(self):
        code = to_csd(0.6180339, 16)
        x = 12345
        exact = code.value * x * (1 << 16)
        got = csd_multiply_int(x, code, 16)
        # Sub-LSB partial products are truncated, so the result can differ by
        # at most the number of digits.
        assert abs(got - exact) <= code.nonzero_digits + 1

    @pytest.mark.parametrize("coefficient, x", [
        (10.825, 1.0), (0.5, 3.0), (-0.75, 2.0), (1.25, -4.0), (0.0823, 100.0)])
    def test_multiply_matches_product(self, coefficient, x):
        # Encoded at the product's own fraction bits, no digit falls below
        # the LSB: the shift-add result is the exact integer product.
        x = int(x)
        code = to_csd(coefficient, 16)
        assert csd_multiply_int(x, code, 16) == x * round(coefficient * 2 ** 16)

    def test_multiply_by_zero_coefficient(self):
        code = to_csd(0.0, 16)
        assert csd_multiply_int(12345, code, 16) == 0
        assert csd_multiply_int(-1, code, 0) == 0

    # 0.75 + 2**-10 is +2^0 -2^-2 +2^-10; each narrower product drops the
    # digits whose shifted weight is negative.
    @pytest.mark.parametrize("fraction_bits, multiplier", [
        (12, 4096 - 1024 + 4), (10, 1024 - 256 + 1), (8, 256 - 64),
        (2, 4 - 1), (0, 1)])
    def test_sub_lsb_digits_are_truncated(self, fraction_bits, multiplier):
        code = to_csd(0.75 + 2 ** -10, 12)
        assert code.digits == ((0, 1), (-2, -1), (-10, 1))
        for x in (1, -7, 2 ** 40 + 3):
            assert csd_multiply_int(x, code, fraction_bits) == x * multiplier

    def test_multiply_is_linear_in_the_sample(self):
        code = to_csd(-1.2345, 14)
        for a, b in [(3, 5), (-1000, 17), (2 ** 50, -(2 ** 49))]:
            assert (csd_multiply_int(a + b, code, 14)
                    == csd_multiply_int(a, code, 14) + csd_multiply_int(b, code, 14))
            assert csd_multiply_int(-a, code, 14) == -csd_multiply_int(a, code, 14)

    @pytest.mark.parametrize("value, max_nonzero", [
        (0.7071, None), (0.7071, 2), (-10.825, None), (-10.825, 3)])
    def test_from_csd_decodes_the_stored_value(self, value, max_nonzero):
        code = to_csd(value, 16, max_nonzero)
        assert from_csd(code) == code.value
        assert from_csd(code) == sum(s * 2.0 ** w for w, s in code.digits)


class TestCSDHelpers:
    def test_string_representation(self):
        assert csd_string(to_csd(0.0, 8)) == "0"
        text = csd_string(to_csd(0.75, 8))
        assert "2^" in text and ("+" in text or "-" in text)

    def test_encode_coefficients_length(self):
        codes = encode_coefficients([0.1, 0.2, 0.3], 12)
        assert len(codes) == 3
        assert all(isinstance(c, CSDCode) for c in codes)

    def test_string_lists_digits_msb_first(self):
        assert csd_string(to_csd(0.75, 8)) == "+2^0 -2^-2"
        assert csd_string(to_csd(-7.0, 0)) == "-2^3 +2^0"


class TestEncodeCoefficients:
    """``encode_coefficients``: the CSD taps of every FIR stage."""

    TAPS = [0.0123, -0.0456, 0.2917, 0.5, 0.2917, -0.0456, 0.0123]

    def test_each_code_is_the_scalar_encoding(self):
        codes = encode_coefficients(self.TAPS, 14, 4)
        assert codes == [to_csd(c, 14, 4) for c in self.TAPS]

    def test_error_bounded_by_half_lsb(self):
        for bits in (8, 12, 16):
            codes = encode_coefficients(self.TAPS, bits)
            errors = [abs(c.value - t) for c, t in zip(codes, self.TAPS)]
            assert max(errors) <= 2 ** -(bits + 1) + 1e-15

    def test_handles_coefficients_above_one(self):
        codes = encode_coefficients([1.75, -3.5, 10.825], 12)
        assert [c.value for c in codes] == [1.75, -3.5, round(10.825 * 4096) / 4096]

    def test_digit_budget_reduces_adders(self):
        costs = []
        for budget in (1, 2, 3, 4, None):
            codes = encode_coefficients(self.TAPS, 16, budget)
            if budget is not None:
                assert max(c.nonzero_digits for c in codes) <= budget
            costs.append(sum(c.adder_cost for c in codes))
        assert costs == sorted(costs)
        assert costs[0] == 0 < costs[-1]

    def test_symmetric_taps_give_mirrored_codes(self):
        codes = encode_coefficients(self.TAPS, 16, 3)
        assert codes == codes[::-1]
