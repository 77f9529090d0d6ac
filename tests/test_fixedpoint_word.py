"""Tests for the two's-complement fixed-point word model."""

import numpy as np
import pytest

from repro.fixedpoint import (
    FixedPointFormat,
    FixedPointWord,
    OverflowMode,
    RoundingMode,
    saturate_twos_complement,
    wrap_twos_complement,
)
from repro.fixedpoint.word import FixedPointOverflowError


class TestWrapAndSaturate:
    def test_wrap_within_range_is_identity(self):
        assert wrap_twos_complement(5, 8) == 5
        assert wrap_twos_complement(-7, 8) == -7

    def test_wrap_positive_overflow(self):
        assert wrap_twos_complement(128, 8) == -128
        assert wrap_twos_complement(130, 8) == -126

    def test_wrap_negative_overflow(self):
        assert wrap_twos_complement(-129, 8) == 127

    def test_wrap_is_periodic(self):
        assert wrap_twos_complement(5 + 256, 8) == 5
        assert wrap_twos_complement(5 - 512, 8) == 5

    def test_wrap_array(self):
        values = np.array([127, 128, -128, -129, 0])
        wrapped = wrap_twos_complement(values, 8)
        assert list(wrapped) == [127, -128, -128, 127, 0]

    def test_saturate_clamps(self):
        assert saturate_twos_complement(300, 8) == 127
        assert saturate_twos_complement(-300, 8) == -128
        assert saturate_twos_complement(12, 8) == 12

    def test_saturate_array(self):
        values = np.array([300, -300, 3])
        assert list(saturate_twos_complement(values, 8)) == [127, -128, 3]

    def test_wrap_requires_positive_width(self):
        with pytest.raises(ValueError):
            wrap_twos_complement(1, 0)


class TestFixedPointFormat:
    def test_range_of_q1_14(self):
        fmt = FixedPointFormat(16, 14)
        assert fmt.integer_bits == 1
        assert fmt.max_value == pytest.approx((2 ** 15 - 1) / 2 ** 14)
        assert fmt.min_value == pytest.approx(-2.0)

    def test_resolution(self):
        fmt = FixedPointFormat(12, 10)
        assert fmt.resolution == pytest.approx(2 ** -10)

    def test_quantize_round_nearest(self):
        fmt = FixedPointFormat(16, 8, rounding=RoundingMode.NEAREST)
        assert fmt.quantize(0.5 + 1 / 512) == pytest.approx(0.50390625)

    def test_quantize_floor(self):
        fmt = FixedPointFormat(16, 8, rounding=RoundingMode.FLOOR)
        assert fmt.quantize(0.999999) <= 0.999999

    def test_saturating_overflow(self):
        fmt = FixedPointFormat(8, 0, overflow=OverflowMode.SATURATE)
        assert fmt.quantize(1000) == 127

    def test_wrapping_overflow(self):
        fmt = FixedPointFormat(8, 0, overflow=OverflowMode.WRAP)
        assert fmt.quantize(128) == -128

    def test_error_overflow_raises(self):
        fmt = FixedPointFormat(8, 0, overflow=OverflowMode.ERROR)
        with pytest.raises(FixedPointOverflowError):
            fmt.to_raw(1000)

    def test_quantize_array_matches_scalar(self):
        fmt = FixedPointFormat(16, 12)
        values = [0.1, -0.25, 0.7, -1.3]
        array_result = fmt.quantize_array(values)
        scalar_result = [fmt.quantize(v) for v in values]
        assert np.allclose(array_result, scalar_result)

    def test_widened_keeps_fraction(self):
        fmt = FixedPointFormat(12, 10)
        wide = fmt.widened(4)
        assert wide.total_bits == 16
        assert wide.fraction_bits == 10

    def test_invalid_total_bits(self):
        with pytest.raises(ValueError):
            FixedPointFormat(0, 0)

    def test_invalid_fraction_bits(self):
        with pytest.raises(ValueError):
            FixedPointFormat(8, -1)


class TestFixedPointWord:
    def test_round_trip_value(self):
        fmt = FixedPointFormat(16, 12)
        word = FixedPointWord.from_value(0.8125, fmt)
        assert word.value == pytest.approx(0.8125)

    def test_addition(self):
        fmt = FixedPointFormat(16, 12)
        a = FixedPointWord.from_value(0.5, fmt)
        b = FixedPointWord.from_value(0.25, fmt)
        assert (a + b).value == pytest.approx(0.75)

    def test_subtraction(self):
        fmt = FixedPointFormat(16, 12)
        a = FixedPointWord.from_value(0.5, fmt)
        b = FixedPointWord.from_value(0.75, fmt)
        assert (a - b).value == pytest.approx(-0.25)

    def test_negation(self):
        fmt = FixedPointFormat(16, 12)
        a = FixedPointWord.from_value(0.5, fmt)
        assert (-a).value == pytest.approx(-0.5)

    def test_addition_wraps_in_wrap_mode(self):
        fmt = FixedPointFormat(8, 0, overflow=OverflowMode.WRAP)
        a = FixedPointWord.from_value(100, fmt)
        b = FixedPointWord.from_value(100, fmt)
        assert (a + b).value == 200 - 256

    def test_addition_requires_aligned_binary_point(self):
        a = FixedPointWord.from_value(0.5, FixedPointFormat(16, 12))
        b = FixedPointWord.from_value(0.5, FixedPointFormat(16, 10))
        with pytest.raises(ValueError):
            _ = a + b

    def test_multiply_requantizes(self):
        fmt = FixedPointFormat(16, 12)
        out_fmt = FixedPointFormat(16, 12, overflow=OverflowMode.SATURATE)
        a = FixedPointWord.from_value(0.5, fmt)
        b = FixedPointWord.from_value(0.5, fmt)
        assert a.multiply(b, out_fmt).value == pytest.approx(0.25)

    def test_shift_right_divides_by_power_of_two(self):
        fmt = FixedPointFormat(16, 0)
        a = FixedPointWord.from_value(64, fmt)
        assert a.shift_right(3).value == 8

    def test_resize_preserves_value(self):
        a = FixedPointWord.from_value(0.375, FixedPointFormat(16, 12))
        b = a.resize(FixedPointFormat(20, 16))
        assert b.value == pytest.approx(0.375)

    def test_bits_pattern(self):
        fmt = FixedPointFormat(4, 0)
        assert FixedPointWord.from_value(-1, fmt).bits() == "1111"
        assert FixedPointWord.from_value(3, fmt).bits() == "0011"

    def test_equality_with_number(self):
        fmt = FixedPointFormat(8, 4)
        assert FixedPointWord.from_value(0.5, fmt) == 0.5


class TestFormatConversions:
    def test_raw_integer_range(self):
        fmt = FixedPointFormat(8, 4)
        assert (fmt.min_int, fmt.max_int) == (-128, 127)
        assert fmt.min_value == -8.0
        assert fmt.max_value == 127 / 16

    def test_with_overflow_and_with_rounding_replace_one_field(self):
        fmt = FixedPointFormat(12, 6, OverflowMode.WRAP, RoundingMode.FLOOR)
        sat = fmt.with_overflow(OverflowMode.SATURATE)
        near = fmt.with_rounding(RoundingMode.NEAREST)
        assert (sat.total_bits, sat.fraction_bits, sat.rounding) == (12, 6, RoundingMode.FLOOR)
        assert sat.overflow is OverflowMode.SATURATE
        assert (near.total_bits, near.fraction_bits, near.overflow) == (12, 6, OverflowMode.WRAP)
        assert near.rounding is RoundingMode.NEAREST

    @pytest.mark.parametrize("rounding", list(RoundingMode))
    def test_to_raw_array_matches_scalar(self, rounding):
        fmt = FixedPointFormat(10, 5, OverflowMode.SATURATE, rounding)
        values = np.array([-40.0, -1.03, -0.5 / 32, 0.0, 0.49 / 32, 1.51 / 32, 3.3, 40.0])
        assert list(fmt.to_raw_array(values)) == [fmt.to_raw(v) for v in values]

    def test_from_raw_inverts_to_raw(self):
        fmt = FixedPointFormat(16, 8)
        values = np.array([-3.5, -0.00390625, 0.0, 1.25, 100.75])
        raw = fmt.to_raw_array(values)
        assert np.array_equal(fmt.from_raw(raw), values)
        assert fmt.from_raw(fmt.to_raw(1.25)) == 1.25

    @pytest.mark.parametrize("overflow", [OverflowMode.WRAP, OverflowMode.SATURATE])
    def test_handle_overflow_array_matches_scalar(self, overflow):
        fmt = FixedPointFormat(8, 0, overflow)
        raw = np.array([-300, -129, -128, 0, 127, 128, 300], dtype=np.int64)
        assert list(fmt.handle_overflow_array(raw)) == [fmt.handle_overflow(int(r))
                                                       for r in raw]

    def test_error_mode_array_raises_only_on_overflow(self):
        fmt = FixedPointFormat(8, 0, OverflowMode.ERROR)
        inside = np.array([-128, 0, 127], dtype=np.int64)
        assert np.array_equal(fmt.handle_overflow_array(inside), inside)
        with pytest.raises(FixedPointOverflowError):
            fmt.handle_overflow_array(np.array([0, 128], dtype=np.int64))
