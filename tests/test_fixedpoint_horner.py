"""Tests for the Horner-rule decomposition of CSD constants."""

import numpy as np
import pytest

from repro.fixedpoint import horner_decomposition, horner_evaluate, to_csd
from repro.fixedpoint.csd import csd_multiply_int
from repro.fixedpoint.horner import horner_adder_count


class TestHornerDecomposition:
    @pytest.mark.parametrize("constant", [10.825, 1.2345, 0.0823, 0.5, -0.75, 5.0, 256.0])
    def test_evaluation_matches_quantized_multiplication(self, constant):
        code = to_csd(constant, 14)
        steps = horner_decomposition(code)
        for x in [1.0, -3.5, 123.0, 0.001]:
            assert horner_evaluate(x, steps) == pytest.approx(code.value * x, rel=1e-12)

    def test_zero_constant_gives_no_steps(self):
        assert horner_decomposition(to_csd(0.0, 8)) == []
        assert horner_evaluate(5.0, []) == 0.0

    def test_one_step_per_nonzero_digit(self):
        code = to_csd(10.825, 12)
        steps = horner_decomposition(code)
        assert len(steps) == code.nonzero_digits

    def test_adder_count_matches_csd_cost(self):
        code = to_csd(10.825, 12)
        steps = horner_decomposition(code)
        assert horner_adder_count(steps) == code.adder_cost

    def test_intermediate_shifts_positive(self):
        # All but the final alignment shift are gaps between digits, hence ≥ 2
        # for a valid CSD code (no adjacent digits).
        code = to_csd(0.7071, 16)
        steps = horner_decomposition(code)
        for step in steps[:-1]:
            assert step.shift >= 2

    @pytest.mark.parametrize("constant", [10.825, 1.2345, 0.0823, 0.5, -0.75, 5.0, 256.0])
    def test_integer_samples_match_shift_add_product(self, constant):
        # The nested network and the flat shift-add gold model of the
        # scaling stage compute the same integer product.
        code = to_csd(constant, 14)
        steps = horner_decomposition(code)
        for x in [1, -3, 1234, -8192]:
            assert horner_evaluate(x, steps) * 2 ** 14 == csd_multiply_int(x, code, 14)

    def test_steps_rebuild_the_digits(self):
        # Walking the steps back from the alignment shift recovers every
        # (weight, sign) digit, most significant first.
        code = to_csd(-10.825, 12)
        steps = horner_decomposition(code)
        weight = steps[-1].shift
        rebuilt = [(weight, steps[-1].sign)]
        for step in reversed(steps[:-1]):
            weight += step.shift
            rebuilt.append((weight, step.sign))
        assert rebuilt[::-1] == list(code.digits)
