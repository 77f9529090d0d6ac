"""Property-based tests (hypothesis) on the core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.filters.hogenauer import HogenauerDecimator, wrap_twos_complement
from repro.filters.polyphase import BitTrueFIRStage
from repro.filters.sinc import SincFilter, SincFilterSpec
from repro.fixedpoint import (
    from_csd,
    horner_decomposition,
    horner_evaluate,
    to_csd,
)
from repro.dsm.quantizer import MultibitQuantizer


class TestCSDProperties:
    @given(value=st.floats(min_value=-100.0, max_value=100.0,
                           allow_nan=False, allow_infinity=False),
           bits=st.integers(min_value=4, max_value=20))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_error_bounded(self, value, bits):
        code = to_csd(value, bits)
        assert abs(from_csd(code) - value) <= 2 ** -(bits + 1) + 1e-12

    @given(value=st.floats(min_value=-100.0, max_value=100.0,
                           allow_nan=False, allow_infinity=False),
           bits=st.integers(min_value=4, max_value=18))
    @settings(max_examples=200, deadline=None)
    def test_no_adjacent_digits(self, value, bits):
        code = to_csd(value, bits)
        weights = sorted(w for w, _ in code.digits)
        assert all(b - a >= 2 for a, b in zip(weights, weights[1:]))

    @given(value=st.floats(min_value=-30.0, max_value=30.0,
                           allow_nan=False, allow_infinity=False),
           x=st.floats(min_value=-1000.0, max_value=1000.0,
                       allow_nan=False, allow_infinity=False))
    @settings(max_examples=150, deadline=None)
    def test_horner_equals_direct_multiplication(self, value, x):
        code = to_csd(value, 12)
        steps = horner_decomposition(code)
        assert horner_evaluate(x, steps) == pytest.approx(code.value * x,
                                                          rel=1e-9, abs=1e-9)


class TestWrapProperties:
    @given(value=st.integers(min_value=-10 ** 12, max_value=10 ** 12),
           bits=st.integers(min_value=2, max_value=48))
    @settings(max_examples=300, deadline=None)
    def test_wrap_is_congruent_modulo_2_pow_bits(self, value, bits):
        wrapped = wrap_twos_complement(value, bits)
        modulus = 1 << bits
        assert (wrapped - value) % modulus == 0
        assert -(modulus // 2) <= wrapped <= modulus // 2 - 1

    @given(a=st.integers(min_value=-2 ** 20, max_value=2 ** 20),
           b=st.integers(min_value=-2 ** 20, max_value=2 ** 20),
           bits=st.integers(min_value=8, max_value=24))
    @settings(max_examples=200, deadline=None)
    def test_wrapped_addition_is_associative_with_wrapping(self, a, b, bits):
        # (a + b) wrapped equals wrap(wrap(a) + wrap(b)) — the property that
        # makes the Hogenauer structure work despite overflow.
        direct = wrap_twos_complement(a + b, bits)
        stepwise = wrap_twos_complement(
            wrap_twos_complement(a, bits) + wrap_twos_complement(b, bits), bits)
        assert direct == stepwise


class TestOutputWordProperties:
    """The chain's output register: round half-up, then saturate."""

    @given(value=st.integers(min_value=-2 ** 20, max_value=2 ** 20))
    @settings(max_examples=300, deadline=None)
    def test_error_within_half_lsb_unless_saturated(self, paper_chain, value):
        step = 1 << paper_chain.options.guard_bits
        out_bits = paper_chain.spec.decimator.output_bits
        lo, hi = -(1 << (out_bits - 1)), (1 << (out_bits - 1)) - 1
        for dtype in (np.int64, object):
            word = int(paper_chain._finalize_output(
                np.array([value], dtype=dtype))[0])
            exact = value / step
            if lo - 0.5 <= exact < hi + 0.5:
                assert -0.5 < word - exact <= 0.5
            else:
                assert word == (hi if exact > 0 else lo)

    @given(values=st.lists(st.integers(min_value=-2 ** 18, max_value=2 ** 18),
                           min_size=1, max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_output_is_monotone(self, paper_chain, values):
        xs = np.sort(np.asarray(values, dtype=np.int64))
        for data in (xs, xs.astype(object)):
            out = paper_chain._finalize_output(data)
            assert np.all(np.diff(out) >= 0)


class TestQuantizerProperties:
    @given(x=st.floats(min_value=-2.0, max_value=2.0,
                       allow_nan=False, allow_infinity=False),
           bits=st.integers(min_value=1, max_value=6))
    @settings(max_examples=200, deadline=None)
    def test_output_always_on_grid_and_bounded(self, x, bits):
        q = MultibitQuantizer(bits=bits)
        v = q.quantize(x)
        assert -1.0 <= v <= 1.0
        assert np.min(np.abs(q.level_values - v)) < 1e-12

    @given(x=st.lists(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
                      min_size=1, max_size=64),
           bits=st.integers(min_value=2, max_value=5))
    @settings(max_examples=100, deadline=None)
    def test_quantizer_is_monotone(self, x, bits):
        q = MultibitQuantizer(bits=bits)
        xs = np.sort(np.asarray(x))
        vs = q.quantize(xs)
        assert np.all(np.diff(vs) >= -1e-12)


class TestHogenauerProperties:
    @given(data=st.lists(st.integers(min_value=-8, max_value=7),
                         min_size=16, max_size=200),
           order=st.integers(min_value=1, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_bit_true_structure_matches_fir_reference(self, data, order):
        spec = SincFilterSpec(order=order, decimation=2, input_bits=4,
                              input_rate_hz=640e6)
        dec = HogenauerDecimator(spec)
        x = np.array(data, dtype=np.int64)
        out = [int(v) for v in dec.process(x)]
        ref = [int(v) for v in dec.reference_output(x)]
        assert out == ref

    @given(data=st.lists(st.integers(min_value=-8, max_value=7),
                         min_size=1, max_size=300),
           order=st.integers(min_value=1, max_value=6),
           decimation=st.integers(min_value=2, max_value=8))
    @settings(max_examples=80, deadline=None)
    def test_vectorized_backend_is_bit_exact(self, data, order, decimation):
        spec = SincFilterSpec(order=order, decimation=decimation, input_bits=4,
                              input_rate_hz=640e6)
        x = np.array(data, dtype=np.int64)
        ref = HogenauerDecimator(spec)._process_reference(x)
        vec = HogenauerDecimator(spec).process(x)
        assert [int(v) for v in ref] == [int(v) for v in vec]

    @given(order=st.integers(min_value=1, max_value=8),
           dc=st.integers(min_value=-8, max_value=7))
    @settings(max_examples=60, deadline=None)
    def test_dc_gain_is_m_pow_k(self, order, dc):
        spec = SincFilterSpec(order=order, decimation=2, input_bits=4,
                              input_rate_hz=640e6)
        dec = HogenauerDecimator(spec)
        n = 40 * (order + 1)
        out = dec.process(np.full(n, dc, dtype=np.int64))
        assert int(out[-1]) == dc * 2 ** order


class _IntTapStage(BitTrueFIRStage):
    """A bit-true FIR stage over explicit integer taps and output window."""

    def __init__(self, taps, coefficient_bits, delay, step):
        self._int_taps = np.array(taps, dtype=np.int64)
        self._abs_tap_sum = sum(abs(int(t)) for t in taps)
        self.coefficient_bits = coefficient_bits
        self.delay = delay
        self.step = step

    def _output_window(self, n):
        return self.delay, self.step, -(-n // self.step)


class TestBitTrueFIRProperties:
    @given(taps=st.lists(st.integers(min_value=-100, max_value=100),
                         min_size=1, max_size=9),
           data=st.lists(st.integers(min_value=-1000, max_value=1000),
                         min_size=0, max_size=80),
           step=st.integers(min_value=1, max_value=4),
           delay_fraction=st.floats(min_value=0.0, max_value=1.0),
           coefficient_bits=st.integers(min_value=1, max_value=6))
    @settings(max_examples=120, deadline=None)
    def test_fast_path_matches_gold_model(self, taps, data, step,
                                          delay_fraction, coefficient_bits):
        # The int64 strided matmul must reproduce "convolve, keep the
        # window, round" of the Python-integer gold model bit for bit, for
        # 1-D records and for every row of a (batch, n) array.
        stage = _IntTapStage(taps, coefficient_bits,
                             int(delay_fraction * (len(taps) - 1)), step)
        x = np.array(data, dtype=np.int64)
        gold = [int(v) for v in stage._process_reference(x)]
        fast = stage.process(x)
        assert fast.dtype == np.int64
        assert [int(v) for v in fast] == gold
        batch = stage.process(np.stack([x, -x]))
        assert [int(v) for v in batch[0]] == gold
        assert [int(v) for v in batch[1]] == \
            [int(v) for v in stage._process_reference(-x)]


class TestSincResponseProperties:
    @given(order=st.integers(min_value=1, max_value=8),
           freq_fraction=st.floats(min_value=0.01, max_value=0.49))
    @settings(max_examples=100, deadline=None)
    def test_magnitude_never_exceeds_dc(self, order, freq_fraction):
        spec = SincFilterSpec(order=order, decimation=2, input_bits=4,
                              input_rate_hz=1.0)
        f = SincFilter(spec)
        resp = f.frequency_response(np.array([0.0, freq_fraction]))
        assert abs(resp.magnitude[1]) <= abs(resp.magnitude[0]) + 1e-12
