"""Tests for the bit-true Hogenauer (CIC) implementation."""

import numpy as np
import pytest

from repro.filters import HogenauerConfig, HogenauerDecimator
from repro.filters.hogenauer import wrap_twos_complement
from repro.filters.sinc import SincFilter, SincFilterSpec


def _random_codes(rng, n, bits=4):
    half = 1 << (bits - 1)
    return rng.integers(-half, half, n)


class TestWrapTwosComplement:
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

    def test_wrap_requires_positive_width(self):
        with pytest.raises(ValueError):
            wrap_twos_complement(1, 0)

    @pytest.mark.parametrize("bits", [1, 2, 8, 62, 64])
    def test_rails_of_each_width(self, bits):
        lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
        assert wrap_twos_complement(hi, bits) == hi
        assert wrap_twos_complement(lo, bits) == lo
        assert wrap_twos_complement(hi + 1, bits) == lo
        assert wrap_twos_complement(lo - 1, bits) == hi

    def test_wrap_object_array_beyond_int64(self):
        # Registers wider than the vectorized engine hold Python integers.
        values = np.array([2 ** 70 + 5, -(2 ** 63) - 1, 2 ** 63, 3], dtype=object)
        wrapped = wrap_twos_complement(values, 64)
        assert wrapped.tolist() == [5, 2 ** 63 - 1, -(2 ** 63), 3]


@pytest.fixture()
def sinc4_spec():
    return SincFilterSpec(order=4, decimation=2, input_bits=4,
                          input_rate_hz=640e6, label="Sinc4")


class TestHogenauerAgainstReference:
    def test_matches_fir_reference_random_input(self, sinc4_spec, rng):
        dec = HogenauerDecimator(sinc4_spec)
        x = _random_codes(rng, 512)
        out = dec.process(x)
        ref = dec.reference_output(x)
        assert np.array_equal([int(v) for v in out], [int(v) for v in ref])

    def test_matches_reference_for_sinc6(self, rng):
        spec = SincFilterSpec(6, 2, 12, 160e6)
        dec = HogenauerDecimator(spec)
        x = rng.integers(-2048, 2048, 400)
        assert np.array_equal([int(v) for v in dec.process(x)],
                              [int(v) for v in dec.reference_output(x)])

    def test_dc_input_reaches_dc_gain(self, sinc4_spec):
        dec = HogenauerDecimator(sinc4_spec)
        out = dec.process(np.ones(200, dtype=np.int64))
        # After settling, a unit DC input produces the DC gain M**K = 16.
        assert int(out[-1]) == 16

    def test_impulse_response_matches_boxcar_power(self, sinc4_spec):
        dec = HogenauerDecimator(sinc4_spec)
        impulse = np.zeros(64, dtype=np.int64)
        impulse[0] = 1
        out = dec.process(impulse)
        expected_full = SincFilter(sinc4_spec).impulse_response(normalized=False)
        # Output keeps every 2nd sample of the impulse response.
        expected = expected_full[1::2]
        assert np.array_equal([int(v) for v in out[:len(expected)]], expected.astype(int))

    def test_output_length(self, sinc4_spec, rng):
        dec = HogenauerDecimator(sinc4_spec)
        out = dec.process(_random_codes(rng, 300))
        assert len(out) == 150

    def test_rejects_float_input(self, sinc4_spec):
        dec = HogenauerDecimator(sinc4_spec)
        with pytest.raises(TypeError):
            dec.process(np.array([0.5, 0.1]))

    def test_wraparound_overflow_still_correct(self, rng):
        # Even with full-scale DC the wrap-around arithmetic yields the exact
        # result as long as the register width follows Eq. (2).
        spec = SincFilterSpec(4, 2, 4, 640e6)
        dec = HogenauerDecimator(spec)
        x = np.full(400, -8, dtype=np.int64)  # most negative 4-bit code
        out = dec.process(x)
        assert int(out[-1]) == -8 * 16

    def test_retiming_and_pipelining_do_not_change_output(self, sinc4_spec, rng):
        x = _random_codes(rng, 256)
        plain = HogenauerDecimator(sinc4_spec, HogenauerConfig(False, False)).process(x)
        optimized = HogenauerDecimator(sinc4_spec, HogenauerConfig(True, True)).process(x)
        assert np.array_equal([int(v) for v in plain], [int(v) for v in optimized])

    def test_trace_collection(self, sinc4_spec, rng):
        dec = HogenauerDecimator(sinc4_spec)
        x = _random_codes(rng, 128)
        out, trace = dec.process_traced(x)
        assert np.array_equal(out, dec.process(x))
        assert trace.samples == 128
        assert any(v > 0 for v in trace.toggles.values())
        activity = trace.activity("integrator0", dec.width)
        assert 0.0 < activity <= 1.0

    def test_calls_are_independent(self, sinc4_spec, rng):
        # The stage keeps no state: every call starts from cleared
        # registers, traced or not, so a repeated call repeats its output.
        dec = HogenauerDecimator(sinc4_spec)
        x = _random_codes(rng, 129)
        first = dec.process(x)
        dec.process_traced(x[:77])
        assert np.array_equal(dec.process(x), first)
        assert np.array_equal(dec.process_traced(x)[0], first)
        assert dec.process_traced(x)[1] == dec.process_traced(x)[1]

    def test_stage_is_immutable(self, sinc4_spec):
        dec = HogenauerDecimator(sinc4_spec)
        with pytest.raises(AttributeError):
            dec.config = HogenauerConfig(guard_bits=2)
        with pytest.raises(AttributeError):
            dec.config.guard_bits = 2


class TestVectorizedBackend:
    """Bit-exactness of the cumsum-based fast path against the gold model."""

    @pytest.mark.parametrize("order", [1, 3, 4, 6])
    def test_matches_reference_backend(self, order, rng):
        spec = SincFilterSpec(order, 2, 4, 640e6)
        x = _random_codes(rng, 511)
        ref = HogenauerDecimator(spec)._process_reference(x)
        vec = HogenauerDecimator(spec).process(x)
        assert np.array_equal(ref, vec)

    @pytest.mark.parametrize("decimation", [2, 3, 5, 8, 16])
    def test_matches_reference_for_decimation_factors(self, decimation, rng):
        spec = SincFilterSpec(4, decimation, 4, 640e6)
        x = _random_codes(rng, 777)
        ref = HogenauerDecimator(spec)._process_reference(x)
        vec = HogenauerDecimator(spec).process(x)
        assert np.array_equal(ref, vec)

    def test_wraparound_overflow_matches_reference(self, rng):
        spec = SincFilterSpec(4, 2, 4, 640e6)
        x = np.full(300, -8, dtype=np.int64)  # worst-case DC drives overflow
        ref = HogenauerDecimator(spec)._process_reference(x)
        vec = HogenauerDecimator(spec).process(x)
        assert np.array_equal(ref, vec)
        assert int(vec[-1]) == -8 * 16

    def test_empty_block(self, sinc4_spec):
        out = HogenauerDecimator(sinc4_spec).process(np.zeros(0, dtype=np.int64))
        assert len(out) == 0


class TestHogenauerResources:
    def test_resource_summary_counts(self, sinc4_spec):
        dec = HogenauerDecimator(sinc4_spec)
        res = dec.resource_summary()
        assert res["adders"] == 8          # 4 integrators + 4 combs
        assert res["fast_clock_hz"] == pytest.approx(640e6)
        assert res["slow_clock_hz"] == pytest.approx(320e6)
        assert res["word_width"] == 8

    def test_retiming_adds_registers(self, sinc4_spec):
        with_retiming = HogenauerDecimator(sinc4_spec, HogenauerConfig(True, True))
        without = HogenauerDecimator(sinc4_spec, HogenauerConfig(False, False))
        assert with_retiming.resource_summary()["registers"] > \
            without.resource_summary()["registers"]

    def test_guard_bits_widen_registers(self, sinc4_spec):
        wide = HogenauerDecimator(sinc4_spec, HogenauerConfig(guard_bits=2))
        assert wide.width == sinc4_spec.register_bits + 2


class TestHogenauerStageLoop:
    def test_stage_loop_matches_equivalent_fir(self, rng):
        # The chain's Sinc section: the stages in a loop, no rescaling.
        specs = [SincFilterSpec(4, 2, 4, 640e6), SincFilterSpec(4, 2, 8, 320e6),
                 SincFilterSpec(6, 2, 12, 160e6)]
        x = _random_codes(rng, 1024)
        out = x
        for s in specs:
            out = HogenauerDecimator(s).process(out)
        # Reference: convolve with the un-normalized single-rate equivalent
        # and decimate by 8 (phase aligned with the per-stage structure).
        taps = np.array([1.0])
        upsample = 1
        for s in specs:
            stage_taps = SincFilter(s).impulse_response(normalized=False)
            expanded = np.zeros((len(stage_taps) - 1) * upsample + 1)
            expanded[::upsample] = stage_taps
            taps = np.convolve(taps, expanded)
            upsample *= 2
        full = np.convolve(x.astype(object), taps.astype(int).astype(object))
        # Stage-by-stage decimation keeps input phases 1, 3, 7 → overall offset 7.
        expected = full[7:len(x):8][:len(out)]
        assert np.array_equal([int(v) for v in out], [int(v) for v in expected])
