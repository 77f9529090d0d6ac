"""Tests for the bit-true Hogenauer (CIC) implementation."""

import numpy as np
import pytest

from repro.filters import HogenauerCascade, HogenauerConfig, HogenauerDecimator
from repro.filters.sinc import SincFilter, SincFilterSpec


def _random_codes(rng, n, bits=4):
    half = 1 << (bits - 1)
    return rng.integers(-half, half, n)


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

    def test_streaming_matches_block_processing(self, sinc4_spec, rng):
        x = _random_codes(rng, 256)
        block = HogenauerDecimator(sinc4_spec).process(x)
        streamer = HogenauerDecimator(sinc4_spec)
        streamed = np.concatenate([streamer.process(x[:100]), streamer.process(x[100:])])
        assert np.array_equal([int(v) for v in block], [int(v) for v in streamed])

    def test_reset_clears_state(self, sinc4_spec, rng):
        dec = HogenauerDecimator(sinc4_spec)
        x = _random_codes(rng, 128)
        first = dec.process(x)
        dec.reset()
        second = dec.process(x)
        assert np.array_equal([int(v) for v in first], [int(v) for v in second])

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
        dec.process(_random_codes(rng, 128), collect_trace=True)
        assert dec.trace.samples == 128
        assert any(v > 0 for v in dec.trace.toggles.values())
        activity = dec.trace.activity("integrator0", dec.width)
        assert 0.0 < activity <= 1.0


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

    def test_streaming_matches_one_shot(self, sinc4_spec, rng):
        x = _random_codes(rng, 500)
        one_shot = HogenauerDecimator(sinc4_spec).process(x)
        streamer = HogenauerDecimator(sinc4_spec)
        streamed = np.concatenate([
            streamer.process(x[:37]),
            streamer.process(x[37:251]),
            streamer.process(x[251:]),
        ])
        assert np.array_equal(one_shot, streamed)

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

    def test_cascade_backend_option(self, rng):
        # The rescaled cascade output must not depend on tracing.
        specs = [SincFilterSpec(4, 2, 4, 640e6), SincFilterSpec(4, 2, 8, 320e6),
                 SincFilterSpec(6, 2, 12, 160e6)]
        x = _random_codes(rng, 1024)
        ref = HogenauerCascade([HogenauerDecimator(s) for s in specs],
                               rescale=True).process(x, collect_trace=True)
        vec = HogenauerCascade([HogenauerDecimator(s) for s in specs],
                               rescale=True).process(x)
        assert np.array_equal(ref, vec)


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


class TestHogenauerCascade:
    def test_cascade_matches_equivalent_fir(self, rng):
        specs = [SincFilterSpec(4, 2, 4, 640e6), SincFilterSpec(4, 2, 8, 320e6),
                 SincFilterSpec(6, 2, 12, 160e6)]
        cascade = HogenauerCascade([HogenauerDecimator(s) for s in specs], rescale=False)
        x = _random_codes(rng, 1024)
        out = cascade.process(x)
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

    def test_cascade_total_decimation(self):
        specs = [SincFilterSpec(4, 2, 4, 640e6), SincFilterSpec(4, 2, 8, 320e6)]
        cascade = HogenauerCascade([HogenauerDecimator(s) for s in specs])
        assert cascade.total_decimation == 4

    def test_rescale_divides_by_dc_gain(self):
        specs = [SincFilterSpec(4, 2, 4, 640e6)]
        cascade = HogenauerCascade([HogenauerDecimator(s) for s in specs], rescale=True)
        out = cascade.process(np.full(200, 5, dtype=np.int64))
        assert int(out[-1]) == 5

    def test_empty_cascade_rejected(self):
        with pytest.raises(ValueError):
            HogenauerCascade([])

    def test_resource_summaries_length(self, paper_chain):
        assert len(paper_chain._hogenauer.resource_summaries()) == 3
