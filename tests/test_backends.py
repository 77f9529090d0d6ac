"""Vectorized-vs-reference backend equivalence and block-streaming tests.

Every bit-true stage of the chain has two engines — the sample-by-sample /
arbitrary-precision reference and the numpy vectorized fast path — that must
produce *bit-identical* outputs.  These tests pin that contract across sinc
orders, decimation factors, word widths and random fixed-point inputs, and
verify that the block-streaming simulator reproduces the one-shot simulation
exactly for arbitrary block sizes.  The modulator and batched-chain
contracts also run on the pure-Python fallback of the compiled kernels.
"""

from unittest import mock

import numpy as np
import pytest

from repro import _native
from repro.core import design_paper_chain
from repro.dsm import DeltaSigmaModulator, coherent_tone
from repro.filters import (
    FIRFilterFixedPoint,
    HogenauerConfig,
    HogenauerDecimator,
    PolyphaseDecimator,
    PolyphaseDecimatorFixedPoint,
    ScalingStage,
    StreamingFIRDecimator,
    convolve_strided_matmul,
)
from repro.filters.sinc import SincFilterSpec


def _ints(values):
    return [int(v) for v in values]


@pytest.fixture(scope="module")
def paper_codes(paper_chain):
    mod = DeltaSigmaModulator()
    result = mod.simulate(coherent_tone(2.5e6, 0.7, 640e6, 8192))
    assert result.stable
    return result.codes


class TestConvolveStridedMatmul:
    def test_matches_convolve_floats(self, rng):
        x = rng.normal(size=257)
        taps = rng.normal(size=19)
        full = np.convolve(x, taps)
        for offset, step in [(0, 1), (3, 2), (18, 5), (7, 3)]:
            count = max(0, -(-(len(x) - offset) // step))
            got = convolve_strided_matmul(x, taps, offset=offset, step=step)
            assert np.allclose(got, full[offset:len(x):step][:count], atol=1e-12)

    def test_matches_convolve_int64(self, rng):
        x = rng.integers(-1000, 1000, 300)
        taps = rng.integers(-50, 50, 21)
        full = np.convolve(x, taps)
        got = convolve_strided_matmul(x, taps, offset=4, step=3)
        assert np.array_equal(got, full[4:len(x):3])

    def test_count_past_input_end_uses_zero_padding(self, rng):
        x = rng.integers(-10, 10, 40)
        taps = rng.integers(-3, 3, 9)
        full = np.convolve(x, taps)
        got = convolve_strided_matmul(x, taps, offset=35, step=1, count=12)
        assert np.array_equal(got, full[35:47])

    def test_empty_count(self):
        out = convolve_strided_matmul(np.zeros(0, dtype=np.int64),
                                      np.array([1, 2]), offset=0, step=1)
        assert len(out) == 0


class TestHogenauerBackendEquivalence:
    @pytest.mark.parametrize("order", [1, 2, 4, 6])
    @pytest.mark.parametrize("decimation", [2, 3, 4, 8])
    def test_bit_exact_across_orders_and_factors(self, order, decimation, rng):
        spec = SincFilterSpec(order=order, decimation=decimation, input_bits=4,
                              input_rate_hz=640e6)
        x = rng.integers(-8, 8, 613)
        ref = HogenauerDecimator(spec).process(x, backend="reference")
        vec = HogenauerDecimator(spec).process(x, backend="vectorized")
        assert np.array_equal(ref, vec)
        gold = HogenauerDecimator(spec).reference_output(x)
        assert np.array_equal(ref, gold)

    @pytest.mark.parametrize("input_bits", [1, 4, 8, 12, 16])
    def test_bit_exact_across_word_widths(self, input_bits, rng):
        spec = SincFilterSpec(order=4, decimation=2, input_bits=input_bits,
                              input_rate_hz=640e6)
        half = 1 << (input_bits - 1) if input_bits > 1 else 1
        x = rng.integers(-half, half, 500)
        ref = HogenauerDecimator(spec).process(x, backend="reference")
        vec = HogenauerDecimator(spec).process(x, backend="vectorized")
        assert np.array_equal(ref, vec)

    def test_streaming_state_is_shared_between_backends(self, rng):
        spec = SincFilterSpec(order=4, decimation=2, input_bits=4,
                              input_rate_hz=640e6)
        x = rng.integers(-8, 8, 501)
        one_shot = HogenauerDecimator(spec).process(x, backend="vectorized")
        mixed = HogenauerDecimator(spec)
        parts = [mixed.process(x[:100], backend="vectorized"),
                 mixed.process(x[100:101], backend="reference"),
                 mixed.process(x[101:400], backend="vectorized"),
                 mixed.process(x[400:], backend="reference")]
        assert np.array_equal(one_shot, np.concatenate(parts))

    def test_auto_uses_reference_when_tracing(self, rng):
        spec = SincFilterSpec(order=4, decimation=2, input_bits=4,
                              input_rate_hz=640e6)
        dec = HogenauerDecimator(spec)
        dec.process(rng.integers(-8, 8, 64), collect_trace=True, backend="auto")
        assert dec.trace.samples == 64

    def test_explicit_vectorized_with_trace_rejected(self, rng):
        spec = SincFilterSpec(order=4, decimation=2, input_bits=4,
                              input_rate_hz=640e6)
        with pytest.raises(ValueError):
            HogenauerDecimator(spec).process(rng.integers(-8, 8, 16),
                                             collect_trace=True,
                                             backend="vectorized")

    def test_wide_registers_fall_back_to_reference(self, rng):
        # 40 + 4*6 = 64-bit registers exceed the int64 fast path.
        spec = SincFilterSpec(order=4, decimation=64, input_bits=40,
                              input_rate_hz=640e6)
        dec = HogenauerDecimator(spec)
        assert dec.width > 62
        x = rng.integers(-(1 << 39), 1 << 39, 256)
        out = dec.process(x, backend="auto")
        assert out.dtype == object
        with pytest.raises(ValueError):
            HogenauerDecimator(spec).process(x, backend="vectorized")

    def test_object_dtype_input_wrapped_like_reference(self):
        # Arbitrary-precision inputs beyond int64 must wrap to the register
        # width (as hardware would), identically on both engines.
        spec = SincFilterSpec(order=2, decimation=2, input_bits=4,
                              input_rate_hz=640e6)
        x = np.array([2 ** 70 + 3, -(2 ** 80) + 1, 5, -7] * 8, dtype=object)
        ref = HogenauerDecimator(spec).process(x, backend="reference")
        vec = HogenauerDecimator(spec).process(x, backend="vectorized")
        assert np.array_equal(ref, vec)

    def test_unknown_backend_rejected(self, rng):
        spec = SincFilterSpec(order=2, decimation=2, input_bits=4,
                              input_rate_hz=640e6)
        with pytest.raises(ValueError):
            HogenauerDecimator(spec).process(rng.integers(-8, 8, 8),
                                             backend="simd")


class TestFIRStageBackendEquivalence:
    def test_halfband_bit_exact(self, paper_chain, rng):
        hb = paper_chain._halfband_impl
        x = rng.integers(-3000, 3000, 2049)
        ref = hb.process(x, backend="reference")
        vec = hb.process(x, backend="vectorized")
        assert vec.dtype == np.int64
        assert _ints(ref) == _ints(vec)

    def test_equalizer_bit_exact(self, paper_chain, rng):
        eq = paper_chain._equalizer_impl
        x = rng.integers(-60000, 60000, 1025)
        assert _ints(eq.process(x, backend="reference")) == \
            _ints(eq.process(x, backend="vectorized"))

    def test_decimating_fir_bit_exact(self, rng):
        taps = np.hanning(33) / np.hanning(33).sum()
        fir = FIRFilterFixedPoint(taps=taps, coefficient_bits=14, decimation=4)
        x = rng.integers(-500, 500, 1003)
        assert _ints(fir.process(x, backend="reference")) == \
            _ints(fir.process(x, backend="vectorized"))

    def test_polyphase_fixed_point_bit_exact(self, rng):
        taps = np.blackman(41) / np.blackman(41).sum()
        poly = PolyphaseDecimatorFixedPoint(taps, decimation=5)
        x = rng.integers(-2000, 2000, 997)
        assert _ints(poly.process(x, backend="reference")) == \
            _ints(poly.process(x, backend="vectorized"))

    def test_polyphase_float_matmul_identity(self, rng):
        taps = np.hamming(25) / np.hamming(25).sum()
        poly = PolyphaseDecimator(taps, decimation=3)
        x = rng.normal(size=500)
        assert np.allclose(poly.process(x), poly.process_matmul(x), atol=1e-9)

    def test_scaling_bit_exact(self, paper_chain, rng):
        sc = paper_chain.scaling
        x = rng.integers(-100000, 100000, 777)
        assert _ints(sc.process(x, backend="reference")) == \
            _ints(sc.process(x, backend="vectorized"))

    def test_scaling_arbitrary_constant(self, rng):
        sc = ScalingStage(scale=3.14159, coefficient_bits=10)
        x = rng.integers(-4000, 4000, 256)
        assert _ints(sc.process(x, backend="reference")) == \
            _ints(sc.process(x, backend="vectorized"))

    def test_int64_min_input_falls_back_exactly(self):
        # np.abs(-2**63) overflows back to itself; the safety guard must
        # still classify it unsafe so auto uses the exact reference path.
        sc = ScalingStage(scale=0.75, coefficient_bits=8)
        x = np.array([-2 ** 63, 5], dtype=np.int64)
        auto = sc.process(x, backend="auto")
        ref = sc.process(x, backend="reference")
        assert auto.dtype == object
        assert _ints(auto) == _ints(ref)

    def test_vectorized_overflow_guard(self, paper_chain):
        hb = paper_chain._halfband_impl
        huge = np.array([1 << 50, -(1 << 50)], dtype=np.int64)
        with pytest.raises(ValueError):
            hb.process(huge, backend="vectorized")
        # auto silently falls back to the exact reference path.
        out = hb.process(huge, backend="auto")
        assert out.dtype == object


class TestChainBackendEquivalence:
    def test_process_fixed_bit_exact(self, paper_chain, paper_codes):
        ref = paper_chain.process_fixed(paper_codes, backend="reference")
        vec = paper_chain.process_fixed(paper_codes, backend="vectorized")
        assert np.array_equal(ref, vec)

    def test_auto_matches_reference(self, paper_chain, paper_codes):
        auto = paper_chain.process_fixed(paper_codes)
        ref = paper_chain.process_fixed(paper_codes, backend="reference")
        assert np.array_equal(auto, ref)

    def test_random_codes_bit_exact(self, paper_chain, rng):
        codes = rng.integers(0, 16, 4096)
        ref = paper_chain.process_fixed(codes, backend="reference")
        vec = paper_chain.process_fixed(codes, backend="vectorized")
        assert np.array_equal(ref, vec)

    def test_trace_collection_still_reference_backed(self, paper_chain, paper_codes):
        paper_chain.process_fixed(paper_codes[:1024], collect_trace=True,
                                  backend="vectorized")
        stage = paper_chain._hogenauer_stages[0]
        assert stage.trace.samples == 1024
        assert any(v > 0 for v in stage.trace.toggles.values())


class TestStreamingSimulation:
    @pytest.mark.parametrize("block_size", [8192, 1024, 333, 65])
    def test_simulate_blocks_equals_process_fixed(self, paper_chain, paper_codes,
                                                  block_size):
        one_shot = paper_chain.process_fixed(paper_codes)
        streamed = np.concatenate(list(
            paper_chain.simulate_blocks(paper_codes, block_size=block_size)))
        assert np.array_equal(one_shot, streamed)

    def test_simulate_blocks_accepts_generator(self, paper_chain, paper_codes):
        one_shot = paper_chain.process_fixed(paper_codes)
        chunks = (paper_codes[i:i + 555] for i in range(0, len(paper_codes), 555))
        streamed = np.concatenate(list(paper_chain.simulate_blocks(chunks)))
        assert np.array_equal(one_shot, streamed)

    def test_flow_result_delegates_streaming(self, paper_codes):
        from repro.flow import run_design_flow

        flow = run_design_flow(measure_activity=False)
        one_shot = flow.chain.process_fixed(paper_codes)
        streamed = np.concatenate(list(
            flow.simulate_blocks(paper_codes, block_size=2048)))
        assert np.array_equal(one_shot, streamed)

    def test_streaming_fir_single_push_matches_block(self, paper_chain, rng):
        hb = paper_chain._halfband_impl
        x = rng.integers(-2000, 2000, 1024)
        block = hb.process(x, backend="vectorized")
        stream = StreamingFIRDecimator(hb._int_taps, hb.coefficient_bits,
                                       decimation=2,
                                       delay=(hb.n_taps - 1) // 2)
        got = np.concatenate([stream.push(x), stream.flush()])
        assert _ints(block) == _ints(got)

    def test_streaming_fir_rejects_push_after_flush(self, rng):
        stream = StreamingFIRDecimator(np.array([1, 2, 1]), coefficient_bits=2)
        stream.push(rng.integers(-5, 5, 16))
        stream.flush()
        with pytest.raises(RuntimeError):
            stream.push(np.array([1]))
        stream.reset()
        stream.push(np.array([1, 2, 3], dtype=np.int64))


class TestFastModulatorEngine:
    def test_engine_selectable_and_stable(self, paper_modulator):
        tone = coherent_tone(2e6, 0.6, 640e6, 8192)
        fast = paper_modulator.simulate(tone, engine="fast")
        assert fast.stable
        assert fast.metadata["engine"] == "error-feedback-fast"
        assert fast.codes.min() >= 0 and fast.codes.max() <= 15

    def test_noise_shaping_matches_reference(self, paper_modulator):
        from repro.dsm import analyze_tone

        tone = coherent_tone(2e6, 0.6, 640e6, 16384)
        ref = paper_modulator.simulate(tone)
        fast = paper_modulator.simulate(tone, engine="error-feedback-fast")
        snr_ref = analyze_tone(ref.output, 640e6, 2e6, 20e6).snr_db
        snr_fast = analyze_tone(fast.output, 640e6, 2e6, 20e6).snr_db
        assert snr_fast == pytest.approx(snr_ref, abs=4.0)
        # The engines compute the same loop until float rounding diverges.
        assert np.array_equal(ref.output[:50], fast.output[:50])

    def test_requires_monic_ntf(self):
        from repro.dsm import MultibitQuantizer, synthesize_ntf
        from repro.dsm.modulator import FastErrorFeedbackSimulator

        ntf = synthesize_ntf(3, 16, 1.5)
        ntf.gain = 2.0
        with pytest.raises(ValueError):
            FastErrorFeedbackSimulator(ntf, MultibitQuantizer(4))


@pytest.mark.usefixtures("python_fallback")
class TestFastModulatorEngineFallback(TestFastModulatorEngine):
    """The fast-engine contracts on the pure-Python fallback loop."""


class TestBatchedChainEngines:
    def test_fallback_batch_matches_kernel_and_rows(self, paper_chain, rng):
        codes = rng.integers(0, 16, size=(3, 4096), dtype=np.int64)
        kernel = paper_chain.process_fixed(codes)
        with mock.patch.object(_native, "load", lambda: None):
            fallback = paper_chain.process_fixed(codes)
        assert np.array_equal(kernel, fallback)
        for b in range(codes.shape[0]):
            assert np.array_equal(kernel[b], paper_chain.process_fixed(codes[b]))


class TestStreamingIntegerTaps:
    def test_zero_coefficient_bits_streams_without_rounding(self):
        """Integer taps (coefficient_bits=0) must not apply a rounding shift."""
        taps = [1, 2, 1]
        x = np.arange(50, dtype=np.int64)
        dec = StreamingFIRDecimator(int_taps=taps, coefficient_bits=0, decimation=2)
        parts = [dec.push(x), dec.flush()]
        streamed = np.concatenate([np.asarray(p) for p in parts if len(p)])
        delay = (len(taps) - 1) // 2
        expected = np.convolve(x, taps)[delay:delay + len(x):2]
        np.testing.assert_array_equal(streamed[:len(expected)], expected)
