"""Fast-path-vs-gold-model equivalence of every bit-true stage.

Every bit-true stage of the chain takes a numpy fast path whenever its
words fit ``int64`` and otherwise runs its sample-by-sample /
arbitrary-precision gold model (``_process_reference``).  No option picks
the engine, so these tests compare ``process`` against the gold model
directly — across sinc orders, decimation factors, word widths and random
fixed-point inputs — and pin the inputs that must take the gold model
(wide registers, object dtype, int64-unsafe accumulators).  The fast
Hogenauer path's toggle trace is pinned node for node against the gold
model's.  The chain is compared against :func:`chain_gold_model`, the
stage gold models composed.  The modulator and batched-chain contracts
also run on the pure-Python fallback of the compiled kernels.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest

from repro import _native
from repro.dsm import DeltaSigmaModulator, coherent_tone
from repro.filters import (
    FIRFilterFixedPoint,
    HogenauerDecimator,
    ScalingStage,
    convolve_strided_matmul,
)
from repro.filters.polyphase import int64_accumulator_safe
from repro.filters.sinc import SincFilterSpec


def _ints(values):
    return [int(v) for v in values]


def chain_gold_model(chain, codes):
    """``chain.process_fixed(codes)`` (1-D) through every stage's gold model."""
    data = chain.codes_to_signed(codes)
    for stage in chain._hogenauer_stages:
        data = HogenauerDecimator(stage.spec, stage.config)._process_reference(data)
    data = chain._halfband_impl._process_reference(data)
    data = chain.scaling._process_reference(data)
    data = chain._equalizer_impl._process_reference(data)
    return chain._finalize_output(data)


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
        ref = HogenauerDecimator(spec)._process_reference(x)
        vec = HogenauerDecimator(spec).process(x)
        assert np.array_equal(ref, vec)
        gold = HogenauerDecimator(spec).reference_output(x)
        assert np.array_equal(ref, gold)

    @pytest.mark.parametrize("input_bits", [1, 4, 8, 12, 16])
    def test_bit_exact_across_word_widths(self, input_bits, rng):
        spec = SincFilterSpec(order=4, decimation=2, input_bits=input_bits,
                              input_rate_hz=640e6)
        half = 1 << (input_bits - 1) if input_bits > 1 else 1
        x = rng.integers(-half, half, 500)
        ref = HogenauerDecimator(spec)._process_reference(x)
        vec = HogenauerDecimator(spec).process(x)
        assert np.array_equal(ref, vec)

    def test_streaming_state_is_shared_between_backends(self, rng):
        # The register state must carry across traced and untraced blocks
        # in both directions.
        spec = SincFilterSpec(order=4, decimation=2, input_bits=4,
                              input_rate_hz=640e6)
        x = rng.integers(-8, 8, 501)
        one_shot = HogenauerDecimator(spec).process(x)
        mixed = HogenauerDecimator(spec)
        parts = [mixed.process(x[:100]),
                 mixed.process(x[100:101], collect_trace=True),
                 mixed.process(x[101:400]),
                 mixed.process(x[400:], collect_trace=True)]
        assert np.array_equal(one_shot, np.concatenate(parts))
        assert mixed.trace.samples == 1 + len(x[400:])

    def test_tracing_does_not_change_output(self, rng):
        spec = SincFilterSpec(order=4, decimation=2, input_bits=4,
                              input_rate_hz=640e6)
        x = rng.integers(-8, 8, 64)
        dec = HogenauerDecimator(spec)
        traced = dec.process(x, collect_trace=True)
        assert dec.trace.samples == 64
        assert np.array_equal(traced, HogenauerDecimator(spec).process(x))

    def test_wide_registers_fall_back_to_reference(self, rng):
        # 40 + 4*6 = 64-bit registers exceed the int64 fast path.
        spec = SincFilterSpec(order=4, decimation=64, input_bits=40,
                              input_rate_hz=640e6)
        dec = HogenauerDecimator(spec)
        assert dec.width > 62
        x = rng.integers(-(1 << 39), 1 << 39, 256)
        out = dec.process(x)
        assert out.dtype == object
        assert _ints(out) == _ints(HogenauerDecimator(spec).reference_output(x))

    def test_object_dtype_input_wrapped_like_reference(self):
        # Arbitrary-precision inputs beyond int64 must wrap to the register
        # width (as hardware would), identically on both engines.
        spec = SincFilterSpec(order=2, decimation=2, input_bits=4,
                              input_rate_hz=640e6)
        x = np.array([2 ** 70 + 3, -(2 ** 80) + 1, 5, -7] * 8, dtype=object)
        ref = HogenauerDecimator(spec)._process_reference(x)
        vec = HogenauerDecimator(spec).process(x)
        assert vec.dtype == np.int64
        assert np.array_equal(ref, vec)


def _traced_pair(spec, blocks):
    """Trace ``blocks`` in order through the gold model and through
    ``process``; the outputs must agree block by block."""
    gold = HogenauerDecimator(spec)
    fast = HogenauerDecimator(spec)
    outputs = []
    for block in blocks:
        expected = gold._process_reference(block, collect_trace=True)
        out = fast.process(block, collect_trace=True)
        assert np.array_equal(out, expected)
        outputs.append(out)
    return gold.trace, fast.trace, outputs


def _assert_same_trace(gold, fast):
    assert fast.samples == gold.samples
    # Node for node, in the same order (the activity averages over it).
    assert list(fast.toggles.items()) == list(gold.toggles.items())


class TestHogenauerTraceOracle:
    """The fast path's toggle trace against the gold model's trace."""

    def test_paper_sinc_stages_on_activity_stimulus(self, paper_chain):
        from repro.hardware.power import ACTIVITY_TONE_HZ

        modulator_spec = paper_chain.spec.modulator
        tone = coherent_tone(ACTIVITY_TONE_HZ, modulator_spec.msa,
                             modulator_spec.sample_rate_hz, 4096)
        codes = DeltaSigmaModulator.from_spec(modulator_spec).simulate(tone).codes
        data = paper_chain.codes_to_signed(codes)
        for stage in paper_chain._hogenauer_stages:
            gold, fast, (data,) = _traced_pair(stage.spec, [data])
            _assert_same_trace(gold, fast)
            assert all(count > 0 for count in fast.toggles.values())

    def test_wrapping_registers_on_random_codes(self, rng):
        spec = SincFilterSpec(order=3, decimation=4, input_bits=2,
                              input_rate_hz=640e6)
        # A negative mean drives the 8-bit integrators round their range.
        x = rng.integers(-2, 2, 2001)
        assert HogenauerDecimator(spec).width == 8
        assert np.abs(np.cumsum(x)).max() >= 1 << 7
        gold, fast, _ = _traced_pair(spec, [x])
        _assert_same_trace(gold, fast)

    def test_state_carries_across_blocks(self, rng):
        # Each call starts its toggle count from 0, as the gold model does,
        # while the registers and the phase carry over.
        spec = SincFilterSpec(order=4, decimation=4, input_bits=4,
                              input_rate_hz=640e6)
        x = rng.integers(-8, 8, 1203)
        gold, fast, outputs = _traced_pair(spec, [x[:601], x[601:]])
        _assert_same_trace(gold, fast)
        one_shot = HogenauerDecimator(spec).process(x)
        assert np.array_equal(np.concatenate(outputs), one_shot)

    def test_blocks_without_outputs(self, rng):
        spec = SincFilterSpec(order=2, decimation=8, input_bits=4,
                              input_rate_hz=640e6)
        x = rng.integers(-8, 8, 20)
        gold, fast, _ = _traced_pair(
            spec, [x[:0], x[:3], x[3:17], x[17:]])
        _assert_same_trace(gold, fast)


class TestFIRStageBackendEquivalence:
    def test_halfband_bit_exact(self, paper_chain, rng):
        hb = paper_chain._halfband_impl
        x = rng.integers(-3000, 3000, 2049)
        ref = hb._process_reference(x)
        vec = hb.process(x)
        assert vec.dtype == np.int64
        assert _ints(ref) == _ints(vec)

    def test_equalizer_bit_exact(self, paper_chain, rng):
        eq = paper_chain._equalizer_impl
        x = rng.integers(-60000, 60000, 1025)
        assert _ints(eq._process_reference(x)) == _ints(eq.process(x))

    def test_decimating_fir_bit_exact(self, rng):
        taps = np.hanning(33) / np.hanning(33).sum()
        fir = FIRFilterFixedPoint(taps=taps, coefficient_bits=14, decimation=4)
        x = rng.integers(-500, 500, 1003)
        assert _ints(fir._process_reference(x)) == _ints(fir.process(x))

    def test_scaling_bit_exact(self, paper_chain, rng):
        sc = paper_chain.scaling
        x = rng.integers(-100000, 100000, 777)
        assert _ints(sc._process_reference(x)) == _ints(sc.process(x))

    def test_scaling_arbitrary_constant(self, rng):
        sc = ScalingStage(scale=3.14159, coefficient_bits=10)
        x = rng.integers(-4000, 4000, 256)
        assert _ints(sc._process_reference(x)) == _ints(sc.process(x))

    def test_int64_min_input_falls_back_exactly(self):
        # np.abs(-2**63) overflows back to itself; the safety guard must
        # still classify it unsafe so process() takes the exact gold model.
        sc = ScalingStage(scale=0.75, coefficient_bits=8)
        x = np.array([-2 ** 63, 5], dtype=np.int64)
        assert not int64_accumulator_safe(x, abs(sc._int_multiplier))
        out = sc.process(x)
        half = 1 << (sc.coefficient_bits - 1)
        assert out.dtype == object
        assert _ints(out) == [(int(v) * sc._int_multiplier + half)
                              >> sc.coefficient_bits for v in x.tolist()]

    def test_vectorized_overflow_guard(self, paper_chain):
        hb = paper_chain._halfband_impl
        huge = np.array([1 << 50, -(1 << 50)], dtype=np.int64)
        assert not int64_accumulator_safe(huge, hb._abs_tap_sum)
        # The int64 matmul would overflow; process() takes the gold model.
        out = hb.process(huge)
        assert out.dtype == object
        assert _ints(out) == _ints(hb._process_reference(huge))
        assert _ints(hb.process(np.stack([huge, huge]))[1]) == _ints(out)


class TestChainBackendEquivalence:
    def test_process_fixed_bit_exact(self, paper_chain, paper_codes):
        ref = chain_gold_model(paper_chain, paper_codes)
        vec = paper_chain.process_fixed(paper_codes)
        assert vec.dtype == np.int64
        assert np.array_equal(ref, vec)

    def test_auto_matches_reference(self, paper_chain, paper_codes):
        # The (batch, n) path — batched Hogenauer stage, 2-D matmuls —
        # against the gold model row by row.
        codes = np.stack([paper_codes[:2048], paper_codes[-2048:]])
        batched = paper_chain.process_fixed(codes)
        assert batched.shape[0] == 2
        for row, record in zip(batched, codes):
            assert np.array_equal(row, chain_gold_model(paper_chain, record))

    def test_random_codes_bit_exact(self, paper_chain, rng):
        codes = rng.integers(0, 16, 4096)
        ref = chain_gold_model(paper_chain, codes)
        vec = paper_chain.process_fixed(codes)
        assert np.array_equal(ref, vec)

    def test_trace_collection_keeps_output(self, paper_chain, paper_codes):
        traced = paper_chain.process_fixed(paper_codes[:1024], collect_trace=True)
        stage = paper_chain._hogenauer_stages[0]
        assert stage.trace.samples == 1024
        assert any(v > 0 for v in stage.trace.toggles.values())
        assert np.array_equal(traced, paper_chain.process_fixed(paper_codes[:1024]))


class TestFastModulatorEngine:
    def test_simulate_runs_the_exact_recursion(self, paper_modulator):
        tone = coherent_tone(2e6, 0.6, 640e6, 8192)
        result = paper_modulator.simulate(tone)
        assert result.stable
        assert result.metadata["engine"] == "error-feedback-fast"
        assert result.codes.min() >= 0 and result.codes.max() <= 15
        direct = paper_modulator.fast_simulator.simulate(tone)
        assert result.codes.tobytes() == direct.codes.tobytes()

    def test_noise_shaping_near_linear_model(self, paper_modulator):
        from repro.dsm import analyze_tone

        tone = coherent_tone(2e6, 0.6, 640e6, 16384)
        result = paper_modulator.simulate(tone)
        snr = analyze_tone(result.output, 640e6, 2e6, 20e6).snr_db
        assert snr == pytest.approx(paper_modulator.predicted_sqnr_db(0.6),
                                    abs=4.0)

    def test_requires_monic_ntf(self):
        from repro.dsm import MultibitQuantizer, synthesize_ntf
        from repro.dsm.modulator import FastErrorFeedbackSimulator

        # A non-monic copy: the synthesized NTF is shared by the cache.
        ntf = dataclasses.replace(synthesize_ntf(3, 16, 1.5), gain=2.0)
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
