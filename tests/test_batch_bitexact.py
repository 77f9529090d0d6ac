"""Bit-exactness of every batch-vectorized path against its per-record
reference, plus the shared-stage memoization contracts of the sweep engine.

The batch paths (modulator ``simulate_batch``, 2-D strided-matmul
convolution, batched Hogenauer stage, batched chain processing, batched
rFFT PSD/SNR) exist purely for speed; these tests pin the contract that
every row of a batched result equals the per-record computation sample for
sample.  The modulator and Hogenauer contracts run twice: on the compiled
kernels and on their pure-Python fallback.
"""

import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import _native
from repro.dsm import DeltaSigmaModulator, coherent_tone, synthesize_ntf
from repro.dsm.modulator import FastErrorFeedbackSimulator, LoopDivergedError
from repro.dsm.quantizer import MultibitQuantizer
from repro.dsm.spectrum import analyze_tone, analyze_tone_batch, periodogram
from repro.filters.hogenauer import HogenauerConfig, HogenauerDecimator
from repro.filters.polyphase import convolve_strided_matmul
from repro.filters.sinc import SincFilterSpec


# ----------------------------------------------------------------------
# Modulator batch engine
# ----------------------------------------------------------------------
class TestSimulateBatch:
    def test_rows_bit_exact_to_per_record(self, paper_ntf):
        simulator = FastErrorFeedbackSimulator(paper_ntf, MultibitQuantizer(4))
        amplitudes = [0.2, 0.5, 0.7, 0.81, 0.95]
        tones = np.stack([coherent_tone(2.5e6, a, 640e6, 2048)
                          for a in amplitudes])
        batch = simulator.simulate_batch(tones)
        assert batch.batch_size == len(amplitudes)
        assert batch.n_samples == 2048
        for b in range(len(amplitudes)):
            single = simulator.simulate(tones[b])
            assert np.array_equal(batch.codes[b], single.codes)
            assert np.array_equal(batch.output[b], single.output)
            assert np.array_equal(batch.quantizer_input[b],
                                  single.quantizer_input)
            assert bool(batch.stable[b]) == single.stable

    def test_record_view(self, paper_ntf):
        simulator = FastErrorFeedbackSimulator(paper_ntf, MultibitQuantizer(4))
        tones = np.stack([coherent_tone(2.5e6, a, 640e6, 512)
                          for a in (0.3, 0.6)])
        batch = simulator.simulate_batch(tones)
        record = batch.record(1)
        assert np.array_equal(record.codes, batch.codes[1])
        assert record.metadata["batch_index"] == 1

    @pytest.mark.parametrize("engine", ["kernel", "fallback"])
    def test_codes_only_writes_into_the_callers_buffer(self, paper_ntf,
                                                       engine):
        simulator = FastErrorFeedbackSimulator(paper_ntf, MultibitQuantizer(4))
        tones = np.stack([coherent_tone(2.5e6, a, 640e6, 1024)
                          for a in (0.2, 0.5, 0.7, 0.81, 0.95)])
        full = simulator.simulate_batch(tones)
        buffer = np.full((7, 1024), -1, dtype=np.int64)
        with mock.patch.object(_native, "load",
                               _native.load if engine == "kernel"
                               else lambda: None):
            batch = simulator.simulate_batch(tones, codes_only=True,
                                             out=buffer[:5])
        assert batch.codes.base is buffer
        assert np.array_equal(buffer[:5], full.codes)
        assert np.all(buffer[5:] == -1)
        assert np.array_equal(batch.stable, full.stable)
        assert batch.output is None and batch.quantizer_input is None
        assert batch.n_samples == 1024 and batch.record(4).output is None

    def test_out_must_match_the_input(self, paper_ntf):
        simulator = FastErrorFeedbackSimulator(paper_ntf, MultibitQuantizer(4))
        tones = np.zeros((2, 64))
        for out in (np.empty((2, 64)), np.empty((3, 64), dtype=np.int64),
                    np.empty((64, 2), dtype=np.int64).T):
            with pytest.raises(ValueError, match="out must be"):
                simulator.simulate_batch(tones, out=out)

    def test_rejects_1d_input(self, paper_ntf):
        simulator = FastErrorFeedbackSimulator(paper_ntf, MultibitQuantizer(4))
        with pytest.raises(ValueError, match="2-D"):
            simulator.simulate_batch(np.zeros(64))

    def test_non_finite_input_rejected_naming_the_row(self, paper_ntf):
        simulator = FastErrorFeedbackSimulator(paper_ntf, MultibitQuantizer(4))
        tones = np.zeros((3, 64))
        for bad in (np.nan, np.inf, -np.inf):
            tones[2, 5] = bad
            with pytest.raises(ValueError, match="row 2"):
                simulator.simulate_batch(tones)
            with pytest.raises(ValueError, match="sample 5"):
                simulator.simulate(tones[2])

    def test_estimate_msa_fast_matches_per_record_fast_loop(self, paper_modulator):
        grid = np.linspace(0.6, 1.0, 9)
        batched = paper_modulator.estimate_msa(
            n_samples=1024, amplitude_grid=grid)
        # Reference: the same first-failure rule, one fast simulation per
        # amplitude.
        last_stable = 0.0
        for amplitude in grid:
            tone = coherent_tone(paper_modulator.signal_bandwidth_hz / 8.0,
                                 float(amplitude),
                                 paper_modulator.sample_rate_hz, 1024)
            result = paper_modulator.simulate(tone)
            sat = float(np.mean(
                paper_modulator.quantizer.is_saturating(result.quantizer_input)))
            if result.stable and sat < 0.2:
                last_stable = float(amplitude)
            else:
                break
        assert batched == last_stable


# ----------------------------------------------------------------------
# 2-D convolution / Hogenauer / chain
# ----------------------------------------------------------------------
class TestBatchedFilters:
    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           step=st.integers(min_value=1, max_value=4),
           offset=st.integers(min_value=0, max_value=8),
           n=st.integers(min_value=1, max_value=64),
           batch=st.integers(min_value=1, max_value=5))
    @settings(max_examples=60, deadline=None)
    def test_convolve_strided_matmul_2d_matches_rows(self, seed, step, offset,
                                                     n, batch):
        rng = np.random.default_rng(seed)
        x = rng.integers(-1000, 1000, size=(batch, n), dtype=np.int64)
        taps = rng.integers(-50, 50, size=7, dtype=np.int64)
        batched = convolve_strided_matmul(x, taps, offset=offset, step=step)
        assert batched.shape[0] == batch
        for b in range(batch):
            row = convolve_strided_matmul(x[b], taps, offset=offset, step=step)
            assert np.array_equal(batched[b], row)

    def test_hogenauer_batch_matches_fresh_per_record(self):
        spec = SincFilterSpec(order=4, decimation=2, input_bits=4,
                              input_rate_hz=640e6)
        rng = np.random.default_rng(7)
        records = rng.integers(-8, 8, size=(5, 256), dtype=np.int64)
        batch_stage = HogenauerDecimator(spec, HogenauerConfig())
        batched = batch_stage.process_batch(records)
        for b in range(records.shape[0]):
            stage = HogenauerDecimator(spec, HogenauerConfig())
            assert np.array_equal(batched[b], stage.process(records[b]))

    def test_hogenauer_batch_rejects_1d(self):
        spec = SincFilterSpec(order=4, decimation=2, input_bits=4,
                              input_rate_hz=640e6)
        with pytest.raises(ValueError, match="2-D"):
            HogenauerDecimator(spec, HogenauerConfig()).process_batch(
                np.zeros(16, dtype=np.int64))

    def test_chain_process_fixed_batch_matches_rows(self, paper_chain,
                                                    paper_modulator):
        amplitudes = (0.3, 0.6, 0.77)
        codes = np.stack([
            paper_modulator.simulate(
                coherent_tone(2.5e6, a, 640e6, 2048)).codes
            for a in amplitudes])
        batched = paper_chain.process_fixed(codes)
        assert batched.shape[0] == len(amplitudes)
        for b in range(len(amplitudes)):
            assert np.array_equal(batched[b], paper_chain.process_fixed(codes[b]))
        # Empty records: every stage keeps the (batch, 0) shape.
        empty = np.zeros((2, 0), dtype=np.int64)
        for process in (paper_chain.process_fixed,
                        paper_chain._halfband_impl.process):
            batched = process(empty)
            assert batched.shape == (2, 0)
            for row in batched:
                assert np.array_equal(row, process(empty[0]))


@pytest.mark.usefixtures("python_fallback")
class TestSimulateBatchFallback(TestSimulateBatch):
    """The modulator batch contracts on the pure-Python fallback."""


@pytest.mark.usefixtures("python_fallback")
class TestBatchedFiltersFallback(TestBatchedFilters):
    """The Hogenauer and chain batch contracts on the fallback engine."""

    # No kernel behind the strided matmul; a hypothesis test also must not
    # run from two classes.
    test_convolve_strided_matmul_2d_matches_rows = None


# ----------------------------------------------------------------------
# Compiled kernels against their gold models
# ----------------------------------------------------------------------
def _bits(array):
    return np.ascontiguousarray(array, dtype=np.float64).view(np.uint64)


def _or_error(call):
    try:
        return call()
    except OverflowError as error:
        return type(error)


@pytest.fixture(scope="module")
def kernel_library():
    library = _native.load()
    if library is None:
        pytest.skip("the compiled kernels cannot be built on this host")
    return library


class TestKernelDifferential:
    # Batches of 1-9 rows leave every remainder 0-3 after the kernel's
    # four-row lockstep groups; orders above 8 take its generic loop.
    @given(order=st.integers(1, 10), bits=st.integers(1, 6),
           h_inf=st.sampled_from((2.0, 3.0)),
           batch=st.integers(1, 9),
           n=st.one_of(st.just(0), st.just(1), st.integers(2, 300)),
           amplitudes=st.lists(st.sampled_from(
               (0.0, 0.5, 0.9, 1.0, 1.5, 2.0, 4.0, 8.0)), min_size=9,
               max_size=9),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(order=5, bits=4, h_inf=3.0, batch=9, n=300,
             amplitudes=[0.0, 0.5, 0.9, 1.0, 1.5, 2.0, 4.0, 8.0, 8.0], seed=1)
    @example(order=10, bits=4, h_inf=2.0, batch=6, n=300,
             amplitudes=[0.5] * 9, seed=2)
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_modulator_kernel_matches_python_loop(
            self, kernel_library, order, bits, h_inf, batch, n, amplitudes,
            seed):
        simulator = FastErrorFeedbackSimulator(
            synthesize_ntf(order, 16, h_inf), MultibitQuantizer(bits))
        rng = np.random.default_rng(seed)
        t = np.arange(n)
        u = np.stack([a * np.sin(2 * np.pi * 0.013 * t + rng.uniform(0, 6))
                      + 0.01 * rng.standard_normal(n)
                      for a in amplitudes[:batch]])
        gold = [_or_error(lambda row=row: simulator._simulate_python(row))
                for row in u]
        kernel = _or_error(lambda: simulator.simulate_batch(u))
        kernel_codes = _or_error(
            lambda: simulator.simulate_batch(u, codes_only=True))
        with mock.patch.object(_native, "load", lambda: None):
            fallback = _or_error(lambda: simulator.simulate_batch(u))
            fallback_codes = _or_error(
                lambda: simulator.simulate_batch(u, codes_only=True))
        if OverflowError in gold:
            assert (kernel is fallback is kernel_codes is fallback_codes
                    is OverflowError)
            return
        assert kernel.metadata == fallback.metadata
        for result in (kernel_codes, fallback_codes):
            assert result.output is None and result.quantizer_input is None
            assert np.array_equal(result.codes, kernel.codes)
            assert np.array_equal(result.stable, kernel.stable)
        for b, record in enumerate(gold):
            single = simulator.simulate(u[b])
            assert single.metadata == record.metadata
            for result in (kernel.record(b), fallback.record(b), single):
                assert np.array_equal(_bits(result.output),
                                      _bits(record.output))
                assert np.array_equal(_bits(result.quantizer_input),
                                      _bits(record.quantizer_input))
                assert np.array_equal(result.codes, record.codes)
                assert result.codes.dtype == record.codes.dtype
                assert result.stable == record.stable

    @pytest.mark.parametrize("late, early, batch", [(1, 3, 6), (4, 5, 6),
                                                    (0, 2, 4), (2, 7, 9)])
    def test_first_diverging_row_in_row_order(self, kernel_library, paper_ntf,
                                              late, early, batch):
        """Row ``late`` diverges later in time than row ``early > late``,
        in the same lockstep group or not: both engines name row ``late``,
        the first diverging row in row order."""
        simulator = FastErrorFeedbackSimulator(paper_ntf, MultibitQuantizer(4))
        u = np.stack([coherent_tone(2.5e6, 0.5, 640e6, 400)] * batch)
        u[late, 300] = u[early, 20] = 1e308  # overflows the loop filter
        message = (f"the loop diverged: the quantizer input of row {late} "
                   f"is no longer finite")
        for codes_only in (False, True):
            with pytest.raises(OverflowError) as kernel:
                simulator.simulate_batch(u, codes_only=codes_only)
            with mock.patch.object(_native, "load", lambda: None):
                with pytest.raises(OverflowError) as fallback:
                    simulator.simulate_batch(u, codes_only=codes_only)
            assert str(kernel.value) == str(fallback.value) == message
            assert isinstance(kernel.value, LoopDivergedError)
            assert kernel.value.row == fallback.value.row == late
            unpickled = pickle.loads(pickle.dumps(kernel.value))
            assert (str(unpickled), unpickled.row) == (message, late)
        # In time, row `early` loses the loop at its spike (sample 20), row
        # `late` only at sample 300.
        simulator._simulate_python(u[late, :300])
        with pytest.raises(OverflowError):
            simulator._simulate_python(u[early, :21])

    @given(order=st.integers(1, 6), decimation=st.integers(2, 8),
           input_bits=st.integers(1, 16), guard=st.integers(0, 62),
           batch=st.integers(1, 4), n=st.integers(0, 120),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_hogenauer_kernel_matches_gold_models(
            self, kernel_library, order, decimation, input_bits, guard, batch,
            n, seed):
        spec = SincFilterSpec(order=order, decimation=decimation,
                              input_bits=input_bits, input_rate_hz=1e6)
        config = HogenauerConfig(
            guard_bits=min(guard, 62 - spec.register_bits))
        stage = HogenauerDecimator(spec, config)
        assert stage.width <= 62
        high = 1 << (stage.width - 1)
        records = np.random.default_rng(seed).integers(
            -high, high, size=(batch, n), dtype=np.int64)
        kernel = stage.process_batch(records)
        with mock.patch.object(_native, "load", lambda: None):
            fallback = stage.process_batch(records)
        assert kernel.shape == fallback.shape == (batch, n // decimation)
        assert np.array_equal(kernel, fallback)
        for b in range(batch):
            if n:  # the convolution gold model needs a non-empty record
                assert np.array_equal(kernel[b],
                                      stage.reference_output(records[b]))
            fresh = HogenauerDecimator(spec, config)
            assert np.array_equal(kernel[b], fresh.process(records[b]))
            gold = HogenauerDecimator(spec, config)._process_reference(records[b])
            assert np.array_equal(kernel[b], gold)

    @pytest.mark.parametrize("offset", (8, -3, 1 << 40))
    def test_hogenauer_batch_subtracts_the_offset_as_it_reads(
            self, kernel_library, paper_chain, offset):
        """The chain's batch path hands the codes and their offset to the
        Hogenauer stages: kernel, fallback and a signed copy (the path
        before the offset moved into the stage) agree word for word."""
        codes = np.random.default_rng(11).integers(0, 16, size=(5, 4096),
                                                   dtype=np.int64)
        kernel = paper_chain._sinc_batch(codes, offset)
        with mock.patch.object(_native, "load", lambda: None):
            fallback = paper_chain._sinc_batch(codes, offset)
        signed_copy = paper_chain._sinc_batch(codes - offset, 0)
        assert np.array_equal(kernel, fallback)
        assert np.array_equal(kernel, signed_copy)


# ----------------------------------------------------------------------
# Batched spectral analysis
# ----------------------------------------------------------------------
class TestBatchedSpectrum:
    @pytest.fixture(scope="class")
    def records(self):
        rng = np.random.default_rng(11)
        t = np.arange(4096)
        return np.stack([
            a * np.sin(2.0 * np.pi * 0.01 * t) + 0.01 * rng.standard_normal(4096)
            for a in (0.2, 0.5, 0.9)])

    @pytest.mark.parametrize("window", ["hann", "rect", "blackmanharris"])
    def test_periodogram_batch_matches_rows(self, records, window):
        freqs, power = periodogram(records, 40e6, window=window)
        assert power.shape == (records.shape[0], len(freqs))
        for b in range(records.shape[0]):
            freqs_1d, power_1d = periodogram(records[b], 40e6, window=window)
            assert np.array_equal(freqs, freqs_1d)
            assert np.array_equal(power[b], power_1d)

    def test_analyze_tone_batch_matches_rows(self, records):
        tone_hz = 0.01 * 40e6
        analyses = analyze_tone_batch(records, 40e6, tone_hz,
                                      bandwidth_hz=18e6, window="hann")
        assert len(analyses) == records.shape[0]
        for b, batched in enumerate(analyses):
            single = analyze_tone(records[b], 40e6, tone_hz,
                                  bandwidth_hz=18e6, window="hann")
            assert batched.signal_power == single.signal_power
            assert batched.noise_power == single.noise_power
            assert batched.snr_db == single.snr_db
            assert batched.signal_bin == single.signal_bin
            assert np.array_equal(batched.psd_db, single.psd_db)

    def test_analyze_tone_rejects_2d(self, records):
        with pytest.raises(ValueError, match="1-D"):
            analyze_tone(records, 40e6, 1e6)

    def test_analyze_tone_batch_rejects_1d(self, records):
        with pytest.raises(ValueError, match="2-D"):
            analyze_tone_batch(records[0], 40e6, 1e6)


# ----------------------------------------------------------------------
# Shared-stage memoization
# ----------------------------------------------------------------------
class TestFlowMemoization:
    def test_memoized_flow_record_is_identical(self):
        import json

        from repro.flow import ArtifactStore, run_design_flow

        cold = run_design_flow(include_snr_simulation=True, snr_samples=4096,
                               measure_activity=False)
        store = ArtifactStore()
        memo1 = run_design_flow(include_snr_simulation=True, snr_samples=4096,
                                measure_activity=False, artifacts=store)
        memo2 = run_design_flow(include_snr_simulation=True, snr_samples=4096,
                                measure_activity=False, artifacts=store)
        as_json = lambda r: json.dumps(r.record(), sort_keys=True)
        assert as_json(memo1) == as_json(cold)
        assert as_json(memo2) == as_json(cold)
        assert store.hits > 0

    def test_shared_modulator_sweep_simulates_exactly_once(self, monkeypatch):
        from repro.dsm.modulator import FastErrorFeedbackSimulator
        from repro.explore import SweepSpec, run_sweep

        calls = []
        original = FastErrorFeedbackSimulator.simulate

        def counting(self, u, *args, **kwargs):
            calls.append(len(u))
            return original(self, u, *args, **kwargs)

        monkeypatch.setattr(FastErrorFeedbackSimulator, "simulate", counting)
        # Two points that share the modulator spec (they differ only in the
        # output word width) and the same chain shape, hence the same
        # stimulus: the bit-stream must be simulated exactly once.
        result = run_sweep(SweepSpec(output_bits=(12, 14)), jobs=1,
                           include_snr=True, snr_samples=2048)
        assert len(result) == 2
        assert all(p.record["simulated_snr_db"] is not None
                   for p in result.points)
        assert len(calls) == 1

    def test_verification_reports_are_independent_copies(self):
        from repro.core.chain import DecimationChain
        from repro.core.verification import verify_chain
        from repro.flow import ArtifactStore

        store = ArtifactStore()
        chain = DecimationChain.design(artifacts=store)
        first = verify_chain(chain, artifacts=store)
        second = verify_chain(chain, artifacts=store)
        first.add("scratch", 1.0, 0.0, ">=")
        assert len(second.checks) != len(first.checks)
        third = verify_chain(chain, artifacts=store)
        assert [c.name for c in third.checks] == [c.name for c in second.checks]

    def test_modulator_codes_prefix_extension(self, paper_chain):
        from repro.core.verification import modulator_tone_codes
        from repro.flow import ArtifactStore

        spec = paper_chain.spec.modulator
        store = ArtifactStore()
        long = modulator_tone_codes(spec, 2.5e6, 0.7, 4096, artifacts=store)
        short = modulator_tone_codes(spec, 2.5e6, 0.7, 1024, artifacts=store)
        assert np.array_equal(short, long[:1024])
        assert store.misses == 1
        # A longer request re-simulates; the prefix must be preserved.
        longer = modulator_tone_codes(spec, 2.5e6, 0.7, 6144, artifacts=store)
        assert np.array_equal(longer[:4096], long)
