"""Tests for the Monte Carlo robustness engine (batching, determinism)."""

import dataclasses
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest

from repro import _native
from repro.core.chain import ChainDesignOptions, DecimationChain
from repro.core.spec import ChainSpec, canonical_json
from repro.core.verification import snr_stimulus_parameters
from repro.dsm.modulator import LOCKSTEP_ROWS, FastErrorFeedbackSimulator
from repro.robustness import (PerturbationModel, default_model,
                              robustness_report_json, run_robustness,
                              run_robustness_suite)
from repro.robustness import engine
from repro.robustness.model import CoefficientDither, InputMismatch

SMALL_RUN = dict(n_samples=6, seed=13, stimulus_samples=2048)


@pytest.fixture(scope="module")
def small_report():
    return run_robustness("lte-20", **SMALL_RUN)


class TestRecordLayout:
    def test_top_level_keys(self, small_report):
        record = small_report.record
        for key in ("schema", "scenario", "spec", "options", "model", "run",
                    "nominal", "variants", "samples", "distributions",
                    "yield", "worst_case"):
            assert key in record
        assert record["scenario"] == "lte-20"
        assert len(record["samples"]) == SMALL_RUN["n_samples"]

    def test_samples_are_ordered_and_complete(self, small_report):
        samples = small_report.record["samples"]
        assert [s["index"] for s in samples] == list(range(len(samples)))
        for sample in samples:
            for key in ("variant", "snr_db", "power_mw", "area_mm2",
                        "stable", "passed"):
                assert key in sample

    def test_distribution_stats_are_consistent(self, small_report):
        record = small_report.record
        snrs = [s["snr_db"] for s in record["samples"]]
        stats = record["distributions"]["snr_db"]
        assert stats["min"] == pytest.approx(min(snrs))
        assert stats["max"] == pytest.approx(max(snrs))
        assert stats["mean"] == pytest.approx(float(np.mean(snrs)))
        assert stats["p50"] == pytest.approx(float(np.percentile(snrs, 50)))

    def test_yield_and_worst_case_are_consistent(self, small_report):
        record = small_report.record
        samples = record["samples"]
        expected_rate = sum(1 for s in samples if s["passed"]) / len(samples)
        assert record["yield"]["pass_rate"] == pytest.approx(expected_rate)
        worst = record["worst_case"]
        assert worst["snr_db"] == pytest.approx(
            min(s["snr_db"] for s in samples))
        assert worst["draw"]["index"] == worst["index"]

    def test_variants_carry_mask_verdicts(self, small_report):
        variants = small_report.record["variants"]
        assert len(variants) >= 1
        for entry in variants:
            assert isinstance(entry["mask_passed"], bool)
            assert entry["halfband_attenuation_db"] > 0
            assert len(entry["fingerprint"]) == 64

    def test_record_is_json_round_trippable(self, small_report):
        import json

        text = canonical_json(small_report.record)
        assert json.loads(text) == json.loads(
            canonical_json(small_report.record))


class TestDeterminism:
    def test_same_seed_reproduces_bytes(self):
        a = run_robustness("lte-20", **SMALL_RUN)
        b = run_robustness("lte-20", **SMALL_RUN)
        assert canonical_json(a.record) == canonical_json(b.record)

    def test_different_seed_differs(self, small_report):
        other = run_robustness("lte-20", n_samples=6, seed=14,
                               stimulus_samples=2048)
        assert canonical_json(other.record) != \
            canonical_json(small_report.record)

    def test_disabled_axes_leave_nominal_untouched(self):
        report = run_robustness("lte-20", model=PerturbationModel(),
                                n_samples=3, seed=1, stimulus_samples=2048)
        # The Monte Carlo rows and the nominal leg share one measurement
        # (DecimationChain.measure_output_snr), so with every axis off they
        # agree to the last bit.
        nominal = report.record["nominal"]["snr_db"]
        for sample in report.record["samples"]:
            assert sample["snr_db"] == nominal
            assert sample["power_mw"] == pytest.approx(
                report.record["nominal"]["power_mw"])


class TestBatchedHotPath:
    def test_256_sample_lte20_is_batched_and_cache_stable(self, tmp_path,
                                                          monkeypatch):
        """The acceptance run: 256 samples over lte-20, no per-sample loop.

        Counts engine calls while the Monte Carlo executes inline: each row
        block of each chain variant's group (``ceil(group / ROW_BLOCK)``
        blocks per group) runs its full-rate stages — ``simulate_batch``
        and the Hogenauer stages (``sinc_words``) — once per group of
        ``LOCKSTEP_ROWS`` rows, and the decimated-rate tail
        (``measure_sinc_words_snr``) once, with per-record simulation
        reserved for the single nominal reference.  The run must then
        reproduce byte-identically from the warm on-disk cache.
        """
        calls = Counter()
        real_simulate = FastErrorFeedbackSimulator.simulate
        real_batch = FastErrorFeedbackSimulator.simulate_batch
        real_fixed = DecimationChain.process_fixed
        real_words = DecimationChain.sinc_words
        real_tail = DecimationChain.measure_sinc_words_snr

        def counting(name, real):
            def call(self, data, *args, **kwargs):
                calls[f"{name}_{np.asarray(data).ndim}d"] += 1
                return real(self, data, *args, **kwargs)
            return call

        monkeypatch.setattr(FastErrorFeedbackSimulator, "simulate",
                            counting("simulate", real_simulate))
        monkeypatch.setattr(FastErrorFeedbackSimulator, "simulate_batch",
                            counting("simulate_batch", real_batch))
        monkeypatch.setattr(DecimationChain, "process_fixed",
                            counting("fixed", real_fixed))
        monkeypatch.setattr(DecimationChain, "sinc_words",
                            counting("words", real_words))
        monkeypatch.setattr(DecimationChain, "measure_sinc_words_snr",
                            counting("tail", real_tail))

        model = default_model()
        cold = run_robustness("lte-20", model=model, n_samples=256, seed=2011,
                              stimulus_samples=2048, jobs=1,
                              cache_dir=tmp_path)
        # The variant of every sample comes from the run's draw table.
        groups = Counter(s["variant"] for s in cold.record["samples"])
        assert len(groups) == model.chain_variants
        block_sizes = [min(engine.ROW_BLOCK, size - start)
                       for size in groups.values()
                       for start in range(0, size, engine.ROW_BLOCK)]
        lockstep = [-(-rows // LOCKSTEP_ROWS) for rows in block_sizes]
        assert sum(lockstep) > len(block_sizes)   # blocks of several groups
        # One modulator call per lockstep group, plus the nominal
        # reference, which simulates as a batch of one.
        assert calls["simulate_1d"] <= 1             # the nominal reference
        assert calls["simulate_batch_2d"] == sum(lockstep) + calls["simulate_1d"]
        assert calls["words_2d"] == sum(lockstep)    # Hogenauer per group
        assert calls["tail_2d"] == len(block_sizes)  # the tail per block
        assert calls["fixed_2d"] == 0
        assert calls["fixed_1d"] <= 1                # the nominal SNR leg
        assert cold.from_cache is False
        assert len(cold.record["samples"]) == 256

        warm = run_robustness("lte-20", model=model, n_samples=256, seed=2011,
                              stimulus_samples=2048, jobs=1,
                              cache_dir=tmp_path)
        assert warm.from_cache is True
        assert canonical_json(warm.record) == canonical_json(cold.record)

    def test_256_sample_records_are_identical_across_executors(self):
        runs = {}
        for jobs in (1, 4):
            suite = run_robustness_suite(["lte-20"], n_samples=256, seed=2011,
                                         stimulus_samples=2048, jobs=jobs)
            runs[suite.metadata["executor"]] = canonical_json(
                suite.reports[0].record)
        assert runs["inline"] == runs["process"]

    def test_sharding_does_not_change_the_rows(self):
        one = run_robustness("lte-20", n_samples=9, seed=3,
                             stimulus_samples=2048, jobs=1)
        many = run_robustness("lte-20", n_samples=9, seed=3,
                              stimulus_samples=2048, jobs=5)
        assert canonical_json(one.record) == canonical_json(many.record)


def _captured_payload(**kwargs):
    """The first shard payload and the store of an inline run."""
    captured = {}
    real = engine.execute_payloads

    def capture(payloads, **options):
        captured["payload"] = payloads[0]
        captured["store"] = options["store"]
        return real(payloads, **options)

    with mock.patch.object(engine, "execute_payloads", capture):
        run_robustness("lte-20", jobs=1, **kwargs)
    return captured["payload"], captured["store"]


class TestRowBlocks:
    """The shard walks each variant group in blocks of ``ROW_BLOCK`` rows,
    and each block's full-rate stages in groups of ``LOCKSTEP_ROWS``."""

    @pytest.mark.parametrize("engine_kind", ["kernel", "fallback"])
    def test_block_size_does_not_change_the_record(self, monkeypatch,
                                                   engine_kind):
        if engine_kind == "fallback":
            monkeypatch.setattr(_native, "load", lambda: None)
        elif _native.load() is None:
            pytest.skip("the compiled kernels cannot be built on this host")
        kwargs = dict(n_samples=20, seed=2011, stimulus_samples=2048)
        records = {}
        for block in (1, 3, 5, 7, 16, 256):
            monkeypatch.setattr(engine, "ROW_BLOCK", block)
            records[block] = canonical_json(
                run_robustness("lte-20", jobs=1, **kwargs).record)
        monkeypatch.setattr(engine, "ROW_BLOCK", 16)
        pooled = run_robustness("lte-20", jobs=4, **kwargs).record
        sizes = Counter(s["variant"] for s in pooled["samples"]).values()
        assert len(set(sizes)) > 1           # groups of uneven size
        # Blocks of 5 and 16 rows end in a partial lockstep group.
        assert any(size % 5 % LOCKSTEP_ROWS or size % 16 % LOCKSTEP_ROWS
                   for size in sizes)
        assert len(set(records.values())) == 1
        assert records[1] == canonical_json(pooled)

    def test_a_diverging_row_is_named_by_its_row_in_the_block(self):
        """A modulator overflow names the sample's row in its row block,
        whichever lockstep group of the block it runs in."""
        payload, store = _captured_payload(
            model=dataclasses.replace(default_model(), chain_variants=1),
            n_samples=16, seed=2011, stimulus_samples=2048)
        real = engine.write_jittered_tone
        written = []

        def spiking(out, *args):
            real(out, *args)
            written.append(len(written))
            if written[-1] == 6:
                out[100] = 1e308         # overflows the loop filter

        with mock.patch.object(engine, "write_jittered_tone", spiking):
            with pytest.raises(OverflowError,
                               match="quantizer input of row 6 is no longer"):
                engine.execute_robustness_payload(payload, store)

    def test_full_rate_stages_peak_below_one_block_of_stimulus(self):
        """A 16-row variant group over the scenario's own record peaks
        below one ``(16, n)`` float64 matrix: the modulator and the
        Hogenauer stages hold four rows at a time, and only the Sinc-rate
        words of the whole block."""
        model = dataclasses.replace(default_model(), chain_variants=1)
        payload, store = _captured_payload(model=model, n_samples=16,
                                           seed=2011)
        assert all(s["variant"] == 0 for s in payload["samples"])
        flow = payload["flow"]
        chain = DecimationChain.design(
            ChainSpec.from_dict(payload["spec"]),
            ChainDesignOptions.from_dict(payload["options"]),
            artifacts=store)
        total = snr_stimulus_parameters(
            chain, flow["snr_samples"], tone_hz=flow["snr_tone_hz"],
            amplitude=flow["snr_amplitude"])[2]
        tracemalloc.start()
        try:
            engine.execute_robustness_payload(payload, store)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * total * np.dtype(np.float64).itemsize

    def test_shard_peak_memory_scales_with_the_block(self):
        """A shard's traced peak grows with the row block, not with its
        population: 8x the samples stay under 2x the peak."""
        full, store = _captured_payload(n_samples=256, seed=2011,
                                        stimulus_samples=2048)
        small = dict(full, samples=full["samples"][:32])
        peaks = []
        for payload in (full, small):
            tracemalloc.start()
            try:
                engine.execute_robustness_payload(payload, store)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 2.0 * peaks[1]


class TestSuite:
    def test_suite_report_json_is_cache_stable(self, tmp_path):
        kwargs = dict(n_samples=4, seed=2, stimulus_samples=2048,
                      cache_dir=tmp_path)
        cold = run_robustness_suite(["lte-20"], **kwargs)
        warm = run_robustness_suite(["lte-20"], **kwargs)
        assert robustness_report_json(cold) == robustness_report_json(warm)
        assert cold.cache_misses == 1
        assert warm.cache_hits == 1
        assert warm.reports[0].from_cache is True

    def test_cache_hits_count_this_run_only(self, tmp_path):
        from repro.explore.store import ArtifactCAS

        cache = ArtifactCAS(tmp_path / "shared")
        hits = [run_robustness_suite(["lte-20"], n_samples=4, seed=2,
                                     stimulus_samples=2048,
                                     cache_dir=cache).cache_hits
                for _ in range(3)]
        assert hits == [0, 1, 1]

    def test_scheme_cache_dir_is_rejected_before_any_work(self, tmp_path,
                                                          monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ValueError, match="unknown store scheme 'mem'"):
            run_robustness_suite(["lte-20"], n_samples=4, seed=2,
                                 stimulus_samples=2048,
                                 cache_dir="mem://robustness-store-spec")
        assert not list(tmp_path.iterdir())  # no local "mem:" directory

    def test_too_short_stimulus_is_rejected_before_any_work(self):
        with pytest.raises(ValueError, match="fewer than"):
            run_robustness("lte-20", n_samples=2, seed=1,
                           stimulus_samples=128)

    def test_progress_lines(self):
        lines = []
        run_robustness_suite(["lte-20"], n_samples=3, seed=1,
                             stimulus_samples=2048, progress=lines.append)
        assert len(lines) == 1
        assert "lte-20" in lines[0]
        assert "yield" in lines[0]

    def test_mismatch_only_model_varies_metrics(self):
        report = run_robustness(
            "lte-20",
            model=PerturbationModel(mismatch=InputMismatch(gain_sigma=0.01)),
            n_samples=4, seed=6, stimulus_samples=2048)
        snrs = {round(s["snr_db"], 6) for s in report.record["samples"]}
        assert len(snrs) > 1  # per-sample stimuli genuinely differ
        powers = {s["power_mw"] for s in report.record["samples"]}
        assert len(powers) == 1  # corners disabled -> nominal power

    def test_dither_only_model_keeps_power_nominal_but_moves_snr(self):
        report = run_robustness(
            "lte-20",
            model=PerturbationModel(dither=CoefficientDither(
                halfband_max_lsbs=200, equalizer_max_lsbs=8,
                probability=1.0), chain_variants=3),
            n_samples=6, seed=8, stimulus_samples=2048)
        by_variant = {}
        for sample in report.record["samples"]:
            by_variant.setdefault(sample["variant"], set()).add(
                round(sample["snr_db"], 6))
        # Samples of one variant share the chain, so with mismatch/jitter
        # disabled they share the stimulus and the SNR exactly.
        for values in by_variant.values():
            assert len(values) == 1
        assert len(report.record["variants"]) == 3
