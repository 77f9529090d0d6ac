"""Tests for the in-run artifact store (repro.flow.artifacts)."""

import sys
import threading
from collections import Counter

import numpy as np
import pytest

from repro.core.verification import modulator_tone_codes
from repro.flow import ArtifactStore


class TestPerKeyLocks:
    def test_key_locks_empty_after_distinct_keys_under_lru_cap(self,
                                                               paper_chain):
        """Per-key locks live only while a computation is in flight, so a
        capped long-running store cannot grow its lock table."""
        spec = paper_chain.spec.modulator
        store = ArtifactStore(max_entries=2)
        for i in range(20):
            modulator_tone_codes(spec, 1e6 + 1e5 * i, 0.5, 256,
                                 artifacts=store)
        assert len(store) == 2
        assert store.evictions == 18
        assert store.misses == 20
        assert store._key_locks == {}

    def test_key_lock_released_when_compute_raises(self):
        store = ArtifactStore()

        def boom():
            raise RuntimeError("stage failed")

        with pytest.raises(RuntimeError):
            store.get_or_compute(("stage", "k"), boom)
        assert store._key_locks == {}
        assert store.get_or_compute(("stage", "k"), lambda: 7) == 7

    def test_concurrent_callers_compute_once(self):
        store = ArtifactStore()
        started = threading.Event()
        release = threading.Event()
        calls = []

        def slow():
            calls.append(1)
            started.set()
            release.wait(5)
            return "value"

        results = []
        threads = [threading.Thread(target=lambda: results.append(
            store.get_or_compute(("stage", "k"), slow))) for _ in range(4)]
        threads[0].start()
        started.wait(5)
        for thread in threads[1:]:
            thread.start()
        release.set()
        for thread in threads:
            thread.join(5)
        assert results == ["value"] * 4
        assert calls == [1]
        assert (store.hits, store.misses) == (3, 1)
        assert store._key_locks == {}

    def test_racing_threads_compute_each_key_once(self):
        """More threads than cores over overlapping keys, with frequent
        thread switches: every key is computed once, no hit or miss is
        lost, and the lock table drains."""
        store = ArtifactStore(max_entries=64)
        computed = Counter()
        count_lock = threading.Lock()
        n_threads, n_keys, rounds = 8, 16, 20

        def compute_for(key):
            def compute():
                with count_lock:
                    computed[key] += 1
                return key
            return compute

        def worker(offset):
            for i in range(rounds * n_keys):
                key = ("stage", (i + offset) % n_keys)
                assert store.get_or_compute(key, compute_for(key)) == key

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(t,))
                       for t in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(thread.is_alive() for thread in threads)
        assert set(computed.values()) == {1}
        assert len(computed) == n_keys
        assert store.hits + store.misses == n_threads * rounds * n_keys
        assert store.misses == n_keys
        assert store._key_locks == {}


class TestReuse:
    def test_rejected_artifact_is_recomputed_and_replaced(self):
        store = ArtifactStore()
        key = ("stage", "k")
        assert store.get_or_compute(key, lambda: 4) == 4
        long_enough = lambda stored: stored >= 5
        assert store.get_or_compute(key, lambda: 8, reuse=long_enough) == 8
        assert store.get_or_compute(key, lambda: 99, reuse=long_enough) == 8
        assert (store.hits, store.misses) == (1, 2)
        assert len(store) == 1

    def test_modulator_prefix_extension_counts(self, paper_chain):
        """Shorter requests hit (slicing the stored record); longer ones
        miss and replace it."""
        spec = paper_chain.spec.modulator
        store = ArtifactStore()
        first = modulator_tone_codes(spec, 2.5e6, 0.7, 1024, artifacts=store)
        longer = modulator_tone_codes(spec, 2.5e6, 0.7, 2048, artifacts=store)
        shorter = modulator_tone_codes(spec, 2.5e6, 0.7, 512, artifacts=store)
        assert np.array_equal(longer[:1024], first)
        assert np.array_equal(shorter, first[:512])
        assert (store.hits, store.misses) == (1, 2)
        assert len(store) == 1


class TestOneMemoizationPath:
    def test_empty_store_passed_in_is_the_store_filled(self):
        from repro.flow import run_design_flow

        store = ArtifactStore()
        assert not store  # empty, hence falsy: callers must test `is None`
        run_design_flow(measure_activity=False, artifacts=store)
        stages = {key[0] for key in store._data}
        assert {"halfband-design", "equalizer-design",
                "verify-mask"} <= stages
        assert store.misses == len(store)

    def test_halfband_hit_shares_only_its_immutable_codes(self):
        from repro.core.chain import DecimationChain

        store = ArtifactStore()
        first = DecimationChain.design(artifacts=store).halfband
        second = DecimationChain.design(artifacts=store).halfband
        assert store.hits >= 1
        assert second.f2_csd[0] is first.f2_csd[0]
        assert second.f2 is not first.f2
        assert second.f2_csd is not first.f2_csd
        assert second.metadata is not first.metadata
        want = (second.f2.tobytes(), list(second.f2_csd),
                dict(second.metadata))
        first.f2[0] += 1.0
        first.f2_csd.clear()
        first.metadata.clear()
        third = DecimationChain.design(artifacts=store).halfband
        assert (third.f2.tobytes(), third.f2_csd, third.metadata) == want

    def test_storeless_flow_runs_every_stage_through_the_store(
            self, monkeypatch):
        from repro.flow import run_design_flow

        stages = Counter()
        original = ArtifactStore.get_or_compute

        def counting(self, key, *args, **kwargs):
            stages[key[0]] += 1
            return original(self, key, *args, **kwargs)

        monkeypatch.setattr(ArtifactStore, "get_or_compute", counting)
        run_design_flow(include_snr_simulation=True, snr_samples=2048)
        assert stages["halfband-design"] >= 1
        for stage in ("equalizer-design", "verify-mask", "snr-leg",
                      "modulator-codes", "hogenauer-activity", "chain-rtl"):
            assert stages[stage] == 1, stage


def _stage_keys(store, stage):
    return {key for key in store._data if key[0] == stage}


class TestPerChainStages:
    """The activity measurement, the RTL and the SNR leg are memoized too."""

    def test_activity_measured_once_across_libraries_and_snr_legs(
            self, monkeypatch):
        import json

        import repro.hardware.synthesis as synthesis
        from repro.flow import run_design_flow
        from repro.hardware.stdcell import GENERIC_45NM, GENERIC_90NM

        settings = [dict(library=library, include_snr_simulation=snr,
                         snr_samples=2048)
                    for library in (GENERIC_45NM, GENERIC_90NM)
                    for snr in (False, True)]
        as_json = lambda result: json.dumps(result.record(), sort_keys=True)
        fresh = [as_json(run_design_flow(**kwargs)) for kwargs in settings]

        calls = []
        real = synthesis.measure_hogenauer_activity

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(synthesis, "measure_hogenauer_activity", counting)
        store = ArtifactStore()
        shared = [as_json(run_design_flow(artifacts=store, **kwargs))
                  for kwargs in settings]
        assert shared == fresh
        assert len(calls) == 1
        assert len(_stage_keys(store, "hogenauer-activity")) == 1

    def test_each_activity_input_changes_the_key(self):
        from dataclasses import replace

        from repro.core.chain import ChainDesignOptions, DecimationChain
        from repro.core.spec import paper_chain_spec
        from repro.hardware import GENERIC_90NM, SynthesisFlow

        store = ArtifactStore()
        base = paper_chain_spec()

        def measure(spec=base, options=None, samples=256, library=None):
            chain = DecimationChain.design(spec, options, artifacts=store)
            flow = SynthesisFlow() if library is None else SynthesisFlow(library)
            flow.run(chain, activity_samples=samples, artifacts=store)
            return len(_stage_keys(store, "hogenauer-activity"))

        assert measure() == 1
        # Library, output word and equalizer options are not inputs.
        assert measure(library=GENERIC_90NM) == 1
        assert measure(spec=replace(base, decimator=replace(
            base.decimator, output_bits=12))) == 1
        assert measure(options=ChainDesignOptions(equalizer_order=48)) == 1
        # Quantizer bits, MSA, the NTF, Sinc orders and the record length
        # are.
        assert measure(spec=replace(
            base, modulator=replace(base.modulator, quantizer_bits=5),
            decimator=replace(base.decimator, input_bits=5))) == 2
        assert measure(spec=replace(base, modulator=replace(
            base.modulator, msa=0.7))) == 3
        assert measure(spec=replace(base, modulator=replace(
            base.modulator, out_of_band_gain=2.5))) == 4
        assert measure(options=ChainDesignOptions(sinc_orders=(5, 4, 6))) == 5
        assert measure(samples=512) == 6

    def test_returned_activity_and_rtl_belong_to_the_caller(self,
                                                            paper_chain):
        from dataclasses import FrozenInstanceError

        from repro.hardware import SynthesisFlow, generate_chain_rtl

        store = ArtifactStore()
        first = SynthesisFlow().run(paper_chain, activity_samples=256,
                                    artifacts=store)
        activity = dict(first.metadata["measured_activity"])
        first.metadata["measured_activity"].clear()
        first.rtl.clear()
        second = SynthesisFlow().run(paper_chain, activity_samples=256,
                                     artifacts=store)
        assert (store.hits, store.misses) == (2, 2)
        assert activity and second.metadata["measured_activity"] == activity
        assert second.rtl == generate_chain_rtl(paper_chain)
        for module in second.rtl.values():
            with pytest.raises(FrozenInstanceError):
                module.code = ""
            with pytest.raises(TypeError):
                module.resources["adders"] = 0
            with pytest.raises(AttributeError):
                module.ports.append("scan_en")
        # Pickling (the pool ships stores to workers) and deep copies keep
        # the module equal and still read-only.
        import copy
        import pickle

        for clone in (pickle.loads(pickle.dumps(second.rtl)),
                      copy.deepcopy(second.rtl)):
            assert clone == second.rtl
            with pytest.raises(TypeError):
                next(iter(clone.values())).resources["adders"] = 0
        assert second.rtl == generate_chain_rtl(paper_chain)

    def test_snr_leg_runs_once_per_chain_and_stimulus(self, paper_chain,
                                                      monkeypatch):
        from repro.core.chain import DecimationChain
        from repro.core.verification import simulated_output_snr

        fresh = simulated_output_snr(paper_chain, n_samples=2048)
        calls = []
        real = DecimationChain.process_fixed

        def counting(self, *args, **kwargs):
            calls.append(1)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(DecimationChain, "process_fixed", counting)
        store = ArtifactStore()
        for _ in range(2):
            assert simulated_output_snr(paper_chain, n_samples=2048,
                                        artifacts=store) == fresh
        assert len(calls) == 1
        simulated_output_snr(paper_chain, n_samples=4096, artifacts=store)
        simulated_output_snr(paper_chain, n_samples=2048, amplitude=0.5,
                             artifacts=store)
        simulated_output_snr(paper_chain, n_samples=2048, seed_phase=0.5,
                             artifacts=store)
        assert len(calls) == 4
        assert len(_stage_keys(store, "snr-leg")) == 4

    def test_content_key_tracks_the_coefficients(self, paper_chain):
        import numpy as np

        from repro.core.chain import DecimationChain

        assert DecimationChain.design().content_key() == \
            paper_chain.content_key()
        deltas = np.zeros(len(paper_chain.equalizer.taps))
        deltas[0] = 1
        dithered = paper_chain.with_stages(
            equalizer=paper_chain.equalizer.with_tap_deltas(deltas))
        assert dithered.content_key() != paper_chain.content_key()
