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

    def test_storeless_flow_runs_every_stage_through_the_store(
            self, monkeypatch):
        from repro.flow import run_design_flow

        stages = Counter()
        original = ArtifactStore.get_or_compute

        def counting(self, key, *args, **kwargs):
            stages[key[0]] += 1
            return original(self, key, *args, **kwargs)

        monkeypatch.setattr(ArtifactStore, "get_or_compute", counting)
        run_design_flow(measure_activity=False)
        assert stages["halfband-design"] >= 1
        assert stages["equalizer-design"] == 1
        assert stages["verify-mask"] == 1
