"""Concurrency & crash-consistency tests for the artifact store & daemon.

Drives the reusable harness in :mod:`tests.faultutils` against
:class:`repro.explore.store.ArtifactCAS`: racing writer processes and
threads on overlapping key sets, writers SIGKILLed between temp-write and
atomic rename, corrupted published entries, and concurrent real sweeps
sharing one store — asserting the contract the store documents: zero lost
or torn records, orphans only ever temp files, corrupt entries miss and
heal.

PR 8 turns the same guns on the serve daemon: a real ``repro serve``
subprocess is SIGKILLed mid-request (no torn CAS entries; a restart on
the same cache serves byte-identical warm results), SIGTERMed
mid-coalesce (surviving waiters still get their responses, exit 0),
attacked with slow-loris half-requests and mid-flight disconnects (the
daemon keeps serving, and an unterminated line is never answered —
even across a drain).
"""

import json
import signal

import pytest

import faultutils
from serveutils import wait_until
from repro.explore import SweepSpec, run_sweep, sweep_report_json
from repro.explore.store import ArtifactCAS
from repro.serve.protocol import encode_line

#: Store kinds the fixture-driven invariants below run against: the one
#: local directory store.
BACKENDS = ("local",)


@pytest.fixture(params=BACKENDS)
def any_cas(request, tmp_path):
    """One ArtifactCAS per store kind (see :data:`BACKENDS`)."""
    return faultutils.make_cas(request.param, tmp_path)


class TestCorruptEntriesMissAndHeal:
    @pytest.mark.parametrize("mode", faultutils.CORRUPTION_MODES)
    def test_corrupt_entry_misses_then_heals(self, any_cas, mode):
        cas = any_cas
        key = "ab" + "1" * 62
        cas.put(key, {"v": 1})
        faultutils.corrupt_entry(cas, key, mode)
        # The damaged entry is a miss, never an exception or wrong data.
        assert cas.get(key) is None
        # diff still reports it present (existence-only) ...
        assert cas.diff([key]) == []
        # ... and the next put heals it.
        cas.put(key, {"v": 1})
        assert cas.get(key) == {"v": 1}

    @pytest.mark.parametrize("mode", faultutils.CORRUPTION_MODES)
    def test_corrupt_entry_is_reclaimable(self, any_cas, mode):
        cas = any_cas
        key = "cd" + "2" * 62
        cas.put(key, {"v": 2})
        faultutils.corrupt_entry(cas, key, mode)
        assert cas.stats()["stale_entries"] == 1
        assert cas.prune() == 1
        assert cas.diff([key]) == [key]  # healed back to honest-missing


class TestKilledWriters:
    def test_kill_between_tmp_and_rename_leaves_only_an_orphan(self, tmp_path):
        root = tmp_path / "store"
        cas = ArtifactCAS(root)
        published_key = "ef" + "3" * 62
        cas.put(published_key, {"v": 3})
        victim_key = "ef" + "4" * 62

        orphan = faultutils.kill_between_tmp_and_rename(
            root, victim_key, {"v": 4})

        # The dead writer's key was never published ...
        assert cas.get(victim_key) is None
        assert cas.diff([victim_key]) == [victim_key]
        # ... the neighbouring published entry is untouched ...
        assert cas.get(published_key) == {"v": 3}
        # ... and the only debris is the orphaned temp file, which stats
        # reports and prune reclaims once past the grace window.
        assert orphan.name.endswith(".tmp")
        stats = cas.stats()
        assert stats["tmp_files"] == 1
        assert stats["entries"] == 1
        assert cas.prune(tmp_grace_s=0.0) == 1
        assert not orphan.exists()
        assert cas.stats()["tmp_files"] == 0

    def test_kill_does_not_clobber_existing_entry(self, tmp_path):
        """A writer killed while re-publishing an existing key leaves the
        published entry fully readable (rename never happened)."""
        root = tmp_path / "store"
        cas = ArtifactCAS(root)
        key = "0a" + "5" * 62
        cas.put(key, {"v": 5})
        before = cas.path_for(key).read_bytes()
        faultutils.kill_between_tmp_and_rename(root, key, {"v": 5})
        assert cas.path_for(key).read_bytes() == before
        assert cas.get(key) == {"v": 5}


class TestRacingWriters:
    def test_overlapping_writers_lose_nothing(self, tmp_path):
        """N forked processes hammer one store with overlapping key sets;
        every read during and after the race returns the exact record."""
        shared = [f"{i:02x}{'a' * 62}" for i in range(8)]
        key_sets = [
            shared[0:5],          # writers 1 & 2 overlap on keys 2..4
            shared[2:7],          # writers 2 & 3 overlap on keys 4..6
            shared[4:8] + shared[0:2],  # wraps around: races with both
        ]
        violations = faultutils.race_writers(tmp_path, key_sets, rounds=15)
        assert violations == []
        # Post-race: every key readable, content exact, no temp debris.
        cas = ArtifactCAS(tmp_path)
        for key in shared:
            assert cas.get(key) == faultutils.expected_record(key)
        stats = cas.stats()
        assert stats["entries"] == len(shared)
        assert stats["stale_entries"] == 0
        assert stats["tmp_files"] == 0

    def test_race_survivor_bytes_are_canonical(self, tmp_path):
        """Whichever writer wins the final rename, the on-disk bytes equal
        a serial put of the same record — last-writer-wins is unobservable."""
        key = "9c" + "b" * 62
        violations = faultutils.race_writers(
            tmp_path, [[key]] * 4, rounds=10)
        assert violations == []
        raced = ArtifactCAS(tmp_path).path_for(key).read_bytes()
        serial_root = tmp_path / "serial"
        serial = ArtifactCAS(serial_root)
        serial.put(key, faultutils.expected_record(key))
        assert raced == serial.path_for(key).read_bytes()


class TestRacingThreadWriters:
    @pytest.mark.parametrize("kind", BACKENDS)
    def test_overlapping_thread_writers_lose_nothing(self, tmp_path, kind):
        """Threaded writers hammer one store with overlapping key sets;
        every read during and after the race returns the exact record."""
        cas = faultutils.make_cas(kind, tmp_path)
        shared = [f"{i:02x}{'d' * 62}" for i in range(6)]
        key_sets = [shared[0:4], shared[2:6], shared[4:6] + shared[0:2]]
        violations = faultutils.race_thread_writers(cas, key_sets, rounds=10)
        assert violations == []
        for key in shared:
            assert cas.get(key) == faultutils.expected_record(key)
        stats = cas.stats()
        assert stats["entries"] == len(shared)
        assert stats["stale_entries"] == 0
        assert stats["tmp_files"] == 0


class TestRacingSweeps:
    def test_overlapping_sweeps_share_one_store(self, tmp_path):
        """Concurrent real sweeps over overlapping grids race on the shared
        points' keys; afterwards a warm union run over the same store is
        byte-identical to a fresh serial run."""
        store = tmp_path / "store"
        errors = faultutils.race_sweeps(
            store, grids=[(12, 14), (14, 16)])
        assert errors == []

        union = SweepSpec(output_bits=(12, 14, 16))
        warm = run_sweep(union, jobs=1, cache_dir=store)
        assert warm.cache_hits == 3  # every point came from the raced store
        fresh = run_sweep(union, jobs=1,
                          cache_dir=tmp_path / "fresh-store")
        assert sweep_report_json(warm) == sweep_report_json(fresh)

    def test_raced_store_entries_are_valid(self, tmp_path):
        store = tmp_path / "store"
        errors = faultutils.race_sweeps(store, grids=[(12,), (12,)])
        assert errors == []
        cas = ArtifactCAS(store)
        stats = cas.stats()
        assert stats["entries"] == 1
        assert stats["stale_entries"] == 0
        assert stats["tmp_files"] == 0
        (key,) = cas.keys()
        record = cas.get(key)
        assert record is not None
        # The record is complete canonical JSON (a torn write would have
        # failed json parsing long before this assert).
        assert json.dumps(record, sort_keys=True)


class TestServeDaemonFaults:
    """Real signals against a real ``repro serve`` subprocess."""

    #: A cheap, fully deterministic request (``--quiet`` drops the
    #: timing line) used for byte-identity across restarts.
    SWEEP_WARM = ["--output-bits", "12", "14", "--snr",
                  "--snr-samples", "2048", "--quiet"]
    #: A request held in flight: it computes, then blocks writing its
    #: report into a :class:`faultutils.HeldReport` pipe until released.
    SWEEP_HELD = ["--output-bits", "12", "--snr", "--snr-samples", "2048",
                  "--quiet", "--json"]

    def _fire(self, daemon, request_id, args):
        """Send one sweep request without waiting for its response."""
        client = daemon.client(timeout=120)
        client.send_raw(encode_line(
            {"id": request_id, "verb": "sweep",
             "args": list(args)}).encode("utf-8"))
        return client

    @staticmethod
    def _inflight(daemon):
        return daemon.request("health")["health"]["inflight"]

    def test_sigkill_mid_request_tears_nothing_and_restart_is_warm(
            self, tmp_path):
        cache = tmp_path / "cache"
        held = faultutils.HeldReport(tmp_path)
        with faultutils.ServeDaemon(cache_dir=cache, jobs=2) as daemon:
            cold = daemon.request("sweep", self.SWEEP_WARM, timeout=120)
            assert cold["exit_code"] == 0
            before = daemon.request("sweep", self.SWEEP_WARM, timeout=120)
            assert before["exit_code"] == 0
            assert before["stdout"] == cold["stdout"]  # warm == cold result

            # A different (held) request is mid-flight when SIGKILL lands.
            victim = self._fire(daemon, "victim",
                                self.SWEEP_HELD + [str(held.path)])
            wait_until(lambda: self._inflight(daemon) == 1,
                       message="the held request in flight")
            daemon.sigkill()
            assert daemon.wait(30) == -signal.SIGKILL
            # The in-flight response is *lost*, never torn: EOF, no bytes.
            assert victim.read_response_line() == b""
            victim.close()

        # Every published cache entry survived the crash intact.
        assert faultutils.assert_cas_integrity(cache) >= 2

        # A restarted daemon on the same cache serves the exact result
        # bytes, fully from cache (the stderr progress line carries wall
        # clock, so the result contract is stdout + cached-ness).
        with faultutils.ServeDaemon(cache_dir=cache, jobs=2) as daemon:
            after = daemon.request("sweep", self.SWEEP_WARM, timeout=120)
            assert after["exit_code"] == 0
            assert after["stdout"] == before["stdout"]
            assert "2 cached, 0 executed" in after["stderr"]

    def test_sigterm_mid_coalesce_answers_survivors_and_exits_zero(
            self, tmp_path):
        cache = tmp_path / "cache"
        held = faultutils.HeldReport(tmp_path)
        with faultutils.ServeDaemon(cache_dir=cache, jobs=2,
                                    drain_grace_s=60.0) as daemon:
            # Two clients coalesced on one held computation...
            waiters = [self._fire(daemon, i, self.SWEEP_HELD + [str(held.path)])
                       for i in range(2)]
            wait_until(lambda: daemon.request("stats")["stats"]["coalesce"][
                "coalesced"] == 1, message="the second client to coalesce")
            # ...when the drain signal arrives mid-flight.
            with daemon.client() as monitor:
                daemon.sigterm()
                wait_until(lambda: monitor.request("health")["health"][
                    "status"] == "draining", message="the daemon to drain")
            assert held.release()
            responses = [json.loads(w.read_response_line())
                         for w in waiters]
            for index, response in enumerate(responses):
                assert response["id"] == index
                assert response["exit_code"] == 0
                assert response["stdout"]
            assert len({r["stdout"] for r in responses}) == 1
            assert daemon.wait(90) == 0
            for waiter in waiters:
                waiter.close()
        faultutils.assert_cas_integrity(cache)

    def test_slow_loris_blocks_neither_service_nor_drain(self, tmp_path):
        with faultutils.ServeDaemon(jobs=1) as daemon:
            loris = faultutils.send_partial_request(daemon.address)
            # The daemon keeps serving everyone else...
            for _ in range(3):
                assert daemon.request("ping")["ok"] is True
            # ...and drains out from under the parked half-request.
            daemon.sigterm()
            assert daemon.wait(30) == 0
            # An unterminated line is never answered, drain or no drain.
            assert loris.read_response_line() == b""
            loris.close()

    def test_disconnects_under_load_leave_the_daemon_serving(self,
                                                             tmp_path):
        cache = tmp_path / "cache"
        with faultutils.ServeDaemon(cache_dir=cache, jobs=2) as daemon:
            # A herd of clients rips its connections out mid-flight.
            held = faultutils.HeldReport(tmp_path)
            for index in range(4):
                self._fire(daemon, index,
                           self.SWEEP_HELD + [str(held.path)]).close()
            wait_until(lambda: self._inflight(daemon) == 1,
                       message="the held request in flight")
            assert daemon.request("ping")["ok"] is True
            done = daemon.request("sweep", self.SWEEP_WARM, timeout=120)
            assert done["exit_code"] == 0
            assert held.release()
            daemon.sigterm()
            assert daemon.wait(90) == 0
        faultutils.assert_cas_integrity(cache)
