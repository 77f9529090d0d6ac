"""Tests for store-to-store record exchange (repro.explore.transfer).

Unit coverage of :func:`transfer_records` (filters, dry-run, resume,
summary line) plus the PR-9 acceptance pins:

* ``run_sweep(resume=True)`` against a latency-injected
  ``FakeObjectStore`` issues **batched** probes — O(LIST pages), zero
  per-grid-point HEAD round trips (call-count pinned).
* a push → pull round trip between two stores reproduces every record
  byte-identically, and an idempotent re-push transfers zero records.

The hypothesis section pins the push/pull algebra over both backends
for arbitrary key sets: round-trip byte-identity, idempotence,
disjoint-store merge commutativity, and
``probe_many(keys) == {k: contains(k)}``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import faultutils
from repro.explore import SweepSpec, run_sweep, sweep_report_json
from repro.explore.store import (
    ArtifactCAS,
    FakeObjectStore,
    ObjectStoreBackend,
)
from repro.explore.transfer import TransferSummary, transfer_records

HEX_KEYS = st.text(alphabet="0123456789abcdef", min_size=3, max_size=64)
RECORDS = st.dictionaries(st.text(min_size=1, max_size=6),
                          st.integers(min_value=-10**6, max_value=10**6),
                          max_size=4)


def _seeded(cas, keys):
    """Publish a deterministic record per key; returns the store."""
    for key in keys:
        cas.put(key, faultutils.expected_record(key))
    return cas


class TestTransferRecords:
    def test_push_then_repush_is_idempotent(self, tmp_path):
        src = _seeded(ArtifactCAS(tmp_path / "src"),
                      [f"{i:02x}{'a' * 62}" for i in range(4)])
        first = transfer_records(src, tmp_path / "dst")
        assert (first.transferred, first.skipped) == (4, 0)
        assert first.transferred_bytes > 0
        again = transfer_records(src, tmp_path / "dst")
        assert (again.transferred, again.skipped) == (0, 4)
        assert again.transferred_bytes == 0

    def test_round_trip_is_byte_identical(self, tmp_path):
        keys = [f"{i:02x}{'b' * 62}" for i in range(3)]
        src = _seeded(ArtifactCAS(tmp_path / "src"), keys)
        remote = faultutils.object_store_cas()
        transfer_records(src, remote)            # push up
        back = ArtifactCAS(tmp_path / "back")
        transfer_records(remote, back)           # pull down elsewhere
        for key in keys:
            assert back.get_raw(key) == src.get_raw(key)
            assert back.get(key) == faultutils.expected_record(key)

    def test_match_filters_keys(self, tmp_path):
        src = _seeded(ArtifactCAS(tmp_path / "src"),
                      ["ab" + "1" * 62, "ab" + "2" * 62, "cd" + "3" * 62])
        summary = transfer_records(src, tmp_path / "dst", match="ab*")
        assert summary.transferred == 2
        assert summary.filtered == 1
        dst = ArtifactCAS(tmp_path / "dst")
        assert all(key.startswith("ab") for key in dst.keys())

    def test_dry_run_mutates_nothing(self, tmp_path):
        src = _seeded(ArtifactCAS(tmp_path / "src"), ["ab" + "4" * 62])
        dst = faultutils.object_store_cas()
        summary = transfer_records(src, dst, dry_run=True)
        assert summary.transferred == 1
        assert summary.dry_run is True
        assert dst.keys() == []
        assert dst.backend.client.calls["put"] == 0

    def test_interrupted_transfer_resumes(self, tmp_path):
        """A destination already holding part of the set (the state a
        killed transfer leaves) only receives the remainder."""
        keys = [f"{i:02x}{'c' * 62}" for i in range(6)]
        src = _seeded(ArtifactCAS(tmp_path / "src"), keys)
        dst = ArtifactCAS(tmp_path / "dst")
        for key in keys[:2]:  # the interrupted first attempt got this far
            dst.put_raw(key, src.get_raw(key))
        summary = transfer_records(src, dst)
        assert summary.transferred == 4
        assert summary.skipped == 2
        assert dst.keys() == sorted(keys)

    def test_flat_layout_files_are_not_pushed(self, tmp_path):
        """A root-level ``<key>.json`` from the pre-shard layout is no
        record of the store, so a push leaves it behind."""
        keys = [f"{i:02x}{'d' * 62}" for i in range(2)]
        src = _seeded(ArtifactCAS(tmp_path / "src"), keys)
        flat = "ee" + "d" * 62
        (tmp_path / "src" / f"{flat}.json").write_bytes(
            src.get_raw(keys[0]))
        summary = transfer_records(src, tmp_path / "dst")
        assert summary.transferred == 2
        assert ArtifactCAS(tmp_path / "dst").keys() == keys

    def test_missing_source_raises_value_error(self, tmp_path):
        with pytest.raises(ValueError, match="store not found"):
            transfer_records(tmp_path / "nope", tmp_path / "dst")

    def test_summary_line_format(self):
        summary = TransferSummary(source="/a", destination="mem://b",
                                  considered=6, filtered=2, skipped=1,
                                  transferred=3, transferred_bytes=1432,
                                  dry_run=False)
        assert summary.line("push") == (
            "Pushed 3 record(s) (1432 bytes) from /a to mem://b; "
            "1 already present, 2 filtered out")
        assert summary.line("pull").startswith("Pulled 3 record(s)")
        dry = TransferSummary(source="/a", destination="/b", considered=1,
                              filtered=0, skipped=0, transferred=1,
                              transferred_bytes=10, dry_run=True)
        assert dry.line("push").startswith("Would push 1 record(s)")

    def test_probes_destination_in_one_batch(self, tmp_path):
        """The destination diff rides probe_many: zero per-key HEADs."""
        src = _seeded(ArtifactCAS(tmp_path / "src"),
                      [f"{i:02x}{'d' * 62}" for i in range(8)])
        dst = faultutils.object_store_cas(page_size=4)
        transfer_records(src, dst)
        calls = dst.backend.client.calls
        assert calls["head"] == 0
        assert calls["put"] == 8


class TestResumeOnObjectStore:
    """The PR-9 acceptance pin: resume cost is O(pages), not O(grid)."""

    GRID = SweepSpec(output_bits=(12, 14, 16))

    def test_resume_issues_batched_probes(self):
        cas = faultutils.object_store_cas(latency_s=0.001, page_size=2)
        client = cas.backend.client
        cold = run_sweep(self.GRID, jobs=1, cache_dir=cas)
        assert cold.cache_hits == 0

        client.calls.clear()
        warm = run_sweep(self.GRID, jobs=1, cache_dir=cas)
        assert warm.cache_hits == 3
        # The 3-point grid resolves its diff through paginated LISTs
        # (3 entries at page_size 2 -> 2 pages), with zero per-point
        # HEAD probes and zero writes...
        assert client.calls["head"] == 0
        assert client.calls["list"] == 2
        assert client.calls["put"] == 0
        # ...and exactly one GET per cached record.
        assert client.calls["get"] == 3
        assert sweep_report_json(warm) == sweep_report_json(cold)

    def test_sharded_stores_push_into_one_and_resume_warm(self, tmp_path):
        """Two hosts sweep disjoint shards into their own stores; pushing
        both into a third store makes it serve the whole grid warm,
        byte-identically to an unsharded run."""
        store_a = faultutils.object_store_cas(label="mem://host-a")
        store_b = faultutils.object_store_cas(label="mem://host-b")
        run_sweep(self.GRID, jobs=1, cache_dir=store_a, shard=(1, 2))
        run_sweep(self.GRID, jobs=1, cache_dir=store_b, shard=(2, 2))

        merged = ArtifactCAS(tmp_path / "merged")
        pushed = (transfer_records(store_a, merged).transferred
                  + transfer_records(store_b, merged).transferred)
        assert pushed == 3
        # Idempotent re-push: nothing left to move from either shard.
        assert transfer_records(store_a, merged).transferred == 0
        assert transfer_records(store_b, merged).transferred == 0

        warm = run_sweep(self.GRID, jobs=1, cache_dir=merged)
        assert warm.cache_hits == 3
        fresh = run_sweep(self.GRID, jobs=1,
                          cache_dir=tmp_path / "fresh")
        assert sweep_report_json(warm) == sweep_report_json(fresh)


def _backend_pair(kind, tmp_path_factory, tag):
    """A fresh store of the requested backend kind for property tests."""
    if kind == "local":
        return ArtifactCAS(tmp_path_factory.mktemp(f"xfer-{tag}"))
    client = FakeObjectStore()
    return ArtifactCAS(backend=ObjectStoreBackend(client,
                                                  label=f"mem://{tag}"))


BACKEND_KINDS = st.sampled_from(["local", "object"])


class TestTransferProperties:
    @given(keys=st.lists(HEX_KEYS, min_size=0, max_size=12, unique=True),
           records=st.data(), src_kind=BACKEND_KINDS,
           dst_kind=BACKEND_KINDS)
    @settings(max_examples=25, deadline=None)
    def test_push_round_trips_bytes_and_repush_is_idempotent(
            self, tmp_path_factory, keys, records, src_kind, dst_kind):
        src = _backend_pair(src_kind, tmp_path_factory, "src")
        dst = _backend_pair(dst_kind, tmp_path_factory, "dst")
        for key in keys:
            src.put(key, records.draw(RECORDS))
        summary = transfer_records(src, dst)
        assert summary.transferred == len(keys)
        for key in keys:
            assert dst.get_raw(key) == src.get_raw(key)
        again = transfer_records(src, dst)
        assert again.transferred == 0
        assert again.skipped == len(keys)

    @given(left=st.sets(HEX_KEYS, max_size=8),
           right=st.sets(HEX_KEYS, max_size=8), kind=BACKEND_KINDS)
    @settings(max_examples=25, deadline=None)
    def test_disjoint_store_merge_commutes(self, tmp_path_factory,
                                           left, right, kind):
        """Pushing A then B into an empty store equals pushing B then A,
        byte for byte, when A and B hold disjoint key sets."""
        right = right - left
        a = _seeded(_backend_pair(kind, tmp_path_factory, "a"), left)
        b = _seeded(_backend_pair(kind, tmp_path_factory, "b"), right)
        ab = _backend_pair(kind, tmp_path_factory, "ab")
        ba = _backend_pair(kind, tmp_path_factory, "ba")
        transfer_records(a, ab)
        transfer_records(b, ab)
        transfer_records(b, ba)
        transfer_records(a, ba)
        assert ab.keys() == ba.keys() == sorted(left | right)
        for key in left | right:
            assert ab.get_raw(key) == ba.get_raw(key)

    @given(stored=st.sets(HEX_KEYS, max_size=10),
           probed=st.lists(HEX_KEYS, max_size=14), kind=BACKEND_KINDS)
    @settings(max_examples=25, deadline=None)
    def test_probe_many_matches_per_key_probe(self, tmp_path_factory,
                                              stored, probed, kind):
        cas = _seeded(_backend_pair(kind, tmp_path_factory, "probe"),
                      stored)
        assert cas.probe_many(probed) == {k: cas.contains(k)
                                          for k in probed}
