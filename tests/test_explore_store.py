"""Tests for the content-addressed artifact store (repro.explore.store).

Covers the basic get/put/clear contract, the sharded key layout (the only
one the store reads), the index-free grid diff, the schema-version
contract, writer temp-file hygiene, the single-pass ``stats``/``prune``
maintenance path and ``open_store``'s up-front path checks — plus
property-based
(hypothesis) pinning of the layout round-trip and the diff partition
contract.
"""

import json
import os
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.explore.store import (
    CACHE_SCHEMA_VERSION,
    MAX_VALIDATE_BYTES,
    SHARD_PREFIX_LEN,
    ArtifactCAS,
    LocalDirBackend,
    open_store,
)

KEY = "0f" + "a1" * 31  # a realistic 64-hex-char content hash


class TestArtifactCASBasics:
    def test_miss_on_empty_cache(self, tmp_path):
        cas = ArtifactCAS(tmp_path / "cache")
        assert cas.get("deadbeef") is None
        assert cas.misses == 1
        assert cas.hits == 0

    def test_put_then_get_roundtrip(self, tmp_path):
        cas = ArtifactCAS(tmp_path)
        record = {"summary": {"total_power_mw": 8.97}, "gate_count": 70664}
        cas.put("abc123", record)
        assert cas.get("abc123") == record
        assert cas.hits == 1
        assert cas.misses == 0

    def test_creates_directory_lazily_on_first_write(self, tmp_path):
        target = tmp_path / "nested" / "cache"
        cas = ArtifactCAS(target)
        assert not target.exists()  # opening a store has no side effects
        cas.put("abc123", {"x": 1})
        assert target.is_dir()

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cas = ArtifactCAS(tmp_path)
        cas.path_for("bad").write_text("{not json", encoding="utf-8")
        assert cas.get("bad") is None
        assert cas.misses == 1

    def test_clear_removes_entries(self, tmp_path):
        cas = ArtifactCAS(tmp_path)
        cas.put("a", {"x": 1})
        cas.put("b", {"x": 2})
        assert len(cas) == 2
        assert cas.clear() == 2
        assert len(cas) == 0
        assert cas.get("a") is None

    def test_put_overwrites(self, tmp_path):
        cas = ArtifactCAS(tmp_path)
        cas.put("k", {"v": 1})
        cas.put("k", {"v": 2})
        assert cas.get("k") == {"v": 2}

    def test_schema_mismatch_is_a_miss(self, tmp_path):
        cas = ArtifactCAS(tmp_path)
        entry = {"schema": CACHE_SCHEMA_VERSION + 1, "key": "k", "record": {}}
        cas.path_for("k").write_text(json.dumps(entry), encoding="utf-8")
        assert cas.get("k") is None
        assert cas.misses == 1

    def test_no_tmp_files_left_behind(self, tmp_path):
        cas = ArtifactCAS(tmp_path)
        cas.put("k", {"v": 1})
        assert cas.get("k") == {"v": 1}
        assert list(tmp_path.rglob("*.tmp")) == []


class TestShardedLayout:
    def test_entry_lands_in_two_level_shard_dir(self, tmp_path):
        cas = ArtifactCAS(tmp_path)
        cas.put(KEY, {"v": 1})
        expected = tmp_path / KEY[:SHARD_PREFIX_LEN] / f"{KEY[SHARD_PREFIX_LEN:]}.json"
        assert expected.is_file()
        assert cas.get(KEY) == {"v": 1}

    def test_path_for_matches_published_location(self, tmp_path):
        cas = ArtifactCAS(tmp_path)
        cas.put(KEY, {"v": 2})
        assert cas.path_for(KEY).read_bytes()  # exists and non-empty

    def test_root_directory_stays_listable(self, tmp_path):
        """The root holds at most 256 shard directories, never entries."""
        cas = ArtifactCAS(tmp_path)
        for i in range(32):
            cas.put(f"{i:02x}{'0' * 62}", {"i": i})
        top = [p.name for p in tmp_path.iterdir()]
        assert all((tmp_path / name).is_dir() for name in top)
        assert len(cas) == 32

    def test_key_of_inverts_rel_for(self):
        assert ArtifactCAS.key_of(ArtifactCAS._rel_for(KEY)) == KEY
        assert ArtifactCAS.key_of("ab/cd.json") == "abcd"
        assert ArtifactCAS.key_of("k.json") == "k"  # short keys stay flat
        assert ArtifactCAS.key_of("flat.json") is None  # lives at fl/at.json
        assert ArtifactCAS.key_of(f"{KEY}.json") is None
        assert ArtifactCAS.key_of("ab/.json") is None
        assert ArtifactCAS.key_of("ab/cd.tmp") is None
        assert ArtifactCAS.key_of("a/b/c.json") is None

class TestDiff:
    def test_diff_reports_missing_in_input_order(self, tmp_path):
        cas = ArtifactCAS(tmp_path)
        keys = [f"{i:02x}{'b' * 62}" for i in range(6)]
        for key in keys[::2]:
            cas.put(key, {"k": key})
        assert cas.diff(keys) == keys[1::2]

    def test_diff_is_existence_only(self, tmp_path):
        """diff never reads or validates: a corrupt entry still counts as
        present (get() heals it later as a miss)."""
        cas = ArtifactCAS(tmp_path)
        cas.path_for(KEY).write_text("corrupt", encoding="utf-8")
        assert cas.diff([KEY]) == []
        assert cas.get(KEY) is None

    def test_diff_keeps_duplicates_and_order(self, tmp_path):
        cas = ArtifactCAS(tmp_path)
        present = "ab" + "a" * 62
        missing = "cd" + "b" * 62
        cas.put(present, {"v": 1})
        assert cas.diff([missing, present, missing]) == [missing, missing]

    def test_diff_is_one_existence_probe_per_key(self, tmp_path):
        cas, backend = _counting_cas(tmp_path)
        keys = [f"{i:02x}{'b' * 62}" for i in range(3)]
        assert cas.diff(keys) == keys
        assert backend.calls == [("exists", ArtifactCAS._rel_for(key))
                                 for key in keys]


def _write_flat(root, key, record):
    """A valid entry at the pre-shard flat name ``<root>/<key>.json``."""
    entry = {"schema": CACHE_SCHEMA_VERSION, "key": key, "record": record}
    path = root / f"{key}.json"
    path.write_text(json.dumps(entry, sort_keys=True))
    return path


def _counting_cas(root):
    """A store over :class:`CountingBackend`: ``(cas, backend)``."""
    cas = ArtifactCAS(root)
    cas.backend = CountingBackend(root)
    return cas, cas.backend


class CountingBackend(LocalDirBackend):
    """A local backend that records every primitive it is asked for."""

    def __init__(self, root):
        super().__init__(root)
        self.calls = []

    def _count(self, name, rel):
        self.calls.append((name, rel))

    def exists(self, rel):
        self._count("exists", rel)
        return super().exists(rel)

    def read_bytes(self, rel):
        self._count("read_bytes", rel)
        return super().read_bytes(rel)

    def write_bytes_atomic(self, rel, data):
        self._count("write_bytes_atomic", rel)
        return super().write_bytes_atomic(rel, data)

    def delete(self, rel):
        self._count("delete", rel)
        return super().delete(rel)


class TestOneLayout:
    """The sharded layout is the only one the store reads or writes."""

    def test_flat_entry_misses_is_unlisted_stale_and_pruned(self, tmp_path):
        flat = _write_flat(tmp_path, KEY, {"flat": True})
        cas = ArtifactCAS(tmp_path)
        assert cas.get(KEY) is None
        assert cas.misses == 1
        assert KEY not in cas
        assert cas.diff([KEY]) == [KEY]
        assert cas.keys() == []
        assert len(cas) == 0
        stats = cas.stats()
        assert stats["entries"] == 1
        assert stats["stale_entries"] == 1
        assert cas.prune() == 1
        assert not flat.exists()

    def test_put_beside_a_flat_entry_leaves_it_for_prune(self, tmp_path):
        flat = _write_flat(tmp_path, KEY, {"old": 1})
        cas = ArtifactCAS(tmp_path)
        cas.put(KEY, {"new": 2})
        assert cas.get(KEY) == {"new": 2}
        assert cas.keys() == [KEY]
        assert flat.exists()
        assert cas.prune() == 1
        assert not flat.exists()
        assert cas.get(KEY) == {"new": 2}

    def test_local_put_is_one_atomic_write(self, tmp_path):
        cas, backend = _counting_cas(tmp_path)
        cas.put(KEY, {"v": 1})
        assert backend.calls == [("write_bytes_atomic",
                                  ArtifactCAS._rel_for(KEY))]

    def test_short_keys_stay_flat_and_are_listed(self, tmp_path):
        """Keys no longer than the shard prefix live at the root, and are
        records there, not stale files."""
        cas = ArtifactCAS(tmp_path)
        cas.put("k", {"v": 1})
        assert (tmp_path / "k.json").is_file()
        assert cas.keys() == ["k"]
        assert cas.stats()["stale_entries"] == 0
        assert cas.prune() == 0
        assert cas.get("k") == {"v": 1}

    def test_local_miss_is_one_read(self, tmp_path):
        cas, backend = _counting_cas(tmp_path)
        assert cas.get(KEY) is None
        assert backend.calls == [("read_bytes", ArtifactCAS._rel_for(KEY))]
        backend.calls.clear()
        assert not cas.contains(KEY)
        assert backend.calls == [("exists", ArtifactCAS._rel_for(KEY))]


class TestSchemaVersionContract:
    """Bump rules: entries written under any other schema version always
    miss; put() always stamps the current version."""

    @pytest.mark.parametrize("delta", [-1, 1, 1000])
    def test_other_schema_versions_always_miss(self, tmp_path, delta):
        cas = ArtifactCAS(tmp_path)
        entry = {"schema": CACHE_SCHEMA_VERSION + delta, "key": KEY,
                 "record": {"v": 1}}
        cas.path_for(KEY).write_text(json.dumps(entry))
        assert cas.get(KEY) is None

    def test_put_stamps_current_schema(self, tmp_path):
        cas = ArtifactCAS(tmp_path)
        cas.put(KEY, {"v": 1})
        entry = json.loads(cas.path_for(KEY).read_text())
        assert entry["schema"] == CACHE_SCHEMA_VERSION
        assert entry["key"] == KEY

    def test_missing_schema_field_misses(self, tmp_path):
        cas = ArtifactCAS(tmp_path)
        cas.path_for(KEY).write_text(json.dumps({"record": {"v": 1}}))
        assert cas.get(KEY) is None

    def test_schema_version_is_pinned(self):
        """Changing the version is a deliberate act: this pin forces the
        accompanying migration/bump-rule review (see docs/CACHING.md)."""
        assert CACHE_SCHEMA_VERSION == 3


class TestWriterTempHygiene:
    def test_concurrent_writers_use_distinct_tmp_names(self, tmp_path,
                                                       monkeypatch):
        """Two in-flight writers of one key never share a temp path (the
        pre-CAS `.tmp` suffix collision)."""
        import repro.explore.store as store_mod

        seen = []
        real_replace = os.replace

        def recording_replace(src, dst):
            seen.append(str(src))
            real_replace(src, dst)

        monkeypatch.setattr(store_mod.os, "replace", recording_replace)
        cas = ArtifactCAS(tmp_path)
        cas.put(KEY, {"v": 1})
        cas.put(KEY, {"v": 1})
        assert len(seen) == 2 and seen[0] != seen[1]
        assert all(s.endswith(".tmp") for s in seen)

    def test_no_tmp_left_after_put(self, tmp_path):
        cas = ArtifactCAS(tmp_path)
        cas.put(KEY, {"v": 1})
        assert not list(tmp_path.rglob("*.tmp"))

    def test_orphaned_tmp_visible_in_stats_and_pruned(self, tmp_path):
        cas = ArtifactCAS(tmp_path)
        cas.put(KEY, {"v": 1})
        orphan = cas.path_for(KEY).parent / "deadbeef.json.12345.0.tmp"
        orphan.write_bytes(b"half-written")
        stats = cas.stats()
        assert stats["tmp_files"] == 1
        assert stats["tmp_bytes"] == len(b"half-written")
        assert stats["entries"] == 1  # tmp files are not entries
        # Young orphans are spared (could be an in-flight writer)...
        assert cas.prune() == 0
        assert orphan.exists()
        # ...but are reclaimed past the grace window.
        assert cas.prune(tmp_grace_s=0.0) == 1
        assert not orphan.exists()
        assert cas.get(KEY) == {"v": 1}  # entries untouched

    def test_clear_also_removes_tmp_files(self, tmp_path):
        cas = ArtifactCAS(tmp_path)
        cas.put(KEY, {"v": 1})
        (tmp_path / "xx").mkdir(exist_ok=True)
        (tmp_path / "xx" / "a.json.1.2.tmp").write_bytes(b"x")
        assert cas.clear() == 1  # counts entries, cleans tmp too
        assert not list(tmp_path.rglob("*.tmp"))


class TestSinglePassMaintenance:
    def test_stats_reads_each_entry_at_most_once(self, tmp_path,
                                                 monkeypatch):
        cas = ArtifactCAS(tmp_path)
        for i in range(4):
            cas.put(f"{i:02x}{'c' * 62}", {"i": i})
        opened = []
        real_read = LocalDirBackend.read_bytes

        def counting_read(self, rel):
            opened.append(rel)
            return real_read(self, rel)

        monkeypatch.setattr(LocalDirBackend, "read_bytes", counting_read)
        cas.stats()
        assert len(opened) == 4
        assert len(set(opened)) == 4

    def test_oversized_entry_is_stale_without_reading(self, tmp_path,
                                                      monkeypatch):
        cas = ArtifactCAS(tmp_path)
        cas.put(KEY, {"v": 1})
        big = cas.path_for("ff" + "e" * 62)
        with open(big, "wb") as fh:  # sparse: no real multi-GB write
            fh.seek(MAX_VALIDATE_BYTES + 1)
            fh.write(b"\0")

        real_read = LocalDirBackend.read_bytes

        def guarded_read(self, rel):
            if "ff/" in rel:
                raise AssertionError("oversized entry was read")
            return real_read(self, rel)

        monkeypatch.setattr(LocalDirBackend, "read_bytes", guarded_read)
        stats = cas.stats()
        assert stats["stale_entries"] == 1
        assert stats["entries"] == 2
        # prune removes it (again without reading it).
        assert cas.prune() == 1
        assert not big.exists()

    def test_prune_removes_stale_and_keeps_valid(self, tmp_path):
        cas = ArtifactCAS(tmp_path)
        cas.put(KEY, {"v": 1})
        cas.path_for("ab" + "d" * 62).write_text("corrupt")
        entry = {"schema": CACHE_SCHEMA_VERSION + 7, "key": "x",
                 "record": {}}
        cas.path_for("cd" + "e" * 62).write_text(json.dumps(entry))
        assert cas.prune() == 2
        assert cas.get(KEY) == {"v": 1}

    def test_prune_older_than_removes_expired_valid_entries(self, tmp_path):
        cas = ArtifactCAS(tmp_path)
        cas.put(KEY, {"v": 1})
        old = time.time() - 10_000
        os.utime(cas.path_for(KEY), (old, old))
        assert cas.prune(older_than_s=5_000) == 1
        assert len(cas) == 0

    def test_stats_counts_sharded_entries(self, tmp_path):
        cas = ArtifactCAS(tmp_path)
        cas.put(KEY, {"v": 1})
        cas.put("aa" + "f" * 62, {})
        stats = cas.stats()
        assert stats["entries"] == 2
        assert stats["stale_entries"] == 0
        assert cas.keys() == sorted([KEY, "aa" + "f" * 62])


HEX_KEYS = st.text(alphabet="0123456789abcdef", min_size=3, max_size=64)


class TestLayoutProperties:
    @given(key=HEX_KEYS)
    @settings(max_examples=200, deadline=None)
    def test_rel_for_round_trips_through_key_of(self, key):
        rel = ArtifactCAS._rel_for(key)
        assert ArtifactCAS.key_of(rel) == key
        prefix, _, rest = rel.partition("/")
        assert prefix == key[:SHARD_PREFIX_LEN]
        assert rest == f"{key[SHARD_PREFIX_LEN:]}.json"

    @given(keys=st.lists(HEX_KEYS, min_size=1, max_size=24, unique=True),
           data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_diff_partitions_the_grid(self, tmp_path_factory, keys, data):
        """store ∪ missing == grid, disjoint, stable order."""
        stored = data.draw(st.sets(st.sampled_from(keys)))
        root = tmp_path_factory.mktemp("cas-prop")
        cas = ArtifactCAS(root)
        for key in stored:
            cas.put(key, {"k": key})
        missing = cas.diff(keys)
        assert missing == [k for k in keys if k not in stored]  # stable order
        assert set(missing).isdisjoint(stored)
        assert set(missing) | stored == set(keys)
        # Round-trip: everything stored is loadable with its own content.
        for key in stored:
            assert cas.get(key) == {"k": key}


class TestOpenStore:
    def test_path_and_file_scheme(self, tmp_path):
        cas = open_store(tmp_path / "dir")
        assert cas.directory == tmp_path / "dir"
        with pytest.raises(ValueError, match="unknown store scheme 'file'"):
            open_store(f"file://{tmp_path}/dir2")

    def test_existing_store_passes_through(self, tmp_path):
        cas = ArtifactCAS(tmp_path)
        assert open_store(cas) is cas

    def test_opening_a_spec_has_no_side_effects(self, tmp_path):
        target = tmp_path / "never-written"
        open_store(target)
        assert not target.exists()

    @pytest.mark.parametrize("spec", ["mem://shared", "s3://bucket/prefix",
                                      "gopher://hole"])
    def test_scheme_specs_are_rejected(self, tmp_path, monkeypatch, spec):
        monkeypatch.chdir(tmp_path)
        scheme = spec.partition("://")[0]
        with pytest.raises(ValueError, match=(
                f"unknown store scheme '{scheme}' in '{spec}': the cache "
                "is a local directory path")):
            open_store(spec)
        assert not list(tmp_path.iterdir())  # no local "mem:" directory

    @pytest.mark.parametrize("below", ["", "sub", "sub/dir"])
    def test_paths_into_an_existing_file_are_rejected(self, tmp_path, below):
        afile = tmp_path / "afile"
        afile.write_text("not a store")
        spec = afile / below if below else afile
        with pytest.raises(ValueError) as excinfo:
            open_store(spec)
        assert str(excinfo.value) == (f"cache directory {spec} is not usable: "
                                      f"{afile} exists and is not a directory")
        assert afile.read_text() == "not a store"
