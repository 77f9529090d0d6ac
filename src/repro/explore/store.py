"""Content-addressed artifact store shared by every sweep-shaped workload.

:class:`ArtifactCAS` is the on-disk record store behind the sweep engine,
the scenario suite and the robustness Monte Carlo runs.  Records are keyed
by the SHA-256 content hash of everything that could change them (see
:meth:`repro.explore.sweep.SweepPoint.cache_key`), so the store is
*content-addressed*: a key fully determines its record bytes, and any two
writers of the same key write identical content by construction.

Layout and concurrency contract
-------------------------------
* **Two-level sharded layout** — entry ``<key>`` lives at
  ``<root>/<key[:2]>/<key[2:]>.json`` (256 shard directories), so even
  million-entry stores keep every directory small enough to list cheaply.
* **Concurrent-writer safety** — :meth:`put` writes to a per-writer unique
  temp name (pid + per-process counter) in the entry's shard directory and
  publishes with one atomic ``os.replace``.  Readers never lock: a reader
  sees either no entry or a complete entry, never a torn one.  Racing
  writers of one key are last-writer-wins with identical bytes, so the
  race is unobservable.
* **Crash consistency** — a writer killed between temp-write and rename
  leaves only an orphaned ``*.tmp`` file; the published entry (if any) is
  untouched.  Orphans are visible in :meth:`stats` and reclaimed by
  :meth:`prune` once older than its temp grace window.
* **Miss-and-heal** — corrupt, truncated or schema-mismatched entries
  count as misses; the next :meth:`put` of the key overwrites them.

:class:`LocalDirBackend` is the one filesystem layer under the store: byte
reads, atomic byte publication, existence probes, deletion and a
single-pass scan.  It only relies on POSIX atomic rename within one
directory, so concurrent processes on one machine share a store safely.
``diff`` is index-free — it probes keys instead of listing directories.
:func:`open_store` maps a directory path (or an existing store) to an
:class:`ArtifactCAS` and rejects anything else before any work.

See ``docs/CACHING.md`` for the full layout and workflow description.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Tuple, Union

from repro.obs import trace

__all__ = [
    "ArtifactCAS",
    "LocalDirBackend",
    "open_store",
    "CACHE_SCHEMA_VERSION",
    "SHARD_PREFIX_LEN",
    "MAX_VALIDATE_BYTES",
    "TMP_GRACE_S",
]

#: Bump when the record layout (or the numerics that produce it) changes so
#: stale entries miss instead of deserializing into the wrong shape.
#: Version 2: the halfband zero-phase response switched to a multiplication
#: recurrence (last-ulp different from the old ``pow`` evaluation), which
#: can steer the CSD refinement to different coefficients.  Layout changes
#: (the move to sharded names) do not bump it: record bytes are unchanged,
#: and entries under an older layout simply miss and are recomputed.
#: Version 3: flow records dropped the two summary fields that counted the
#: generated HDL's modules and lines, when the HDL generator was removed.
CACHE_SCHEMA_VERSION = 3

#: Hex characters of the key that name the shard directory (two levels of
#: 16 → 256 shard directories).
SHARD_PREFIX_LEN = 2

#: Validation read cap: entries larger than this are classified stale
#: without reading them, so one corrupt multi-GB file cannot stall
#: ``stats()``/``prune()`` (real records are a few kilobytes).
MAX_VALIDATE_BYTES = 64 * 1024 * 1024

#: Age (seconds) below which ``prune()`` leaves ``*.tmp`` files alone — a
#: live writer publishes within milliseconds, so anything older is an
#: orphan from a killed writer.
TMP_GRACE_S = 3600.0

#: Per-process monotonic counter making concurrent temp names unique even
#: for threads of one process writing the same key.
_TMP_COUNTER = itertools.count()


class LocalDirBackend:
    """Filesystem primitives of the CAS for one local directory.

    The whole backend contract is: byte reads, atomic byte publication
    (unique temp + rename within the destination directory), existence
    probes, deletion and a single-pass scan.

    The root directory is created lazily on first write, so merely
    opening a store (e.g. for a stats probe) leaves the filesystem
    untouched.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    def path(self, rel: str) -> Path:
        """Absolute path of a store-relative file name."""
        return self.root / rel

    def exists(self, rel: str) -> bool:
        """Whether a store-relative file exists (no read, no lock)."""
        return (self.root / rel).is_file()

    def read_bytes(self, rel: str) -> bytes:
        """Raw bytes of a store-relative file (raises ``OSError`` if absent)."""
        return (self.root / rel).read_bytes()

    def write_bytes_atomic(self, rel: str, data: bytes) -> None:
        """Publish ``data`` under ``rel`` atomically.

        Writes to a per-writer unique temp name (pid + per-process counter)
        in the destination directory, then renames over the final name.  A
        writer killed mid-write leaves only its own orphaned temp file.
        """
        path = self.root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / f"{path.name}.{os.getpid()}.{next(_TMP_COUNTER)}.tmp"
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)

    def delete(self, rel: str) -> bool:
        """Remove a store-relative file; ``True`` when something was removed."""
        try:
            (self.root / rel).unlink()
            return True
        except FileNotFoundError:
            return False

    def scan(self) -> Iterator[Tuple[str, os.stat_result]]:
        """Single-pass scan of every file in the store.

        Yields ``(relative_name, stat)`` for the root directory and each
        shard directory, using ``os.scandir`` so each file is stat'ed
        exactly once — ``stats()``/``prune()`` build everything they need
        from this one traversal.
        """
        try:
            top = list(os.scandir(self.root))
        except FileNotFoundError:
            return
        for entry in sorted(top, key=lambda e: e.name):
            if entry.is_file():
                yield entry.name, entry.stat()
            elif entry.is_dir():
                for sub in sorted(os.scandir(entry.path), key=lambda e: e.name):
                    if sub.is_file():
                        yield f"{entry.name}/{sub.name}", sub.stat()


def open_store(spec: Union[str, Path, "ArtifactCAS"]) -> "ArtifactCAS":
    """Open an :class:`ArtifactCAS` on a local directory.

    ``spec`` is a directory path (``str``/``Path``) or an existing
    :class:`ArtifactCAS`, which is returned unchanged.  The directory need
    not exist yet: it is created on first write.  A ``scheme://`` spec or
    a path that runs into an existing non-directory raises a one-line
    ``ValueError`` here, before any work, instead of a late
    ``NotADirectoryError`` from the first write.
    """
    if isinstance(spec, ArtifactCAS):
        return spec
    text = str(spec)
    if "://" in text:
        scheme = text.partition("://")[0]
        raise ValueError(f"unknown store scheme {scheme!r} in {text!r}: "
                         "the cache is a local directory path")
    path = Path(text)
    for candidate in (path, *path.parents):
        if candidate.exists():
            if not candidate.is_dir():
                raise ValueError(f"cache directory {text} is not usable: "
                                 f"{candidate} exists and is not a "
                                 "directory")
            break
    return ArtifactCAS(path)


class ArtifactCAS:
    """Content-addressed, shard-laid-out, concurrent-writer-safe record store.

    Parameters
    ----------
    directory:
        Root directory of the store; created (with parents) on first
        write.

    Attributes
    ----------
    backend:
        The :class:`LocalDirBackend` every file operation goes through.
    hits, misses:
        In-process read telemetry (:meth:`get` calls that returned a
        record / returned ``None``).
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.backend = LocalDirBackend(directory)
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------
    @property
    def directory(self) -> Path:
        """Store root directory."""
        return self.backend.root

    @staticmethod
    def _rel_for(key: str) -> str:
        """Sharded store-relative file name of ``key``."""
        if len(key) <= SHARD_PREFIX_LEN:
            # Degenerate short keys (tests, ad-hoc tags) skip sharding.
            return f"{key}.json"
        return f"{key[:SHARD_PREFIX_LEN]}/{key[SHARD_PREFIX_LEN:]}.json"

    @classmethod
    def key_of(cls, rel: str) -> Optional[str]:
        """Key whose entry lives at a store-relative name — the exact
        inverse of :meth:`_rel_for`.  ``None`` for temp files and any other
        name no :meth:`get` reads (e.g. a root-level ``<long-key>.json``),
        which :meth:`stats` counts as stale and :meth:`prune` removes."""
        if not rel.endswith(".json"):
            return None
        key = rel[:-len(".json")].replace("/", "", 1)
        return key if cls._rel_for(key) == rel else None

    def path_for(self, key: str) -> Path:
        """Path of the (sharded) entry for ``key``, whether or not it
        exists; the shard directory is created so callers can write to it
        directly."""
        path = self.backend.path(self._rel_for(key))
        path.parent.mkdir(parents=True, exist_ok=True)
        return path

    # ------------------------------------------------------------------
    # Read / write
    # ------------------------------------------------------------------
    def contains(self, key: str) -> bool:
        """Whether an entry exists for ``key``.

        Pure existence probe — no read, no validation, no counter update —
        which is what keeps :meth:`diff` index-free.
        """
        return self.backend.exists(self._rel_for(key))

    def __contains__(self, key: str) -> bool:
        return self.contains(key)

    def get(self, key: str) -> Optional[dict]:
        """Load a record, or ``None`` on a miss.

        Corrupt, truncated or schema-mismatched entries count as misses
        (and will be overwritten by the next :meth:`put`).
        """
        with trace.span("cas.get") as span:
            record, nbytes = self._load(self._rel_for(key))
            if record is None:
                self.misses += 1
                span.set(hit=False)
                return None
            self.hits += 1
            span.set(hit=True, bytes=nbytes)
            return record

    def _load(self, rel: str) -> Tuple[Optional[dict], int]:
        """Parse + schema-validate one store-relative entry (no counters);
        returns ``(record, entry_bytes)`` — ``(None, 0)`` on any miss."""
        try:
            data = self.backend.read_bytes(rel)
            entry = json.loads(data)
        except (OSError, ValueError):
            return None, 0
        if not isinstance(entry, dict) or entry.get("schema") != CACHE_SCHEMA_VERSION:
            return None, 0
        return entry.get("record"), len(data)

    def put(self, key: str, record: dict) -> None:
        """Publish a record atomically (unique temp name + rename).

        Safe against concurrent writers of the same key: each writer uses
        its own temp file and the content is identical by construction, so
        whichever rename lands last changes nothing observable.
        """
        entry = {"schema": CACHE_SCHEMA_VERSION, "key": key, "record": record}
        data = json.dumps(entry, sort_keys=True).encode("utf-8")
        with trace.span("cas.put", bytes=len(data)):
            self.backend.write_bytes_atomic(self._rel_for(key), data)

    def delete(self, key: str) -> bool:
        """Remove an entry; ``True`` when one existed."""
        return self.backend.delete(self._rel_for(key))

    # ------------------------------------------------------------------
    # Grid diffing
    # ------------------------------------------------------------------
    def diff(self, keys: Iterable[str]) -> List[str]:
        """The subset of ``keys`` with no published entry, in input order.

        Index-free — each key is probed with :meth:`contains`, not
        inferred from a directory listing.  By construction
        ``set(diff(keys))`` and the present keys partition ``keys``: their
        union is the grid and they are disjoint — the property-based tests
        pin this contract.
        """
        keys = list(keys)
        with trace.span("cas.diff", n_keys=len(keys)) as span:
            missing = [key for key in keys if not self.contains(key)]
            span.set(n_present=len(keys) - len(missing))
            return missing

    # ------------------------------------------------------------------
    # Maintenance (single-pass scan shared by stats and prune)
    # ------------------------------------------------------------------
    def _classify(self, rel: str, stat: os.stat_result,
                  size_guard: int) -> str:
        """One file's role: ``"entry"``, ``"stale"`` or ``"tmp"``.

        Entries are parsed at most once and never re-opened after the
        scan's ``stat`` (the pre-PR-6 store stat'ed then reopened every
        file); entries above ``size_guard`` are stale without any read.
        """
        if rel.endswith(".tmp"):
            return "tmp"
        if self.key_of(rel) is None:
            return "stale"
        if stat.st_size > size_guard:
            return "stale"
        return "entry" if self._load(rel)[0] is not None else "stale"

    def stats(self, size_guard: int = MAX_VALIDATE_BYTES) -> dict:
        """Summary of the on-disk store in one scan pass.

        ``stale_entries`` counts files that are corrupt, oversized (above
        ``size_guard``), carry a schema version other than
        :data:`CACHE_SCHEMA_VERSION` or sit where no key's entry lives
        (e.g. a root-level ``<key>.json`` from the pre-shard flat layout);
        ``tmp_files``/``tmp_bytes`` count
        orphaned temp files left by killed writers.  Both populations
        always miss and are reclaimable with :meth:`prune`.
        """
        entries = 0
        total_bytes = 0
        stale = 0
        tmp_files = 0
        tmp_bytes = 0
        oldest: Optional[float] = None
        newest: Optional[float] = None
        for rel, stat in self.backend.scan():
            kind = self._classify(rel, stat, size_guard)
            if kind == "tmp":
                tmp_files += 1
                tmp_bytes += stat.st_size
                continue
            entries += 1
            total_bytes += stat.st_size
            oldest = stat.st_mtime if oldest is None else min(oldest, stat.st_mtime)
            newest = stat.st_mtime if newest is None else max(newest, stat.st_mtime)
            if kind == "stale":
                stale += 1
        return {
            "directory": str(self.directory),
            "schema": CACHE_SCHEMA_VERSION,
            "entries": entries,
            "total_bytes": total_bytes,
            "stale_entries": stale,
            "tmp_files": tmp_files,
            "tmp_bytes": tmp_bytes,
            "oldest_mtime": oldest,
            "newest_mtime": newest,
        }

    def prune(self, older_than_s: Optional[float] = None,
              everything: bool = False,
              tmp_grace_s: float = TMP_GRACE_S,
              size_guard: int = MAX_VALIDATE_BYTES) -> int:
        """Remove reclaimable files in one scan pass; returns the count.

        Always removes corrupt, oversized, schema-mismatched and misplaced
        files (they can never hit) plus orphaned ``*.tmp`` files older than
        ``tmp_grace_s`` (live writers publish within milliseconds, so the
        default one-hour grace only spares genuinely in-flight temps).
        ``older_than_s`` additionally removes valid entries whose file is
        older than that many seconds; ``everything=True`` empties the
        store (same as :meth:`clear`).
        """
        if everything:
            return self.clear()
        now = time.time()
        removed = 0
        for rel, stat in self.backend.scan():
            kind = self._classify(rel, stat, size_guard)
            if kind == "tmp":
                reclaim = now - stat.st_mtime > tmp_grace_s
            elif kind == "stale":
                reclaim = True
            else:
                reclaim = (older_than_s is not None
                           and now - stat.st_mtime > older_than_s)
            if reclaim and self.backend.delete(rel):
                removed += 1
        return removed

    def clear(self) -> int:
        """Delete every record and temp file; returns the number removed
        (temp files are cleaned but not counted, matching the historical
        entry-count return value)."""
        removed = 0
        for rel, _stat in list(self.backend.scan()):
            if self.backend.delete(rel) and not rel.endswith(".tmp"):
                removed += 1
        return removed

    def keys(self) -> List[str]:
        """Every stored key, sorted."""
        found = set()
        for rel, _stat in self.backend.scan():
            key = self.key_of(rel)
            if key is not None:
                found.add(key)
        return sorted(found)

    def __len__(self) -> int:
        return sum(1 for rel, _stat in self.backend.scan()
                   if self.key_of(rel) is not None)
