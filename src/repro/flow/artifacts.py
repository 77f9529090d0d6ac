"""In-run artifact store: shared-stage memoization for the design flow.

One sweep over a design-space grid evaluates many points that share most of
their inputs — every point with the same modulator spec produces the same
bit-stream, every point with the same halfband configuration designs the
same filter, and points that differ only in the output word width share the
whole verification mask.  The :class:`ArtifactStore` makes that sharing
explicit: each flow stage derives a content key from its actual inputs and
asks the store to either return the previously computed artifact or compute
it exactly once.

The store is purely in-memory and normally lives for one
:func:`repro.explore.run_sweep` call (or one
:func:`repro.flow.run_design_flow` call when the caller passes one in);
the serve daemon instead keeps one hot store alive across requests, bounded
by ``max_entries`` with least-recently-used eviction so a long-running
process cannot grow without limit.  It is thread-safe — the daemon's
worker threads share one store, with per-key locks so a stage shared by N
requests is still computed exactly once — and picklable, so the process
pool can ship a pre-warmed store to each worker through the pool
initializer (once per worker instead of once per payload).

Every caller gets the stored artifact itself, so stored artifacts are
immutable (see :mod:`repro.frozen`); a stage whose result is a dict hands
each caller a read-only view or a fresh rebuild of it.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Optional, Tuple

__all__ = ["ArtifactStore"]

#: Sentinel for "no reusable artifact" (``None`` is a valid artifact).
_ABSENT = object()


class ArtifactStore:
    """Content-keyed, thread-safe, in-memory memoization of flow stages.

    Keys are hashable tuples, conventionally ``(stage_name, content_hash)``
    with the hash derived from every input that could change the stage's
    output (see :func:`repro.core.spec.content_hash`).

    Attributes
    ----------
    hits, misses:
        Number of stage computations avoided / performed, for telemetry.
    evictions:
        Number of entries dropped by the ``max_entries`` LRU cap.
    """

    def __init__(self, max_entries: Optional[int] = None) -> None:
        """``max_entries`` bounds the store: beyond it, the least-recently-
        used entry is evicted on insert (``None``, the default, never
        evicts — the one-shot CLI/sweep lifetime needs no bound)."""
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be at least 1 "
                             f"(got {max_entries})")
        self._data: Dict[Tuple, Any] = {}
        self._lock = threading.Lock()
        #: key -> [lock, callers in flight]; dropped when the last one leaves.
        self._key_locks: Dict[Tuple, list] = {}
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _touch(self, key: Tuple) -> None:
        """Mark ``key`` most-recently-used (dict preserves insert order;
        caller holds the store lock)."""
        if self.max_entries is not None:
            self._data[key] = self._data.pop(key)

    def _evict_over_cap(self) -> None:
        """Drop least-recently-used entries beyond the cap (caller holds
        the store lock)."""
        if self.max_entries is None:
            return
        while len(self._data) > self.max_entries:
            oldest = next(iter(self._data))
            del self._data[oldest]
            self.evictions += 1

    # ------------------------------------------------------------------
    # Core API
    # ------------------------------------------------------------------
    def get_or_compute(self, key: Tuple, compute: Callable[[], Any],
                       reuse: Optional[Callable[[Any], bool]] = None) -> Any:
        """Return the stored artifact for ``key``, computing it exactly once.

        Concurrent callers with the same key block on a per-key lock while
        the first one computes, so a stage shared by N concurrent requests
        runs once; the lock lives only while some caller of its key is in
        flight.  A stored artifact for which ``reuse`` returns ``False``
        is recomputed and replaced (e.g. a bit-stream shorter than the
        caller needs).  Every caller gets the stored artifact itself, so
        ``compute`` must return an immutable one.
        """
        with self._lock:
            value = self._reusable(key, reuse)
            if value is not _ABSENT:
                return value
            slot = self._key_locks.setdefault(key, [threading.Lock(), 0])
            slot[1] += 1
        try:
            with slot[0]:
                with self._lock:
                    value = self._reusable(key, reuse)
                if value is not _ABSENT:
                    return value
                value = compute()
                with self._lock:
                    self._data.pop(key, None)
                    self._data[key] = value
                    self.misses += 1
                    self._evict_over_cap()
                return value
        finally:
            with self._lock:
                slot[1] -= 1
                if not slot[1]:
                    del self._key_locks[key]

    def _reusable(self, key: Tuple, reuse) -> Any:
        """The stored artifact counted as a hit, or ``_ABSENT`` (caller
        holds the store lock)."""
        if key not in self._data or (reuse is not None
                                     and not reuse(self._data[key])):
            return _ABSENT
        self.hits += 1
        self._touch(key)
        return self._data[key]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def stats(self) -> Dict[str, int]:
        """Hit/miss/entry counters (serialized into sweep telemetry)."""
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "entries": len(self._data)}

    # ------------------------------------------------------------------
    # Pickling (locks are not picklable; a shipped store starts quiescent)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        with self._lock:
            return {"data": dict(self._data), "hits": self.hits,
                    "misses": self.misses, "max_entries": self.max_entries,
                    "evictions": self.evictions}

    def __setstate__(self, state: dict) -> None:
        self._data = state["data"]
        self.hits = state["hits"]
        self.misses = state["misses"]
        self.max_entries = state.get("max_entries")
        self.evictions = state.get("evictions", 0)
        self._lock = threading.Lock()
        self._key_locks = {}
