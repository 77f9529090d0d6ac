"""Contextvar-based span tracing with JSON-lines export.

A *span* is one named, timed region of work (a flow stage, a CAS read,
one payload execution, one served request).  Spans nest: each span
records its parent from a :class:`contextvars.ContextVar`, so the trace
reconstructs the call tree without any explicit plumbing — including
across threads (a fresh thread starts a fresh span stack) and asyncio
tasks (each task inherits its creator's context).

The tracer is *installed* process-globally with :func:`install` (or the
:func:`tracing` context manager).  When no tracer is installed,
:func:`span` returns the shared :data:`NULL_SPAN` no-op — a few hundred
nanoseconds per call site, floor-gated at <=2% of the end-to-end hot
path by ``BENCH_obs_overhead.json``.

Each completed span is appended to the tracer's file as one JSON line::

    {"trace": "9f2c...", "span": 3, "parent": 1, "pid": 4711,
     "name": "cas.get", "t0": 1754555555.12, "dur_s": 0.0021,
     "ok": true, "attrs": {"bytes": 2048, "hit": true}}

Process-pool workers write side files (``<path>.worker-<pid>``, wired
through :func:`worker_spec`/:func:`install_from_spec` by the runner's
pool initializer); :func:`merge_worker_traces` folds them back into the
main file so every span of a run lands in one place exactly once.
Traces are strictly out-of-band: nothing here ever touches the records
or reports of the run being traced.
"""

from __future__ import annotations

import contextvars
import glob
import itertools
import json
import os
import time
from contextlib import contextmanager
from threading import Lock
from typing import Any, Dict, Iterable, List, Optional, Sequence

#: The process-global active tracer (``None`` = tracing disabled).
_TRACER: Optional["Tracer"] = None

#: The innermost open span of the current thread/task (parent linkage).
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "repro-obs-span", default=None)


class _NullSpan:
    """The do-nothing span handed out while tracing is disabled.

    A single shared instance (:data:`NULL_SPAN`) keeps the disabled
    path allocation-free: no timestamps, no contextvar traffic, no I/O.
    """

    __slots__ = ()

    def set(self, **attrs: Any) -> "_NullSpan":
        """Ignore attributes; return self for chaining."""
        return self

    def __enter__(self) -> "_NullSpan":
        """No-op enter."""
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        """No-op exit; never swallows exceptions."""
        return False


#: Shared no-op span returned by :func:`span` when tracing is disabled.
NULL_SPAN = _NullSpan()


class Span:
    """One live span: a named, timed region bound to an installed tracer.

    Use as a context manager; attributes may be attached at creation
    (``span("cas.put", bytes=2048)``) or later via :meth:`set`
    (e.g. hit/miss known only after the lookup).  The span is emitted
    on exit even when the body raises — the JSON record then carries
    ``ok: false`` and the exception type under ``attrs.error``.
    """

    __slots__ = ("_tracer", "name", "attrs", "span_id", "parent_id",
                 "_t0_wall", "_t0_perf", "_token")

    def __init__(self, tracer: "Tracer", name: str,
                 attrs: Dict[str, Any]) -> None:
        """Bind a span to ``tracer``; timing starts on ``__enter__``."""
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = next(tracer._ids)
        self.parent_id: Optional[int] = None
        self._t0_wall = 0.0
        self._t0_perf = 0.0
        self._token: Optional[contextvars.Token] = None

    def set(self, **attrs: Any) -> "Span":
        """Attach/overwrite attributes; returns self for chaining."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        """Start the clock and push this span as the current parent."""
        parent = _CURRENT.get()
        self.parent_id = parent.span_id if parent is not None else None
        self._token = _CURRENT.set(self)
        self._t0_wall = time.time()
        self._t0_perf = time.perf_counter()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        """Pop the span, stamp its duration, and emit the JSON line."""
        duration = time.perf_counter() - self._t0_perf
        if self._token is not None:
            _CURRENT.reset(self._token)
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self._tracer._emit(self, self._t0_wall, duration,
                           ok=exc_type is None)
        return False


class Tracer:
    """Appends completed spans to a JSON-lines file, thread-safely.

    One tracer covers one *trace* (a CLI run, a daemon lifetime); its
    ``trace_id`` groups spans across processes.  Spans are written with
    a per-line flush so files from killed workers stay parseable.
    """

    def __init__(self, path: str, trace_id: Optional[str] = None) -> None:
        """Open ``path`` for appending; generate ``trace_id`` if unset."""
        self.path = path
        self.trace_id = trace_id if trace_id else os.urandom(8).hex()
        self._fh = open(path, "a", encoding="utf-8")
        self._lock = Lock()
        self._ids = itertools.count(1)
        self._closed = False

    def span(self, name: str, **attrs: Any) -> Span:
        """A new (not yet entered) span bound to this tracer."""
        return Span(self, name, attrs)

    def record(self, name: str, duration_s: float, **attrs: Any) -> None:
        """Emit an already-measured span (e.g. a queue wait timed by the
        caller) parented under the current span, ending *now*."""
        completed = Span(self, name, attrs)
        parent = _CURRENT.get()
        completed.parent_id = parent.span_id if parent is not None else None
        self._emit(completed, time.time() - duration_s, duration_s, ok=True)

    def worker_spec(self) -> Dict[str, str]:
        """The pickle-friendly recipe a pool worker needs to join this
        trace (consumed by :func:`install_from_spec`)."""
        return {"path": self.path, "trace_id": self.trace_id}

    def _emit(self, span_obj: Span, t0_wall: float, duration_s: float,
              ok: bool) -> None:
        """Serialize one completed span as a JSON line (with flush)."""
        line = json.dumps({
            "trace": self.trace_id,
            "span": span_obj.span_id,
            "parent": span_obj.parent_id,
            "pid": os.getpid(),
            "name": span_obj.name,
            "t0": round(t0_wall, 6),
            "dur_s": round(duration_s, 9),
            "ok": ok,
            "attrs": span_obj.attrs,
        }, sort_keys=True, separators=(",", ":"))
        with self._lock:
            if not self._closed:
                self._fh.write(line + "\n")
                self._fh.flush()

    def close(self) -> None:
        """Flush and close the trace file; further emits are dropped."""
        with self._lock:
            if not self._closed:
                self._closed = True
                self._fh.close()


def active() -> Optional[Tracer]:
    """The installed tracer, or ``None`` when tracing is disabled."""
    return _TRACER


def install(tracer: Tracer) -> Optional[Tracer]:
    """Make ``tracer`` the process-global tracer; returns the previous
    one (restore it with another :func:`install`/:func:`uninstall`)."""
    global _TRACER
    previous = _TRACER
    _TRACER = tracer
    return previous


def uninstall(previous: Optional[Tracer] = None) -> Optional[Tracer]:
    """Disable tracing (or restore ``previous``); returns the tracer
    that was installed."""
    global _TRACER
    installed = _TRACER
    _TRACER = previous
    return installed


def install_from_spec(spec: Optional[Dict[str, str]]) -> None:
    """Join a parent trace inside a pool worker.

    ``spec`` is :meth:`Tracer.worker_spec` shipped through the pool
    initializer; the worker writes to a private side file
    (``<path>.worker-<pid>``) that :func:`merge_worker_traces` folds
    back into the parent's file.  Also clears any span stack inherited
    through ``fork``.  ``None`` disables tracing in the worker.
    """
    global _TRACER
    _CURRENT.set(None)
    if spec is None:
        _TRACER = None
        return
    worker_path = f"{spec['path']}.worker-{os.getpid()}"
    _TRACER = Tracer(worker_path, trace_id=spec["trace_id"])


def span(name: str, **attrs: Any) -> Any:
    """A span under the installed tracer, or :data:`NULL_SPAN` when
    tracing is disabled — the one call instrumented sites should use."""
    tracer = _TRACER
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, **attrs)


def record(name: str, duration_s: float, **attrs: Any) -> None:
    """Emit an already-measured span if tracing is enabled (no-op
    otherwise); see :meth:`Tracer.record`."""
    tracer = _TRACER
    if tracer is not None:
        tracer.record(name, duration_s, **attrs)


@contextmanager
def tracing(path: str):
    """Trace the enclosed block to ``path``: install a fresh tracer,
    and on exit close it, restore the previous tracer, and fold any
    worker side files in with :func:`merge_worker_traces`."""
    tracer = Tracer(path)
    previous = install(tracer)
    try:
        yield tracer
    finally:
        uninstall(previous)
        tracer.close()
        merge_worker_traces(path)


def merge_worker_traces(path: str) -> int:
    """Fold ``<path>.worker-*`` side files into ``path`` and delete
    them; returns the number of span lines merged.

    Worker files are disjoint by construction (each worker process
    writes only its own), so a plain append preserves every span
    exactly once.
    """
    merged = 0
    worker_files = sorted(glob.glob(glob.escape(path) + ".worker-*"))
    if not worker_files:
        return 0
    with open(path, "a", encoding="utf-8") as out:
        for worker_file in worker_files:
            with open(worker_file, "r", encoding="utf-8") as fh:
                for line in fh:
                    line = line.strip()
                    if line:
                        out.write(line + "\n")
                        merged += 1
            os.remove(worker_file)
    return merged


def read_spans(path: str) -> List[Dict[str, Any]]:
    """Parse a JSON-lines trace file back into span dicts (skipping
    blank lines; a torn final line from a killed writer raises)."""
    spans = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                spans.append(json.loads(line))
    return spans


def summarize_spans(spans: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Aggregate spans into per-name rows: count, total/mean/max time,
    and — for spans carrying a boolean ``hit`` attribute — a hit rate.

    Rows are sorted by total time descending (name as tiebreak), the
    natural profile reading order.
    """
    by_name: Dict[str, Dict[str, Any]] = {}
    for entry in spans:
        row = by_name.setdefault(entry["name"], {
            "name": entry["name"], "count": 0, "total_s": 0.0,
            "max_s": 0.0, "errors": 0, "hits": 0, "misses": 0,
        })
        row["count"] += 1
        row["total_s"] += entry["dur_s"]
        row["max_s"] = max(row["max_s"], entry["dur_s"])
        if not entry.get("ok", True):
            row["errors"] += 1
        hit = entry.get("attrs", {}).get("hit")
        if hit is True:
            row["hits"] += 1
        elif hit is False:
            row["misses"] += 1
    rows = []
    for row in by_name.values():
        row["mean_s"] = row["total_s"] / row["count"]
        probes = row["hits"] + row["misses"]
        row["hit_rate"] = (row["hits"] / probes) if probes else None
        rows.append(row)
    rows.sort(key=lambda r: (-r["total_s"], r["name"]))
    return rows


def summarize_text(spans: Iterable[Dict[str, Any]]) -> str:
    """Render :func:`summarize_spans` as the fixed-width breakdown
    table printed by ``repro trace summarize``."""
    rows = summarize_spans(spans)
    header = (f"{'span':<28} {'count':>7} {'total_s':>10} {'mean_ms':>10} "
              f"{'max_ms':>10} {'errors':>6} {'hit_rate':>8}")
    lines = [header, "-" * len(header)]
    for row in rows:
        hit_rate = ("-" if row["hit_rate"] is None
                    else f"{100.0 * row['hit_rate']:.1f}%")
        lines.append(
            f"{row['name']:<28} {row['count']:>7} {row['total_s']:>10.4f} "
            f"{1e3 * row['mean_s']:>10.3f} {1e3 * row['max_s']:>10.3f} "
            f"{row['errors']:>6} {hit_rate:>8}")
    total_s = sum(row["total_s"] for row in rows)
    count = sum(row["count"] for row in rows)
    lines.append("-" * len(header))
    lines.append(f"{'total':<28} {count:>7} {total_s:>10.4f}")
    return "\n".join(lines)


#: Fields every span entry must carry.
_SPAN_FIELDS = ("name", "trace", "pid", "span", "dur_s")


def validate_spans(spans: Sequence[Dict[str, Any]]) -> None:
    """Structural sanity check used by tests and the summarize CLI:
    every entry must be a span object (``name``/``trace``/``pid``/
    ``span`` present, numeric ``dur_s``), every parent id must exist
    within the same (trace, pid) group and ids must be unique per
    (trace, pid).  Raises ``ValueError``."""
    seen = set()
    for entry in spans:
        if (not isinstance(entry, dict)
                or any(field not in entry for field in _SPAN_FIELDS)
                or type(entry["dur_s"]) not in (int, float)):
            raise ValueError(f"not a span (needs name, trace, pid, span "
                             f"and a numeric dur_s): {entry!r}")
        key = (entry["trace"], entry["pid"], entry["span"])
        if key in seen:
            raise ValueError(f"duplicate span id: {key}")
        seen.add(key)
    for entry in spans:
        if entry.get("parent") is not None:
            parent_key = (entry["trace"], entry["pid"], entry["parent"])
            if parent_key not in seen:
                raise ValueError(f"dangling parent reference: {parent_key}")
