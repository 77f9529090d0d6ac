"""Per-request telemetry of the design service, served on ``stats``.

Counters are cheap enough to update on every request and are read only
when a client asks: queue depth (requests submitted to the worker pool
and not yet finished), per-verb request counts, error counts, the
resilience events (shed, deadline timeouts, drain refusals, slow-client
write timeouts), and two latencies — admission to response, and the
worker-pool queue wait whose p50/p99 expose backpressure building up
before latency does.

Everything lives in one :class:`repro.obs.metrics.MetricsRegistry`, and
each latency is recorded once, into a windowed
:class:`~repro.obs.metrics.Summary`: the ``stats`` percentiles
(nearest-rank over the most recent :data:`LATENCY_WINDOW` samples, so a
long-running daemon reports recent behavior) and the ``metrics`` page
(:meth:`ServeTelemetry.exposition`) read the same windows.  The
``stats`` shape is pinned byte-compatible by the protocol tests.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional, Sequence

from repro.obs.metrics import MetricsRegistry, percentile_nearest_rank
from repro.serve.protocol import CONTROL_VERBS

__all__ = ["LATENCY_WINDOW", "ServeTelemetry"]

#: Latency samples retained for the p50/p99 window.
LATENCY_WINDOW = 1024


def _window_stats(window: Sequence[float]) -> dict:
    """The pinned ``{count, p50, p99, max}`` block, in milliseconds, of
    a sorted window of seconds.  Nearest rank picks an observed sample
    and scaling preserves order, so this equals ranking the samples
    already scaled to milliseconds."""
    return {
        "count": len(window),
        "p50": round(1000.0 * percentile_nearest_rank(window, 0.50), 3),
        "p99": round(1000.0 * percentile_nearest_rank(window, 0.99), 3),
        "max": round(1000.0 * percentile_nearest_rank(window, 1.0), 3),
    }


class ServeTelemetry:
    """Thread-safe request counters + latency summaries for one daemon,
    all held in its own :class:`~repro.obs.metrics.MetricsRegistry`
    (scrapeable via :meth:`exposition`)."""

    def __init__(self, latency_window: int = LATENCY_WINDOW) -> None:
        """``latency_window`` bounds every p50/p99 window."""
        self._lock = threading.Lock()
        self._started = time.monotonic()
        self.registry = MetricsRegistry()
        reg = self.registry
        self._requests = reg.counter(
            "repro_serve_requests_total",
            "Completed requests (including coalesced joiners), by verb.",
            labels=("verb",))
        self._errors = reg.counter(
            "repro_serve_errors_total",
            "Requests that finished with a nonzero exit code.")
        self._protocol_errors = reg.counter(
            "repro_serve_protocol_errors_total",
            "Request lines that never reached a handler.")
        self._shed = reg.counter(
            "repro_serve_shed_total",
            "Requests refused at admission (queue full).")
        self._deadline_timeouts = reg.counter(
            "repro_serve_deadline_timeouts_total",
            "Requests whose deadline_ms budget expired.")
        self._draining_rejections = reg.counter(
            "repro_serve_draining_rejections_total",
            "Command requests refused while draining.")
        self._write_timeouts = reg.counter(
            "repro_serve_write_timeouts_total",
            "Response writes dropped on a stalled client.")
        self._queue_depth = reg.gauge(
            "repro_serve_queue_depth",
            "Requests submitted to the worker pool and not yet finished.")
        self._peak_queue_depth = reg.gauge(
            "repro_serve_peak_queue_depth",
            "High-water mark of the worker-pool queue depth.")
        self._draining_gauge = reg.gauge(
            "repro_serve_draining", "1 while the daemon is draining.")
        self._uptime = reg.gauge(
            "repro_serve_uptime_seconds",
            "Seconds since the daemon started (set at scrape time).")
        self._latency = reg.summary(
            "repro_serve_latency_seconds",
            "Request latency (admission to response), by verb.",
            labels=("verb",), window=latency_window)
        self._queue_wait = reg.summary(
            "repro_serve_queue_wait_seconds",
            "Worker-pool submission-to-execution wait.",
            window=latency_window)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def enter_queue(self) -> None:
        """A request was submitted to the worker pool."""
        with self._lock:
            self._queue_depth.inc()
            depth = self._queue_depth.value()
            if depth > self._peak_queue_depth.value():
                self._peak_queue_depth.set(depth)

    def exit_queue(self) -> None:
        """A submitted request finished executing."""
        self._queue_depth.dec()

    def count_protocol_error(self) -> None:
        """A request line never reached a handler (bad JSON/verb/framing)."""
        self._protocol_errors.inc()

    def count_shed(self) -> None:
        """A request was refused at admission (queue full, ``overloaded``)."""
        self._shed.inc()

    def count_deadline_timeout(self) -> None:
        """A request's ``deadline_ms`` budget expired before its response."""
        self._deadline_timeouts.inc()

    def count_draining_rejection(self) -> None:
        """A command request was refused because the daemon is draining."""
        self._draining_rejections.inc()

    def count_write_timeout(self) -> None:
        """A stalled client's response write timed out (connection dropped)."""
        self._write_timeouts.inc()

    def mark_draining(self) -> None:
        """The daemon entered its drain lifecycle (one-way)."""
        self._draining_gauge.set(1)

    def observe_queue_wait(self, waited_s: float) -> None:
        """Record one request's pool submission-to-execution wait."""
        self._queue_wait.observe(waited_s)

    def uptime_s(self) -> float:
        """Seconds since this daemon's telemetry began (daemon start)."""
        return time.monotonic() - self._started

    def recent_p50_ms(self) -> float:
        """Nearest-rank p50 over the command verbs' latency windows (the
        ``retry_after_ms`` hint baseline — what one queue slot is
        currently worth).  Control verbs never occupy a queue slot, so
        their sub-millisecond samples are left out."""
        window = sorted(
            value for (verb,), values in self._latency.windows().items()
            if verb not in CONTROL_VERBS for value in values)
        return 1000.0 * percentile_nearest_rank(window, 0.50)

    def observe(self, verb: str, exit_code: int, elapsed_s: float) -> None:
        """Record one completed request (including coalesced joiners —
        each client-visible response counts once)."""
        self._latency.observe(elapsed_s, verb=verb)
        self._requests.inc(verb=verb)
        if exit_code != 0:
            self._errors.inc()

    # ------------------------------------------------------------------
    # Snapshot / exposition
    # ------------------------------------------------------------------
    def snapshot(self,
                 coalesce: Optional[Dict[str, int]] = None,
                 artifact_store: Optional[Dict[str, int]] = None,
                 server: Optional[dict] = None) -> dict:
        """One JSON-safe ``stats`` payload (shape pinned by the tests).

        Assembled from the registry counters and summary windows.
        ``coalesce`` and ``artifact_store`` are the coalescer's
        and the shared store's counter dictionaries; ``cache_hit_rate``
        is derived from the store (stage reuses / stage lookups).
        ``server`` carries static daemon facts (address, pool size)
        merged in verbatim.
        """
        by_verb = {labels[0]: int(value)
                   for labels, value in self._requests.samples()}
        payload = {
            "queue_depth": int(self._queue_depth.value()),
            "peak_queue_depth": int(self._peak_queue_depth.value()),
            "requests": {
                "total": sum(by_verb.values()),
                "by_verb": dict(sorted(by_verb.items())),
                "errors": int(self._errors.value()),
                "protocol_errors": int(self._protocol_errors.value()),
            },
            "latency_ms": _window_stats(self._latency.window()),
            "latency_by_verb_ms": {
                verb: _window_stats(window) for (verb,), window
                in sorted(self._latency.windows().items())},
            "queue_wait_ms": _window_stats(self._queue_wait.window()),
            "resilience": {
                "shed": int(self._shed.value()),
                "deadline_timeouts": int(self._deadline_timeouts.value()),
                "draining_rejections": int(
                    self._draining_rejections.value()),
                "write_timeouts": int(self._write_timeouts.value()),
                "draining": self._draining_gauge.value() == 1,
            },
            "uptime_s": round(time.monotonic() - self._started, 3),
        }
        if coalesce is not None:
            payload["coalesce"] = dict(coalesce)
        if artifact_store is not None:
            store = dict(artifact_store)
            payload["artifact_store"] = store
            lookups = store.get("hits", 0) + store.get("misses", 0)
            payload["cache_hit_rate"] = (
                round(store.get("hits", 0) / lookups, 6) if lookups else 0.0)
        if server is not None:
            payload["server"] = dict(server)
        return payload

    def exposition(self,
                   coalesce: Optional[Dict[str, int]] = None,
                   artifact_store: Optional[Dict[str, int]] = None) -> str:
        """The registry in Prometheus text format (the ``metrics`` verb).

        Scrape-time state — uptime, the coalescer counters and the
        shared store's hit/miss/entry counters — is folded into gauges
        just before rendering, so one scrape is one consistent page.
        """
        self._uptime.set(round(time.monotonic() - self._started, 3))
        if coalesce:
            gauge = self.registry.gauge(
                "repro_serve_coalesce", "Request-coalescer counters.",
                labels=("event",))
            for event, value in coalesce.items():
                if isinstance(value, (int, float)):
                    gauge.set(value, event=str(event))
        if artifact_store:
            gauge = self.registry.gauge(
                "repro_serve_artifact_store",
                "Shared artifact-store counters.", labels=("counter",))
            for counter, value in artifact_store.items():
                if isinstance(value, (int, float)):
                    gauge.set(value, counter=str(counter))
        return self.registry.render()
