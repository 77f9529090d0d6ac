"""Observability substrate: structured tracing and a metrics registry.

``repro.obs`` is the evidence layer the performance work stands on.  It
has two stdlib-only halves:

``repro.obs.trace``
    A contextvar-based span tracer.  Instrumented call sites open named
    spans (flow stages, CAS operations, payload execution, the serve
    request lifecycle); when a tracer is installed each completed span
    is appended to a JSON-lines file, and when no tracer is installed
    every call site degrades to a shared no-op object whose overhead is
    floor-gated at <=2% of the end-to-end hot path
    (``BENCH_obs_overhead.json``).

``repro.obs.metrics``
    A counter/gauge/summary registry with Prometheus text-exposition
    export.  The serve daemon's :class:`~repro.serve.telemetry
    .ServeTelemetry` is built on it: ``stats`` reads its summaries and
    the ``metrics`` control verb scrapes it over the wire.

Traces and metrics are strictly *out-of-band*: sweep/scenario/
robustness records and reports are byte-identical whether tracing is
enabled or not.
"""

from repro.obs.metrics import (Counter, Gauge, MetricsRegistry, Summary,
                               parse_exposition, percentile_nearest_rank)
from repro.obs.trace import (NULL_SPAN, Span, Tracer, active, install,
                             merge_worker_traces, read_spans, record, span,
                             summarize_spans, summarize_text, tracing,
                             uninstall)

__all__ = [
    "Counter", "Gauge", "MetricsRegistry", "Summary", "parse_exposition",
    "percentile_nearest_rank",
    "NULL_SPAN", "Span", "Tracer", "active", "install",
    "merge_worker_traces", "read_spans", "record", "span",
    "summarize_spans", "summarize_text", "tracing", "uninstall",
]
