"""Counter/gauge/summary registry with Prometheus text exposition.

A deliberately small, stdlib-only metrics core: metrics are created
once on a :class:`MetricsRegistry`, updated from any thread (one lock
per registry), and rendered deterministically with :meth:`MetricsRegistry
.render` in the Prometheus text exposition format (``# HELP``/``# TYPE``
headers, ``name{label="v"} value`` samples, sorted by name then
labels).  :func:`parse_exposition` is the matching minimal parser used
by the round-trip tests and the CI metrics-scrape smoke.

A :class:`Summary` keeps a bounded window of recent observations per
child, so its quantiles are exact nearest-rank order statistics
(:func:`percentile_nearest_rank`) rather than bucket estimates.  The
serve daemon's :class:`~repro.serve.telemetry.ServeTelemetry` is built
on this registry: its ``stats`` percentiles and the ``metrics`` control
verb (plus ``repro client metrics``) read the same summaries.
"""

from __future__ import annotations

import math
from threading import RLock
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

LabelValues = Tuple[str, ...]

#: The ``quantile`` label values a summary renders; 1 is the window max.
SUMMARY_QUANTILES = (("0.5", 0.50), ("0.99", 0.99), ("1", 1.0))


def percentile_nearest_rank(sorted_values: Sequence[float],
                            fraction: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sample.

    ``fraction`` in (0, 1]; the empty sample returns 0.0.  Nearest-rank
    (ceil(f*n)-th order statistic) always returns an observed value,
    which keeps small windows honest — no interpolation between two
    outliers.
    """
    if not sorted_values:
        return 0.0
    rank = min(max(1, math.ceil(len(sorted_values) * fraction)),
               len(sorted_values))
    return float(sorted_values[rank - 1])


def _escape_label_value(value: str) -> str:
    """Escape a label value per the exposition format rules."""
    return (value.replace("\\", "\\\\").replace("\n", "\\n")
            .replace('"', '\\"'))


def _format_value(value: float) -> str:
    """Render a sample value: integers without a trailing ``.0``."""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


class Metric:
    """Base class: a named metric family with fixed label names.

    Each distinct label-value tuple is one *child* time series; a
    metric declared with no labels has a single implicit child.
    """

    kind = "untyped"

    def __init__(self, name: str, help_text: str,
                 label_names: Sequence[str], lock: RLock) -> None:
        """Declare a family; ``lock`` is shared with the registry."""
        self.name = name
        self.help_text = help_text
        self.label_names = tuple(label_names)
        self._lock = lock
        self._children: Dict[LabelValues, float] = {}
        if not self.label_names:
            self._children[()] = 0.0

    def _resolve(self, labels: Dict[str, str]) -> LabelValues:
        """Map a labels dict onto this family's declared label order."""
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"metric {self.name!r} expects labels {self.label_names}, "
                f"got {tuple(sorted(labels))}")
        return tuple(str(labels[name]) for name in self.label_names)

    def samples(self) -> List[Tuple[LabelValues, float]]:
        """All (label_values, value) pairs, sorted by label values."""
        with self._lock:
            return sorted(self._children.items())

    def value(self, **labels: str) -> float:
        """The current value of one child (0.0 if never touched)."""
        key = self._resolve(labels)
        with self._lock:
            return self._children.get(key, 0.0)


class Counter(Metric):
    """A monotonically increasing count (requests, errors, bytes)."""

    kind = "counter"

    def inc(self, amount: float = 1, **labels: str) -> None:
        """Add ``amount`` (must be >= 0) to the labelled child."""
        if amount < 0:
            raise ValueError("counters can only increase")
        key = self._resolve(labels)
        with self._lock:
            self._children[key] = self._children.get(key, 0.0) + amount


class Gauge(Metric):
    """A value that can go up and down (queue depth, flags)."""

    kind = "gauge"

    def set(self, value: float, **labels: str) -> None:
        """Set the labelled child to ``value``."""
        key = self._resolve(labels)
        with self._lock:
            self._children[key] = float(value)

    def inc(self, amount: float = 1, **labels: str) -> None:
        """Add ``amount`` (may be negative) to the labelled child."""
        key = self._resolve(labels)
        with self._lock:
            self._children[key] = self._children.get(key, 0.0) + amount

    def dec(self, amount: float = 1, **labels: str) -> None:
        """Subtract ``amount`` from the labelled child."""
        self.inc(-amount, **labels)


class Summary(Metric):
    """A windowed distribution (latency): exact nearest-rank quantiles
    over each child's last ``window`` observations, exposed as
    ``{quantile=...}`` series plus lifetime ``_sum`` and ``_count``.
    The family also keeps one window over its last ``window``
    observations of any child."""

    kind = "summary"

    def __init__(self, name: str, help_text: str,
                 label_names: Sequence[str], lock: RLock,
                 window: int = 1024) -> None:
        """Declare a summary family whose windows hold ``window`` values."""
        super().__init__(name, help_text, label_names, lock)
        self.window_size = window
        self._children.clear()  # value map holds the lifetime sums
        self._counts: Dict[LabelValues, int] = {}
        self._windows: Dict[LabelValues, List[float]] = {}
        self._family: List[float] = []

    def observe(self, value: float, **labels: str) -> None:
        """Record one observation into the labelled child."""
        key = self._resolve(labels)
        with self._lock:
            self._children[key] = self._children.get(key, 0.0) + value
            self._counts[key] = self._counts.get(key, 0) + 1
            for window in (self._windows.setdefault(key, []), self._family):
                window.append(value)
                if len(window) > self.window_size:
                    del window[0]

    def window(self) -> List[float]:
        """The family-wide window, sorted ascending."""
        with self._lock:
            return sorted(self._family)

    def windows(self) -> Dict[LabelValues, List[float]]:
        """Each observed child's window, sorted ascending."""
        with self._lock:
            return {key: sorted(window)
                    for key, window in self._windows.items()}


class MetricsRegistry:
    """A named collection of metrics with deterministic exposition.

    Families are created idempotently: asking twice for the same name
    returns the same object (mismatched kind/labels raise), which lets
    independent components share one registry safely.
    """

    def __init__(self) -> None:
        """Create an empty registry with its own lock."""
        self._lock = RLock()
        self._metrics: Dict[str, Metric] = {}

    def _declare(self, cls, name: str, help_text: str,
                 label_names: Sequence[str], **kwargs) -> Metric:
        """Create-or-return a family, checking for redeclaration."""
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if (type(existing) is not cls
                        or existing.label_names != tuple(label_names)):
                    raise ValueError(
                        f"metric {name!r} already declared with a "
                        f"different kind or labels")
                return existing
            metric = cls(name, help_text, label_names, self._lock, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help_text: str,
                labels: Sequence[str] = ()) -> Counter:
        """Declare (or fetch) a counter family."""
        return self._declare(Counter, name, help_text, labels)

    def gauge(self, name: str, help_text: str,
              labels: Sequence[str] = ()) -> Gauge:
        """Declare (or fetch) a gauge family."""
        return self._declare(Gauge, name, help_text, labels)

    def summary(self, name: str, help_text: str,
                labels: Sequence[str] = (), window: int = 1024) -> Summary:
        """Declare (or fetch) a summary family."""
        return self._declare(Summary, name, help_text, labels,
                             window=window)

    def get(self, name: str) -> Optional[Metric]:
        """The declared family named ``name``, or ``None``."""
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> List[str]:
        """All declared family names, sorted."""
        with self._lock:
            return sorted(self._metrics)

    def render(self) -> str:
        """The full registry in Prometheus text exposition format.

        Deterministic: families sorted by name, children by label
        values.  Ends with a trailing newline.
        """
        lines: List[str] = []
        with self._lock:
            for name in sorted(self._metrics):
                metric = self._metrics[name]
                lines.append(f"# HELP {name} {metric.help_text}")
                lines.append(f"# TYPE {name} {metric.kind}")
                if isinstance(metric, Summary):
                    lines.extend(self._render_summary(metric))
                    continue
                for label_values, value in metric.samples():
                    lines.append(self._sample_line(
                        name, metric.label_names, label_values, value))
        return "\n".join(lines) + "\n"

    def _render_summary(self, metric: Summary) -> List[str]:
        """Quantile/sum/count series for one summary family."""
        lines: List[str] = []
        names = metric.label_names
        for label_values, window in sorted(metric.windows().items()):
            for label, fraction in SUMMARY_QUANTILES:
                lines.append(self._sample_line(
                    metric.name, names + ("quantile",),
                    label_values + (label,),
                    percentile_nearest_rank(window, fraction)))
            lines.append(self._sample_line(
                f"{metric.name}_sum", names, label_values,
                metric._children[label_values]))
            lines.append(self._sample_line(
                f"{metric.name}_count", names, label_values,
                metric._counts[label_values]))
        return lines

    @staticmethod
    def _sample_line(name: str, label_names: Sequence[str],
                     label_values: Sequence[str], value: float) -> str:
        """One ``name{labels} value`` exposition line."""
        if label_names:
            body = ",".join(
                f'{label}="{_escape_label_value(str(val))}"'
                for label, val in zip(label_names, label_values))
            return f"{name}{{{body}}} {_format_value(value)}"
        return f"{name} {_format_value(value)}"


def parse_exposition(text: str) -> Dict[Tuple[str, LabelValues], float]:
    """Parse exposition text back into ``{(name, ((label, value), ...)):
    value}`` — the minimal inverse of :meth:`MetricsRegistry.render`.

    Comment/``# TYPE``/``# HELP`` lines are skipped.  Used by the
    round-trip property tests and the CI scrape smoke; only the subset
    of the format that :meth:`~MetricsRegistry.render` emits is
    supported (no exemplars, no timestamps).
    """
    parsed: Dict[Tuple[str, LabelValues], float] = {}
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        name_part, _, value_part = line.rpartition(" ")
        if "{" in name_part:
            name, _, label_blob = name_part.partition("{")
            label_blob = label_blob.rstrip("}")
            labels = tuple(_parse_labels(label_blob))
        else:
            name, labels = name_part, ()
        parsed[(name, labels)] = float(value_part)
    return parsed


def _parse_labels(blob: str) -> Iterable[Tuple[str, str]]:
    """Split ``k="v",k2="v2"`` respecting escaped quotes/backslashes."""
    index = 0
    while index < len(blob):
        eq = blob.index("=", index)
        key = blob[index:eq]
        assert blob[eq + 1] == '"', "label values must be quoted"
        cursor = eq + 2
        value_chars: List[str] = []
        while True:
            char = blob[cursor]
            if char == "\\":
                escaped = blob[cursor + 1]
                value_chars.append(
                    {"n": "\n", '"': '"', "\\": "\\"}.get(escaped, escaped))
                cursor += 2
                continue
            if char == '"':
                break
            value_chars.append(char)
            cursor += 1
        yield key, "".join(value_chars)
        index = cursor + 1
        if index < len(blob) and blob[index] == ",":
            index += 1
