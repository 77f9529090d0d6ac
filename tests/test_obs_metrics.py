"""The metrics registry and the rebased serve telemetry.

Covers the counter/gauge/summary semantics, the deterministic
Prometheus text exposition and its round-trip through the minimal
parser (including a hypothesis property over hostile label values), and
the :class:`~repro.serve.telemetry.ServeTelemetry` rebase — the pinned
``stats`` snapshot shape, the per-verb latency breakdown, the
scrape-time exposition, and a seeded replay that checks every ``stats``
latency field against a brute-force nearest rank.
"""

import math
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import (
    MetricsRegistry,
    parse_exposition,
    percentile_nearest_rank,
)
from repro.serve.protocol import CONTROL_VERBS
from repro.serve.server import ReproServer
from repro.serve.telemetry import ServeTelemetry


class TestCounter:
    def test_inc_accumulates(self):
        counter = MetricsRegistry().counter("c_total", "help")
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == pytest.approx(3.5)

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("c_total", "help")
        with pytest.raises(ValueError, match="only increase"):
            counter.inc(-1)

    def test_labelled_children_are_independent(self):
        counter = MetricsRegistry().counter("c_total", "help",
                                            labels=("verb",))
        counter.inc(verb="design")
        counter.inc(3, verb="sweep")
        assert counter.value(verb="design") == 1
        assert counter.value(verb="sweep") == 3
        assert counter.samples() == [(("design",), 1.0), (("sweep",), 3.0)]

    def test_wrong_labels_rejected(self):
        counter = MetricsRegistry().counter("c_total", "help",
                                            labels=("verb",))
        with pytest.raises(ValueError, match="expects labels"):
            counter.inc(wrong="x")
        with pytest.raises(ValueError, match="expects labels"):
            counter.inc()


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("g", "help")
        gauge.set(10)
        gauge.inc()
        gauge.dec(4)
        assert gauge.value() == pytest.approx(7.0)

    def test_gauge_may_go_negative(self):
        gauge = MetricsRegistry().gauge("g", "help")
        gauge.dec(2)
        assert gauge.value() == -2.0


class TestSummary:
    def test_window_is_bounded(self):
        summary = MetricsRegistry().summary("s", "help", window=3)
        for value in (5.0, 1.0, 4.0, 2.0, 3.0):
            summary.observe(value)
        # Only the last three observations remain, sorted ascending.
        assert summary.window() == [2.0, 3.0, 4.0]
        assert summary.windows() == {(): [2.0, 3.0, 4.0]}

    def test_lifetime_count_and_sum_outlive_the_window(self):
        registry = MetricsRegistry()
        summary = registry.summary("s", "help", window=2)
        for value in (0.5, 1.5, 2.5, 3.5):
            summary.observe(value)
        parsed = parse_exposition(registry.render())
        assert parsed[("s_count", ())] == 4.0
        assert parsed[("s_sum", ())] == pytest.approx(8.0)
        assert summary.value() == pytest.approx(8.0)
        assert len(summary.window()) == 2

    def test_child_windows_and_family_window(self):
        summary = MetricsRegistry().summary("s", "help", labels=("verb",),
                                            window=2)
        summary.observe(1.0, verb="a")
        summary.observe(2.0, verb="a")
        summary.observe(3.0, verb="a")
        summary.observe(9.0, verb="b")
        # Each child keeps its own last two; the family keeps the last
        # two of any child.
        assert summary.windows() == {("a",): [2.0, 3.0], ("b",): [9.0]}
        assert summary.window() == [3.0, 9.0]

    def test_empty_summary_renders_no_series(self):
        registry = MetricsRegistry()
        summary = registry.summary("s", "help", labels=("verb",))
        assert summary.window() == []
        assert summary.windows() == {}
        assert registry.render() == "# HELP s help\n# TYPE s summary\n"

    def test_concurrent_observers_lose_no_update(self):
        summary = MetricsRegistry().summary("s", "help", labels=("verb",),
                                            window=50)
        per_thread, threads = 2000, 8

        def work(index):
            for _ in range(per_thread):
                summary.observe(1.0, verb=f"v{index % 2}")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work, args=(index,))
                       for index in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert summary.value(verb="v0") == per_thread * threads / 2
        assert summary.value(verb="v1") == per_thread * threads / 2
        assert len(summary.window()) == 50
        assert all(len(window) == 50
                   for window in summary.windows().values())

    def test_quantile_series_survive_parse_exposition(self):
        registry = MetricsRegistry()
        summary = registry.summary("lat", "help", labels=("verb",))
        for value in range(1, 101):
            summary.observe(value / 100.0, verb="design")
        parsed = parse_exposition(registry.render())

        def series(quantile):
            return parsed[("lat", (("verb", "design"),
                                   ("quantile", quantile)))]

        assert series("0.5") == 0.5
        assert series("0.99") == 0.99
        assert series("1") == 1.0
        assert parsed[("lat_count", (("verb", "design"),))] == 100.0

    def test_nearest_rank_returns_observed_samples(self):
        assert percentile_nearest_rank([], 0.5) == 0.0
        assert percentile_nearest_rank([1.0, 2.0], 0.5) == 1.0
        assert percentile_nearest_rank([1.0, 2.0, 3.0], 0.5) == 2.0
        assert percentile_nearest_rank([1.0, 2.0, 3.0], 1.0) == 3.0


class TestRegistry:
    def test_declare_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("c_total", "help", labels=("verb",))
        again = registry.counter("c_total", "help", labels=("verb",))
        assert first is again

    def test_redeclare_with_different_shape_rejected(self):
        registry = MetricsRegistry()
        registry.counter("m", "help")
        with pytest.raises(ValueError, match="already declared"):
            registry.gauge("m", "help")
        with pytest.raises(ValueError, match="already declared"):
            registry.counter("m", "help", labels=("verb",))

    def test_get_and_names(self):
        registry = MetricsRegistry()
        counter = registry.counter("b_total", "help")
        registry.gauge("a", "help")
        assert registry.names() == ["a", "b_total"]
        assert registry.get("b_total") is counter
        assert registry.get("missing") is None


class TestExposition:
    def _registry(self):
        registry = MetricsRegistry()
        registry.counter("req_total", "Requests.", labels=("verb",))\
            .inc(3, verb="design")
        registry.gauge("depth", "Queue depth.").set(2)
        summary = registry.summary("lat_seconds", "Latency.")
        summary.observe(0.05)
        summary.observe(0.5)
        return registry

    def test_render_is_deterministic(self):
        assert self._registry().render() == self._registry().render()

    def test_render_shape(self):
        text = self._registry().render()
        assert "# HELP req_total Requests." in text
        assert "# TYPE req_total counter" in text
        assert '\nreq_total{verb="design"} 3\n' in text
        assert "\ndepth 2\n" in text
        assert "# TYPE lat_seconds summary" in text
        assert '\nlat_seconds{quantile="0.5"} 0.05\n' in text
        assert '\nlat_seconds{quantile="1"} 0.5\n' in text
        assert "\nlat_seconds_count 2\n" in text
        assert text.endswith("\n")

    def test_parse_round_trip(self):
        parsed = parse_exposition(self._registry().render())
        assert parsed[("req_total", (("verb", "design"),))] == 3.0
        assert parsed[("depth", ())] == 2.0
        assert parsed[("lat_seconds", (("quantile", "0.99"),))] == 0.5
        assert parsed[("lat_seconds_count", ())] == 2.0
        assert parsed[("lat_seconds_sum", ())] == pytest.approx(0.55)

    @given(st.dictionaries(
        st.text(alphabet=st.characters(
            codec="ascii", categories=("L", "N")), min_size=1, max_size=8),
        st.floats(allow_nan=False, allow_infinity=False, width=32),
        min_size=1, max_size=6),
        st.sampled_from(['plain', 'quo"te', 'back\\slash', 'new\nline',
                         'mix\\"ed\n']))
    @settings(max_examples=80, deadline=None)
    def test_exposition_round_trips_hostile_labels(self, values, suffix):
        """render -> parse is lossless for any label value the renderer
        can produce (quotes, backslashes and newlines escape)."""
        registry = MetricsRegistry()
        gauge = registry.gauge("g", "help", labels=("key",))
        for key, value in values.items():
            gauge.set(value, key=key + suffix)
        parsed = parse_exposition(registry.render())
        assert len(parsed) == len(values)
        for key, value in values.items():
            assert parsed[("g", (("key", key + suffix),))] \
                == pytest.approx(value, rel=1e-6, abs=1e-30)


class TestServeTelemetry:
    def test_snapshot_pins_the_stats_shape(self):
        telemetry = ServeTelemetry()
        telemetry.observe("design", 0, 0.010)
        telemetry.observe("design", 0, 0.030)
        telemetry.observe("sweep", 1, 0.100)
        snapshot = telemetry.snapshot()
        assert set(snapshot) == {
            "queue_depth", "peak_queue_depth", "requests", "latency_ms",
            "latency_by_verb_ms", "queue_wait_ms", "resilience",
            "uptime_s"}
        requests = snapshot["requests"]
        assert requests["total"] == 3
        assert requests["by_verb"] == {"design": 2, "sweep": 1}
        assert requests["errors"] == 1
        assert requests["protocol_errors"] == 0
        assert snapshot["latency_ms"]["count"] == 3
        assert snapshot["latency_ms"]["max"] == pytest.approx(100.0)

    def test_per_verb_latency_breakdown(self):
        telemetry = ServeTelemetry()
        for elapsed in (0.010, 0.020, 0.030):
            telemetry.observe("design", 0, elapsed)
        telemetry.observe("ping", 0, 0.001)
        by_verb = telemetry.snapshot()["latency_by_verb_ms"]
        assert sorted(by_verb) == ["design", "ping"]
        design = by_verb["design"]
        assert set(design) == {"count", "p50", "p99", "max"}
        assert design["count"] == 3
        assert design["p50"] == pytest.approx(20.0)
        assert design["max"] == pytest.approx(30.0)
        assert by_verb["ping"]["count"] == 1

    def test_queue_depth_and_peak(self):
        telemetry = ServeTelemetry()
        telemetry.enter_queue()
        telemetry.enter_queue()
        telemetry.exit_queue()
        snapshot = telemetry.snapshot()
        assert snapshot["queue_depth"] == 1
        assert snapshot["peak_queue_depth"] == 2

    def test_resilience_counters(self):
        telemetry = ServeTelemetry()
        telemetry.count_shed()
        telemetry.count_deadline_timeout()
        telemetry.count_draining_rejection()
        telemetry.count_write_timeout()
        telemetry.mark_draining()
        resilience = telemetry.snapshot()["resilience"]
        assert resilience == {"shed": 1, "deadline_timeouts": 1,
                              "draining_rejections": 1,
                              "write_timeouts": 1, "draining": True}

    def test_coalesce_and_store_blocks_merge_in(self):
        telemetry = ServeTelemetry()
        snapshot = telemetry.snapshot(
            coalesce={"executed": 2, "coalesced": 1},
            artifact_store={"hits": 3, "misses": 1})
        assert snapshot["coalesce"] == {"executed": 2, "coalesced": 1}
        assert snapshot["cache_hit_rate"] == pytest.approx(0.75)

    def test_exposition_scrapes_registry_and_context(self):
        telemetry = ServeTelemetry()
        telemetry.observe("design", 0, 0.010)
        parsed = parse_exposition(telemetry.exposition(
            coalesce={"executed": 4},
            artifact_store={"hits": 7, "max_entries": None}))
        assert parsed[("repro_serve_requests_total",
                       (("verb", "design"),))] == 1.0
        assert parsed[("repro_serve_coalesce",
                       (("event", "executed"),))] == 4.0
        assert parsed[("repro_serve_artifact_store",
                       (("counter", "hits"),))] == 7.0
        # Non-numeric context values are skipped, not rendered as NaN.
        assert ("repro_serve_artifact_store",
                (("counter", "max_entries"),)) not in parsed
        assert parsed[("repro_serve_uptime_seconds", ())] >= 0.0

    def test_recent_p50_feeds_retry_hint(self):
        telemetry = ServeTelemetry()
        assert telemetry.recent_p50_ms() == 0.0
        for elapsed in (0.010, 0.020, 0.030):
            telemetry.observe("design", 0, elapsed)
        assert telemetry.recent_p50_ms() == pytest.approx(20.0)

    def test_latency_window_is_bounded(self):
        telemetry = ServeTelemetry(latency_window=4)
        for index in range(10):
            telemetry.observe("design", 0, 0.001 * (index + 1))
        snapshot = telemetry.snapshot()
        assert snapshot["latency_ms"]["count"] == 4
        assert snapshot["latency_by_verb_ms"]["design"]["count"] == 4
        # The registry counter keeps the lifetime total.
        assert snapshot["requests"]["total"] == 10


def _brute_force_stats(samples_s):
    """The ``stats`` block the pre-summary rings computed: rank the last
    samples already scaled to milliseconds."""
    window = sorted(sample * 1000.0 for sample in samples_s)
    if not window:
        return {"count": 0, "p50": 0.0, "p99": 0.0, "max": 0.0}

    def rank(fraction):
        return window[min(max(1, math.ceil(len(window) * fraction)),
                          len(window)) - 1]

    return {"count": len(window), "p50": round(rank(0.50), 3),
            "p99": round(rank(0.99), 3), "max": round(window[-1], 3)}


class TestSummaryReplay:
    def test_stats_equal_brute_force_nearest_rank(self):
        window = 64
        rng = random.Random(20260417)
        verbs = ("design", "verify", "sweep", "ping")
        telemetry = ServeTelemetry(latency_window=window)
        history, by_verb, waits = [], {verb: [] for verb in verbs}, []
        for step in range(5000):
            verb = rng.choice(verbs)
            elapsed = rng.lognormvariate(-4.0, 1.5)
            telemetry.observe(verb, 0, elapsed)
            history.append(elapsed)
            by_verb[verb].append(elapsed)
            if step % 3 == 0:
                waited = rng.expovariate(200.0)
                telemetry.observe_queue_wait(waited)
                waits.append(waited)
            if step % 997 == 0 or step == 4999:
                snapshot = telemetry.snapshot()
                assert snapshot["latency_ms"] == _brute_force_stats(
                    history[-window:])
                assert snapshot["queue_wait_ms"] == _brute_force_stats(
                    waits[-window:])
                assert snapshot["latency_by_verb_ms"] == {
                    verb: _brute_force_stats(samples[-window:])
                    for verb, samples in sorted(by_verb.items())
                    if samples}
        parsed = parse_exposition(telemetry.exposition())
        for verb in verbs:
            labels = (("verb", verb),)
            assert parsed[("repro_serve_latency_seconds_count",
                           labels)] == len(by_verb[verb])
            median = parsed[("repro_serve_latency_seconds",
                             labels + (("quantile", "0.5"),))]
            assert round(1000.0 * median, 3) == \
                snapshot["latency_by_verb_ms"][verb]["p50"]


class TestRetryHint:
    def test_control_verbs_do_not_collapse_the_hint(self):
        server = ReproServer()
        for _ in range(100):
            server.telemetry.observe("health", 0, 0.0001)
        for _ in range(10):
            server.telemetry.observe("design", 0, 2.0)
        assert server._retry_after_ms() >= 2000

    def test_only_control_traffic_leaves_the_floor(self):
        telemetry = ServeTelemetry()
        for verb in CONTROL_VERBS:
            telemetry.observe(verb, 0, 5.0)
        assert telemetry.recent_p50_ms() == 0.0
