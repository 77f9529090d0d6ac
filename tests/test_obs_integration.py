"""Observability end-to-end: tracing is strictly out-of-band.

Pins the PR's headline contracts: sweep reports are byte-identical with
tracing on or off inline and on the process pool, the CLI ``--trace`` flag and
``trace summarize`` subcommand work end to end, sweeps emit the
documented span taxonomy, and the serve daemon answers the ``metrics``
control verb with a parseable exposition page while tracing its request
lifecycle.
"""

import io
import json

import pytest

from repro.cli import run_command
from repro.obs import trace
from repro.obs.metrics import parse_exposition
from serveutils import ServerHarness


@pytest.fixture(autouse=True)
def _no_tracer_leaks():
    assert trace.active() is None
    yield
    assert trace.active() is None


def _sweep_json(tmp_path, tag, jobs, trace_path=None):
    """One cold 2-point sweep via the CLI; returns the report bytes."""
    report = tmp_path / f"{tag}.json"
    argv = ["sweep", "--osr", "16", "32", "--quiet", "--jobs", str(jobs),
            "--cache-dir", str(tmp_path / f"cache-{tag}"),
            "--json", str(report)]
    if trace_path is not None:
        argv += ["--trace", str(trace_path)]
    out, err = io.StringIO(), io.StringIO()
    assert run_command(argv, stdout=out, stderr=err) == 0
    return report.read_bytes()


class TestByteIdentity:
    @pytest.mark.parametrize("jobs, executor", [(1, "inline"),
                                                (2, "process")],
                             ids=["inline", "process"])
    def test_reports_identical_with_and_without_tracing(self, tmp_path,
                                                        jobs, executor):
        trace_path = tmp_path / "run.jsonl"
        plain = _sweep_json(tmp_path, f"plain-{executor}", jobs)
        traced = _sweep_json(tmp_path, f"traced-{executor}", jobs,
                             trace_path=trace_path)
        assert plain == traced
        spans = trace.read_spans(str(trace_path))
        trace.validate_spans(spans)
        names = {span["name"] for span in spans}
        assert {"payload.execute", "flow.design", "flow.verify.mask",
                "cas.put", "cas.diff"} <= names
        executors = {span["attrs"].get("executor") for span in spans
                     if span["name"] == "payload.execute"}
        assert executors == {executor}

    def test_process_worker_spans_are_merged(self, tmp_path):
        trace_path = tmp_path / "run.jsonl"
        _sweep_json(tmp_path, "proc", 2, trace_path=trace_path)
        assert not list(tmp_path.glob("run.jsonl.worker-*"))
        spans = trace.read_spans(str(trace_path))
        payload_pids = {span["pid"] for span in spans
                        if span["name"] == "payload.execute"}
        probe_pids = {span["pid"] for span in spans
                      if span["name"] == "cas.diff"}
        # Payloads ran in pool workers, the probe in the parent.
        assert payload_pids.isdisjoint(probe_pids)

    def test_warm_rerun_traces_cache_hits(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        base = ["sweep", "--osr", "16", "--quiet", "--jobs", "1",
                "--cache-dir", cache_dir, "--json"]
        out, err = io.StringIO(), io.StringIO()
        assert run_command(base + [str(tmp_path / "cold.json")],
                           stdout=out, stderr=err) == 0
        warm_trace = tmp_path / "warm.jsonl"
        assert run_command(base + [str(tmp_path / "warm.json"),
                                   "--trace", str(warm_trace)],
                           stdout=out, stderr=err) == 0
        assert (tmp_path / "cold.json").read_bytes() \
            == (tmp_path / "warm.json").read_bytes()
        gets = [span for span in trace.read_spans(str(warm_trace))
                if span["name"] == "cas.get"]
        assert gets and all(span["attrs"]["hit"] for span in gets)


class TestTraceSummarizeCLI:
    def test_summarize_table_lists_stages(self, tmp_path):
        trace_path = tmp_path / "run.jsonl"
        _sweep_json(tmp_path, "s", 1, trace_path=trace_path)
        out, err = io.StringIO(), io.StringIO()
        assert run_command(["trace", "summarize", str(trace_path)],
                           stdout=out, stderr=err) == 0
        text = out.getvalue()
        for name in ("payload.execute", "flow.design", "cas.put", "total"):
            assert name in text

    def test_summarize_json_format(self, tmp_path):
        trace_path = tmp_path / "run.jsonl"
        _sweep_json(tmp_path, "j", 1, trace_path=trace_path)
        out, err = io.StringIO(), io.StringIO()
        assert run_command(["trace", "summarize", str(trace_path),
                            "--format", "json"],
                           stdout=out, stderr=err) == 0
        rows = json.loads(out.getvalue())
        assert {row["name"] for row in rows} >= {"payload.execute",
                                                 "flow.design"}
        for row in rows:
            assert row["count"] >= 1 and row["total_s"] >= 0.0

    def test_missing_file_is_a_cli_error(self, tmp_path):
        out, err = io.StringIO(), io.StringIO()
        code = run_command(
            ["trace", "summarize", str(tmp_path / "nope.jsonl")],
            stdout=out, stderr=err)
        assert code == 2
        assert err.getvalue().startswith("error:")

    def test_empty_trace_is_a_cli_error(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        out, err = io.StringIO(), io.StringIO()
        assert run_command(["trace", "summarize", str(empty)],
                           stdout=out, stderr=err) == 2
        assert "no spans" in err.getvalue()

    def test_corrupt_trace_is_a_cli_error(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        span = ('"trace": "t", "pid": 1, "span": 1, "parent": null, '
                '"t0": 0.0, "ok": true, "attrs": {}')
        for content in ("{not json",
                        '{"bad": 1}',
                        "[1]",
                        '{"name": "x", "dur_s": "slow", ' + span + "}",
                        '{"name": "x", "dur_s": true, ' + span + "}"):
            bad.write_text(content + "\n")
            out, err = io.StringIO(), io.StringIO()
            assert run_command(["trace", "summarize", str(bad)],
                               stdout=out, stderr=err) == 2, content
            lines = err.getvalue().splitlines()
            assert len(lines) == 1, content
            assert lines[0].startswith("error: invalid trace file"), content

    def test_unwritable_trace_path_is_a_cli_error(self, tmp_path):
        out, err = io.StringIO(), io.StringIO()
        code = run_command(
            ["sweep", "--osr", "16", "--quiet", "--no-cache", "--jobs", "1",
             "--trace", str(tmp_path / "no-such-dir" / "t.jsonl")],
            stdout=out, stderr=err)
        assert code == 2
        assert "cannot open trace file" in err.getvalue()
        assert trace.active() is None


class TestServeMetricsVerb:
    def test_metrics_verb_returns_parseable_exposition(self):
        with ServerHarness(jobs=1) as harness:
            assert harness.request("ping")["exit_code"] == 0
            response = harness.request("metrics")
            assert response["ok"] is True
            assert response["exit_code"] == 0
            parsed = parse_exposition(response["stdout"])
        assert parsed[("repro_serve_requests_total",
                       (("verb", "ping"),))] >= 1.0
        assert parsed[("repro_serve_uptime_seconds", ())] >= 0.0
        assert any(name.startswith("repro_serve_coalesce")
                   or name.startswith("repro_serve_artifact_store")
                   for name, _ in parsed)

    def test_stats_exposes_per_verb_latency(self):
        with ServerHarness(jobs=1) as harness:
            harness.request("ping")
            stats = json.loads(harness.request("stats")["stdout"])
        assert stats["latency_by_verb_ms"]["ping"]["count"] >= 1
        # The pinned top-level shape is intact alongside the new key.
        for key in ("queue_depth", "requests", "latency_ms",
                    "queue_wait_ms", "resilience", "uptime_s",
                    "coalesce", "artifact_store", "server"):
            assert key in stats

    def test_metrics_is_a_known_idempotent_control_verb(self):
        from repro.serve.protocol import CONTROL_VERBS, IDEMPOTENT_VERBS

        assert "metrics" in CONTROL_VERBS
        assert "metrics" in IDEMPOTENT_VERBS


class TestServeRequestTracing:
    def test_request_lifecycle_spans(self, tmp_path):
        path = str(tmp_path / "serve.jsonl")
        with trace.tracing(path):
            with ServerHarness(jobs=1) as harness:
                harness.request("ping")
                harness.request("design", ["--no-activity"])
        spans = trace.read_spans(path)
        trace.validate_spans(spans)
        requests = [span for span in spans
                    if span["name"] == "serve.request"]
        verbs = {span["attrs"]["verb"] for span in requests}
        assert {"ping", "design"} <= verbs
        names = {span["name"] for span in spans}
        assert {"serve.write", "serve.queue_wait", "serve.compute",
                "serve.coalesce"} <= names
        # The design request ran the instrumented flow inside the daemon.
        assert "flow.design" in names
        design = next(span for span in requests
                      if span["attrs"]["verb"] == "design")
        assert design["attrs"]["exit_code"] == 0
