"""The span tracer: nesting, exception safety, disabled mode, worker
merge, summaries — plus hypothesis properties pinning the structural
invariants (balanced spans under arbitrary exception interleavings,
exactly-once cross-process merge).
"""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import trace


@pytest.fixture(autouse=True)
def _no_tracer_leaks():
    """Every test starts and must end with tracing disabled."""
    assert trace.active() is None
    yield
    assert trace.active() is None


def _spans(path):
    spans = trace.read_spans(str(path))
    trace.validate_spans(spans)
    return spans


class TestSpans:
    def test_nested_spans_record_parents(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with trace.tracing(str(path)):
            with trace.span("outer"):
                with trace.span("inner", depth=2):
                    pass
                with trace.span("sibling"):
                    pass
        spans = _spans(path)
        by_name = {s["name"]: s for s in spans}
        assert set(by_name) == {"outer", "inner", "sibling"}
        # Children close (and emit) before the parent does.
        assert by_name["outer"]["parent"] is None
        outer_id = by_name["outer"]["span"]
        assert by_name["inner"]["parent"] == outer_id
        assert by_name["sibling"]["parent"] == outer_id
        assert by_name["inner"]["attrs"] == {"depth": 2}

    def test_exception_emits_span_and_propagates(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with trace.tracing(str(path)):
            with pytest.raises(KeyError):
                with trace.span("boom"):
                    raise KeyError("missing")
        (span,) = _spans(path)
        assert span["ok"] is False
        assert span["attrs"]["error"] == "KeyError"
        assert span["dur_s"] >= 0.0

    def test_set_attaches_attrs_late(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with trace.tracing(str(path)):
            with trace.span("cas.get", backend="local") as span:
                span.set(hit=True, bytes=42)
        (entry,) = _spans(path)
        assert entry["attrs"] == {"backend": "local", "hit": True,
                                  "bytes": 42}

    def test_record_parents_under_current_span(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with trace.tracing(str(path)):
            with trace.span("request"):
                trace.record("queue_wait", 0.25, verb="design")
        spans = _spans(path)
        by_name = {s["name"]: s for s in spans}
        assert by_name["queue_wait"]["parent"] == \
            by_name["request"]["span"]
        assert by_name["queue_wait"]["dur_s"] == 0.25

    def test_spans_share_one_trace_id(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with trace.tracing(str(path)) as tracer:
            with trace.span("a"):
                pass
            with trace.span("b"):
                pass
            trace_id = tracer.trace_id
        assert {s["trace"] for s in _spans(path)} == {trace_id}


class TestDisabledMode:
    def test_span_returns_shared_null_singleton(self):
        assert trace.span("anything", k=1) is trace.NULL_SPAN
        assert trace.span("other") is trace.NULL_SPAN

    def test_null_span_is_inert(self):
        with trace.span("noop") as span:
            assert span.set(hit=True) is span

    def test_null_span_never_swallows_exceptions(self):
        with pytest.raises(RuntimeError):
            with trace.span("noop"):
                raise RuntimeError("through")

    def test_record_is_a_noop(self):
        trace.record("noop", 1.0)

    def test_install_restores_previous(self, tmp_path):
        outer = trace.Tracer(str(tmp_path / "outer.jsonl"))
        inner = trace.Tracer(str(tmp_path / "inner.jsonl"))
        try:
            assert trace.install(outer) is None
            assert trace.active() is outer
            previous = trace.install(inner)
            assert previous is outer
            trace.uninstall(previous)
            assert trace.active() is outer
        finally:
            trace.uninstall()
            outer.close()
            inner.close()

    def test_emit_after_close_is_dropped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = trace.Tracer(str(path))
        trace.install(tracer)
        try:
            tracer.close()
            with trace.span("late"):
                pass
        finally:
            trace.uninstall()
        assert _spans(path) == []


class TestWorkerMerge:
    def _write(self, path, pid, span_ids, trace_id="abc"):
        with open(path, "w", encoding="utf-8") as fh:
            for span_id in span_ids:
                fh.write(json.dumps({
                    "trace": trace_id, "span": span_id, "parent": None,
                    "pid": pid, "name": f"w{pid}", "t0": 0.0,
                    "dur_s": 0.001, "ok": True, "attrs": {},
                }) + "\n")

    def test_merge_folds_side_files_exactly_once(self, tmp_path):
        main = tmp_path / "run.jsonl"
        self._write(str(main), pid=100, span_ids=[1, 2])
        self._write(f"{main}.worker-101", pid=101, span_ids=[1])
        self._write(f"{main}.worker-102", pid=102, span_ids=[1, 2, 3])
        assert trace.merge_worker_traces(str(main)) == 4
        spans = _spans(main)
        keys = sorted((s["pid"], s["span"]) for s in spans)
        assert keys == [(100, 1), (100, 2), (101, 1),
                        (102, 1), (102, 2), (102, 3)]
        assert not [p for p in os.listdir(tmp_path)
                    if ".worker-" in p]

    def test_merge_without_side_files_is_a_noop(self, tmp_path):
        main = tmp_path / "run.jsonl"
        self._write(str(main), pid=100, span_ids=[1])
        assert trace.merge_worker_traces(str(main)) == 0
        assert len(_spans(main)) == 1

    def test_install_from_spec_writes_worker_side_file(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        parent = trace.Tracer(path, trace_id="deadbeef")
        spec = parent.worker_spec()
        parent.close()
        trace.install_from_spec(spec)
        try:
            with trace.span("payload.execute"):
                pass
            tracer = trace.active()
            assert tracer.path == f"{path}.worker-{os.getpid()}"
            assert tracer.trace_id == "deadbeef"
            tracer.close()
        finally:
            trace.uninstall()
        assert trace.merge_worker_traces(path) == 1
        (span,) = _spans(path)
        assert span["trace"] == "deadbeef"

    def test_install_from_spec_none_disables(self):
        trace.install_from_spec(None)
        assert trace.active() is None

    @given(st.lists(st.lists(st.integers(min_value=1, max_value=50),
                             min_size=1, max_size=8, unique=True),
                    min_size=0, max_size=5))
    @settings(max_examples=50, deadline=None)
    def test_merge_preserves_every_span_exactly_once(self, tmp_path_factory,
                                                     worker_span_ids):
        tmp_path = tmp_path_factory.mktemp("merge")
        main = tmp_path / "run.jsonl"
        self._write(str(main), pid=1, span_ids=[1, 2, 3])
        expected = [(1, 1), (1, 2), (1, 3)]
        for offset, span_ids in enumerate(worker_span_ids):
            pid = 1000 + offset
            self._write(f"{main}.worker-{pid}", pid=pid, span_ids=span_ids)
            expected.extend((pid, span_id) for span_id in span_ids)
        merged = trace.merge_worker_traces(str(main))
        assert merged == sum(len(ids) for ids in worker_span_ids)
        spans = _spans(main)
        assert sorted((s["pid"], s["span"]) for s in spans) \
            == sorted(expected)


def _entry(pid, span, parent):
    """A minimal well-formed span entry."""
    return {"name": "x", "dur_s": 0.0, "trace": "t", "pid": pid,
            "span": span, "parent": parent}


class TestValidation:
    def test_duplicate_span_id_rejected(self):
        entry = _entry(1, 1, None)
        with pytest.raises(ValueError, match="duplicate span id"):
            trace.validate_spans([entry, dict(entry)])

    def test_dangling_parent_rejected(self):
        with pytest.raises(ValueError, match="dangling parent"):
            trace.validate_spans([_entry(1, 2, 1)])

    def test_parents_scoped_per_pid(self):
        # Span 1 exists in pid 1 only: pid 2 referencing it dangles.
        spans = [_entry(1, 1, None), _entry(2, 2, 1)]
        with pytest.raises(ValueError, match="dangling parent"):
            trace.validate_spans(spans)


# A recursive tree of work units: (name-seed, raises?, children).  Its size
# is bounded (at most 12 leaves), so hypothesis discards almost no draws.
_work_tree = st.recursive(
    st.tuples(st.integers(min_value=0, max_value=9), st.booleans(), st.just(())),
    lambda children: st.tuples(st.integers(min_value=0, max_value=9),
                               st.booleans(), st.lists(children, max_size=3)),
    max_leaves=12)


def _run_tree(node, depth=0):
    """Open one span per node; children may raise, parents swallow."""
    seed, raises, children = node
    count = 1
    with trace.span(f"n{depth}.{seed}", raises=raises):
        for child in children:
            try:
                count += _run_tree(child, depth + 1)
            except RuntimeError:
                count += _tree_size(child)
        if raises:
            raise RuntimeError("injected")
    return count


def _tree_size(node):
    return 1 + sum(_tree_size(child) for child in node[2])


def _tree_errors(node):
    return int(node[1]) + sum(_tree_errors(child) for child in node[2])


class TestBalancedSpansProperty:
    @given(st.lists(_work_tree, min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_spans_balance_under_exception_interleavings(
            self, tmp_path_factory, forest):
        """Every entered span is emitted exactly once — whatever mix of
        nesting and raising the work does — and the parent linkage
        stays a well-formed tree (validate_spans)."""
        path = str(tmp_path_factory.mktemp("prop") / "t.jsonl")
        with trace.tracing(path):
            for node in forest:
                try:
                    _run_tree(node)
                except RuntimeError:
                    pass
        assert trace.active() is None
        spans = _spans(path)
        assert len(spans) == sum(_tree_size(node) for node in forest)
        errors = [s for s in spans if not s["ok"]]
        assert len(errors) == sum(_tree_errors(node) for node in forest)
        for span in errors:
            assert span["attrs"]["error"] == "RuntimeError"
        # After the forest, the span stack is empty: new spans are roots.
        with trace.tracing(path + ".2"):
            with trace.span("root-after"):
                pass
        (root,) = _spans(path + ".2")
        assert root["parent"] is None


class TestSummaries:
    def _entry(self, name, dur_s, ok=True, span_id=1, **attrs):
        return {"trace": "t", "span": span_id, "parent": None, "pid": 1,
                "name": name, "t0": 0.0, "dur_s": dur_s, "ok": ok,
                "attrs": attrs}

    def test_summarize_aggregates_and_sorts_by_total_time(self):
        rows = trace.summarize_spans([
            self._entry("fast", 0.001, span_id=1),
            self._entry("slow", 0.5, span_id=2),
            self._entry("slow", 0.25, span_id=3, ok=False),
        ])
        assert [r["name"] for r in rows] == ["slow", "fast"]
        slow = rows[0]
        assert slow["count"] == 2
        assert slow["total_s"] == pytest.approx(0.75)
        assert slow["max_s"] == pytest.approx(0.5)
        assert slow["mean_s"] == pytest.approx(0.375)
        assert slow["errors"] == 1
        assert slow["hit_rate"] is None

    def test_summarize_computes_hit_rate_from_hit_attr(self):
        rows = trace.summarize_spans([
            self._entry("cas.get", 0.001, span_id=1, hit=True),
            self._entry("cas.get", 0.002, span_id=2, hit=True),
            self._entry("cas.get", 0.003, span_id=3, hit=False),
            self._entry("cas.get", 0.004, span_id=4),  # no probe attr
        ])
        (row,) = rows
        assert row["hits"] == 2 and row["misses"] == 1
        assert row["hit_rate"] == pytest.approx(2 / 3)

    def test_summarize_text_renders_rows_and_total(self):
        text = trace.summarize_text([
            self._entry("cas.get", 0.5, span_id=1, hit=True),
            self._entry("flow.design", 0.25, span_id=2),
        ])
        lines = text.splitlines()
        assert lines[0].startswith("span")
        assert any(line.startswith("cas.get") and "100.0%" in line
                   for line in lines)
        assert any(line.startswith("flow.design") for line in lines)
        assert lines[-1].startswith("total")
        assert "2" in lines[-1] and "0.7500" in lines[-1]
