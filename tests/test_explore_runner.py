"""Integration tests for the batch sweep runner (repro.explore.runner)."""

import re

import pytest

from repro.explore import (
    SweepSpec,
    run_sweep,
    sweep_report_json,
    sweep_report_markdown,
    sweep_table_markdown,
)


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("sweep-cache")


@pytest.fixture(scope="module")
def two_point_sweep():
    return SweepSpec(output_bits=(12, 14))


@pytest.fixture(scope="module")
def cold_result(two_point_sweep, cache_dir):
    return run_sweep(two_point_sweep, jobs=1, cache_dir=cache_dir)


class TestRunSweep:
    def test_results_in_expansion_order(self, cold_result):
        assert [p.label for p in cold_result.points] == ["w12", "w14"]

    def test_cold_run_misses_everything(self, cold_result):
        assert cold_result.cache_hits == 0
        assert cold_result.cache_misses == 2
        assert all(not p.from_cache for p in cold_result.points)

    def test_record_metrics(self, cold_result):
        for point in cold_result.points:
            assert point.meets_spec
            assert point.power_mw > 0
            assert point.area_mm2 > 0
            assert point.gate_count > 0
            assert point.snr_db > 60.0  # linear-model estimate
            assert point.record["simulated_snr_db"] is None

    def test_output_bits_axis_changes_the_design(self, cold_result):
        w12, w14 = cold_result.points
        assert w12.record["spec"]["decimator"]["output_bits"] == 12
        assert w14.record["spec"]["decimator"]["output_bits"] == 14
        assert w12.gate_count < w14.gate_count

    def test_warm_run_hits_cache_and_is_identical(self, two_point_sweep,
                                                  cache_dir, cold_result):
        warm = run_sweep(two_point_sweep, jobs=1, cache_dir=cache_dir)
        assert warm.cache_hits == 2
        assert warm.cache_misses == 0
        assert all(p.from_cache for p in warm.points)
        assert sweep_report_json(warm) == sweep_report_json(cold_result)
        assert sweep_report_markdown(warm) == sweep_report_markdown(cold_result)

    def test_changed_flow_settings_miss_the_cache(self, two_point_sweep,
                                                  cache_dir, cold_result):
        changed = run_sweep(two_point_sweep, jobs=1, cache_dir=cache_dir,
                            snr_samples=8192, include_snr=False)
        # include_snr is False either way, but snr_samples is part of the
        # key, so the conservative behaviour is a miss.
        assert changed.cache_hits == 0
        assert changed.cache_misses == 2

    def test_no_cache_dir_disables_caching(self, two_point_sweep):
        result = run_sweep(SweepSpec(), jobs=1, cache_dir=None)
        assert result.cache_hits == 0
        assert len(result) == 1

    def test_parallel_workers_match_serial(self, two_point_sweep, tmp_path):
        parallel = run_sweep(two_point_sweep, jobs=2,
                             cache_dir=tmp_path / "par")
        serial = run_sweep(two_point_sweep, jobs=1,
                           cache_dir=tmp_path / "ser")
        assert sweep_report_json(parallel) == sweep_report_json(serial)

    @pytest.mark.parametrize("jobs", [1, 2, 4],
                             ids=["inline", "process", "process-4"])
    def test_every_executor_matches_inline(self, two_point_sweep, tmp_path,
                                           jobs, cold_result):
        result = run_sweep(two_point_sweep, jobs=jobs,
                           cache_dir=tmp_path / f"jobs{jobs}")
        assert result.metadata["executor"] == ("inline" if jobs == 1
                                               else "process")
        assert sweep_report_json(result) == sweep_report_json(cold_result)
        # Stage-reuse telemetry does not change with the executor either:
        # the warm phase's lookups are not counted twice.
        assert (result.metadata["artifact_store"]
                == cold_result.metadata["artifact_store"])

    def test_jobs_one_never_creates_a_pool(self, two_point_sweep, monkeypatch):
        import repro.explore.runner as runner_module

        def boom(*args, **kwargs):
            raise AssertionError("jobs=1 must run inline, without a pool")

        monkeypatch.setattr(runner_module, "ProcessPoolExecutor", boom)
        result = run_sweep(two_point_sweep, jobs=1)
        assert result.metadata["executor"] == "inline"
        assert len(result) == 2

    def test_single_miss_runs_inline_even_with_many_jobs(
            self, two_point_sweep, cache_dir, cold_result, monkeypatch):
        import repro.explore.runner as runner_module

        def boom(*args, **kwargs):
            raise AssertionError("at most one pending point must run inline")

        monkeypatch.setattr(runner_module, "ProcessPoolExecutor", boom)
        result = run_sweep(SweepSpec(), jobs=8)
        assert result.metadata["executor"] == "inline"
        cached = run_sweep(two_point_sweep, jobs=8, cache_dir=cache_dir)
        assert cached.cache_misses == 0
        assert cached.metadata["executor"] == "inline"

    def test_jobs_below_one_rejected(self, two_point_sweep):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            run_sweep(two_point_sweep, jobs=0)

    def test_shared_stages_are_reused_across_points(self, two_point_sweep):
        result = run_sweep(two_point_sweep, jobs=1)
        store = result.metadata["artifact_store"]
        # The two points differ only in output word width, so the halfband,
        # equalizer and mask-verification artifacts are all shared.
        assert store["hits"] >= 3

    def test_run_progress_lines_count_misses(self, two_point_sweep):
        lines = []
        run_sweep(two_point_sweep, jobs=1, progress=lines.append)
        # "[run i/N] label (elapsed Xs, eta ~Ys)" — timing varies, the
        # prefix and the shape of the timing suffix do not.
        pattern = re.compile(
            r"^\[run (\d)/2\] (w1[24]) "
            r"\(elapsed \d+\.\ds, eta ~\d+\.\ds\)$")
        matches = [pattern.match(line) for line in lines]
        assert all(matches)
        assert [(m.group(1), m.group(2)) for m in matches] == [
            ("1", "w12"), ("2", "w14")]

    def test_unknown_library_rejected_before_running(self, two_point_sweep):
        with pytest.raises(ValueError, match="unknown standard-cell library"):
            run_sweep(two_point_sweep, library="generic-7nm")

    def test_progress_callback_sees_every_point(self, two_point_sweep,
                                                cache_dir, cold_result):
        lines = []
        run_sweep(two_point_sweep, jobs=1, cache_dir=cache_dir,
                  progress=lines.append)
        assert len(lines) == 2
        assert all(line.startswith("[cache]") for line in lines)


class TestSweepReports:
    def test_table_has_one_row_per_point(self, cold_result):
        table = sweep_table_markdown(cold_result)
        rows = [line for line in table.splitlines() if line.startswith("| ")]
        assert len(rows) == 1 + len(cold_result)  # header + points

    def test_report_lists_axes_and_front(self, cold_result):
        report = sweep_report_markdown(cold_result)
        assert "Axis `output_bits`: 12, 14" in report
        assert "Pareto front" in report
        assert "w12" in report

    def test_json_report_is_canonical(self, cold_result):
        import json

        text = sweep_report_json(cold_result)
        payload = json.loads(text)
        assert payload["num_points"] == 2
        assert [p["pareto_rank"] for p in payload["points"]] == [1, 2]
        # Canonical: re-encoding the parsed payload reproduces the text.
        from repro.core import canonical_json
        assert canonical_json(payload) == text

    def test_ranked_orders_by_rank_then_power(self, cold_result):
        ranked = cold_result.ranked()
        assert [p.label for p in ranked] == ["w12", "w14"]
