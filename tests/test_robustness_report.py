"""Tests for yield reports, robust Pareto ranking and golden checks."""

import json

import pytest

from repro.explore.pareto import ROBUST_OBJECTIVES, pareto_rank
from repro.explore.report import render_report_from_json
from repro.robustness import (ROBUSTNESS_SCHEMA_VERSION,
                              RobustnessSuiteResult, YieldReport,
                              distribution_stats, robustness_golden_name,
                              robustness_report_json,
                              robustness_report_markdown)
from repro.scenarios.golden import check_record


def synthetic_record(snr_p01=82.0, power_p99=12.0, yield_frac=0.9,
                     gate_count=50000, passed=True, nominal_snr=85.0,
                     worst_snr=81.0):
    """A minimal yield record carrying every field the reports read."""
    return {
        "schema": ROBUSTNESS_SCHEMA_VERSION,
        "run": {"n_samples": 16},
        "nominal": {"snr_db": nominal_snr, "power_mw": 9.0,
                    "area_mm2": 0.12, "gate_count": gate_count},
        "distributions": {
            "snr_db": {"p01": snr_p01},
            "power_mw": {"p99": power_p99},
            "area_mm2": {"p99": 0.125},
        },
        "yield": {"pass_rate": yield_frac, "passed": passed},
        "worst_case": {"snr_db": worst_snr},
    }


def synthetic_suite():
    robust = YieldReport(scenario="robust", record=synthetic_record(
        snr_p01=84.0, power_p99=10.0, yield_frac=1.0))
    fragile = YieldReport(scenario="fragile", record=synthetic_record(
        snr_p01=70.0, power_p99=11.0, yield_frac=0.5, passed=False))
    return RobustnessSuiteResult(reports=[robust, fragile])


class TestDistributionStats:
    def test_stats_keys_and_values(self):
        stats = distribution_stats(range(101))
        assert stats["mean"] == pytest.approx(50.0)
        assert stats["min"] == 0.0
        assert stats["max"] == 100.0
        assert stats["p01"] == pytest.approx(1.0)
        assert stats["p99"] == pytest.approx(99.0)

    def test_empty_distribution_raises(self):
        with pytest.raises(ValueError):
            distribution_stats([])


class TestYieldReport:
    def test_properties_read_the_record(self):
        report = YieldReport(scenario="x", record=synthetic_record())
        assert report.n_samples == 16
        assert report.yield_fraction == 0.9
        assert report.snr_p99_db == 82.0
        assert report.power_p99_mw == 12.0
        assert report.worst_case_snr_db == 81.0
        assert report.passed is True

    def test_metrics_row_carries_robust_objectives(self):
        row = YieldReport(scenario="x",
                          record=synthetic_record()).metrics_row()
        for objective in ROBUST_OBJECTIVES:
            assert objective.name in row


class TestSuiteRanking:
    def test_robust_run_dominates_fragile_one(self):
        suite = synthetic_suite()
        assert suite.robust_ranks() == [1, 2]
        assert [r.scenario for r in suite.ranked()] == ["robust", "fragile"]

    def test_nominally_equal_designs_separate_on_p99(self):
        # Same nominal SNR/power; only the tails differ.
        rows = [
            {"snr_p99_db": 84.0, "power_p99_mw": 10.0, "yield_fraction": 1.0,
             "gate_count": 1000},
            {"snr_p99_db": 70.0, "power_p99_mw": 14.0, "yield_fraction": 0.6,
             "gate_count": 1000},
        ]
        assert pareto_rank(rows, ROBUST_OBJECTIVES) == [1, 2]


class TestRendering:
    def test_markdown_table_lists_runs_by_rank(self):
        text = robustness_report_markdown(synthetic_suite())
        assert "| Scenario |" in text
        lines = text.splitlines()
        robust_line = next(i for i, l in enumerate(lines) if "| robust |" in l)
        fragile_line = next(i for i, l in enumerate(lines)
                            if "| fragile |" in l)
        assert robust_line < fragile_line
        assert "Runs failing their yield targets: fragile" in text

    def test_json_report_round_trips(self):
        suite = synthetic_suite()
        text = robustness_report_json(suite)
        payload = json.loads(text)
        assert payload["schema"] == ROBUSTNESS_SCHEMA_VERSION
        assert payload["num_runs"] == 2
        assert render_report_from_json(text, "json") == text
        assert render_report_from_json(text, "markdown") == \
            robustness_report_markdown(suite)

    def test_unknown_schema_is_rejected(self):
        with pytest.raises(ValueError):
            render_report_from_json(json.dumps({"schema": 99}))

    def test_unknown_format_is_rejected(self):
        text = robustness_report_json(synthetic_suite())
        with pytest.raises(ValueError):
            render_report_from_json(text, "html")


class TestGolden:
    def test_golden_name_prefix(self):
        assert robustness_golden_name("lte-20") == "robustness-lte-20"

    def test_missing_golden_is_a_failure(self):
        diffs = check_record(robustness_golden_name("no-such-scenario"), {})
        assert len(diffs) == 1
        assert diffs[0].kind == "no-golden"

    def test_committed_golden_matches_itself(self):
        from repro.scenarios.golden import load_golden

        golden = load_golden(robustness_golden_name("lte-20"))
        assert golden is not None, (
            "robustness-lte-20 golden missing; run "
            "'python -m repro robustness check --write-golden'")
        assert check_record(robustness_golden_name("lte-20"), golden) == []
        assert golden["run"]["n_samples"] == 8
        assert golden["run"]["seed"] == 2011
