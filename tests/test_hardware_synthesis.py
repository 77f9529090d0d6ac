"""Tests for the combined synthesis flow / report."""

import pytest

from repro.hardware import GENERIC_90NM, SynthesisFlow


class TestSynthesisReport:
    def test_report_totals(self, synthesis_report):
        assert 3.0 < synthesis_report.total_power_mw < 15.0
        assert 0.05 < synthesis_report.total_area_mm2 < 0.3

    def test_power_table_shape(self, synthesis_report):
        rows = synthesis_report.power_table()
        labels = [row["Filter Stage"] for row in rows]
        assert labels[-1] == "Total"
        assert "Halfband" in labels
        assert "Equalizer" in labels

    def test_power_distribution_sums_to_one(self, synthesis_report):
        assert sum(synthesis_report.power_distribution().values()) == pytest.approx(1.0)

    def test_measured_activity_recorded_when_enabled(self, paper_chain):
        report = SynthesisFlow().run(paper_chain, measure_activity=True,
                                     activity_samples=1024)
        assert report.metadata["measured_activity"]

    def test_alternative_library(self, paper_chain):
        report_45 = SynthesisFlow().run(paper_chain, measure_activity=False)
        report_90 = SynthesisFlow(GENERIC_90NM).run(paper_chain, measure_activity=False)
        assert report_90.total_area_mm2 > report_45.total_area_mm2
        assert report_90.power.total_dynamic_mw > report_45.power.total_dynamic_mw


class TestReportTotals:
    def test_gate_count_sums_stage_resources(self, synthesis_report):
        total = sum(r.equivalent_gate_count for r in synthesis_report.resources)
        assert synthesis_report.total_gate_count == total > 0
