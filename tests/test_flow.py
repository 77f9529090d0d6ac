"""Tests for the one-call design-and-synthesis flow."""

import pytest

from repro.core import ChainDesignOptions
from repro.flow import (
    flow_report_text,
    run_design_flow,
    verification_table_markdown,
)


@pytest.fixture(scope="module")
def flow_result():
    return run_design_flow(measure_activity=False)


class TestRunDesignFlow:
    def test_default_flow_meets_spec(self, flow_result):
        assert flow_result.meets_spec

    def test_summary_fields(self, flow_result):
        summary = flow_result.summary()
        assert summary["meets_spec"] is True
        assert summary["design_sinc_orders"] == [4, 4, 6]
        assert summary["total_power_mw"] > 0
        assert summary["total_area_mm2"] > 0

    def test_flow_with_snr_simulation(self):
        result = run_design_flow(include_snr_simulation=True, snr_samples=16384,
                                 measure_activity=False)
        assert result.simulated_snr_db is not None
        assert result.simulated_snr_db > 75.0
        assert "simulated_snr_db" in result.summary()
        # The measured SNR is a verification check and counts toward the
        # overall verdict (simulated once, shared with the report).
        snr_checks = [c for c in result.verification.checks
                      if "end-to-end SNR" in c.name]
        assert len(snr_checks) == 1
        assert snr_checks[0].measured == pytest.approx(result.simulated_snr_db)

    def test_flow_with_custom_options(self):
        options = ChainDesignOptions(equalizer_order=32)
        result = run_design_flow(options=options, measure_activity=False)
        assert result.chain.equalizer.order == 32

    def test_flow_records_library(self, flow_result):
        assert "45nm" in flow_result.metadata["library"]


class TestReports:
    def test_text_report_contains_key_sections(self, flow_result):
        text = flow_report_text(flow_result)
        assert "Design summary" in text
        assert "Specification verification" in text
        assert "Power profile" in text
        assert "Area report" in text
        assert "PASS" in text

    def test_verification_table_markdown(self, flow_result):
        table = verification_table_markdown(flow_result)
        assert "| Check |" in table
        assert "PASS" in table

    def test_record_is_json_serializable(self, flow_result):
        import json

        record = flow_result.record()
        round_tripped = json.loads(json.dumps(record))
        assert round_tripped["summary"]["meets_spec"] is True
        assert round_tripped["gate_count"] > 0
        assert round_tripped["spec"]["modulator"]["osr"] == 16
        assert "verification" in round_tripped
        assert round_tripped["power_table"]


class TestBatchReports:
    """The formatters accept a sequence of results (sweep batches)."""

    @pytest.fixture(scope="class")
    def batch(self, flow_result):
        options = ChainDesignOptions(equalizer_order=32)
        other = run_design_flow(options=options, measure_activity=False)
        return [flow_result, other]

    def test_batch_default_labels(self, batch):
        table = verification_table_markdown(batch)
        assert "| design-0 |" in table
        assert "| design-1 |" in table

    def test_verification_table_batch(self, batch):
        table = verification_table_markdown(batch, labels=["a", "b"])
        assert table.startswith("| Design | Check |")
        rows = [line for line in table.splitlines() if line.startswith("| a |")]
        assert rows  # every check of the first design is labelled

    def test_single_result_unchanged_by_batch_support(self, flow_result):
        table = verification_table_markdown(flow_result)
        assert table.startswith("| Check |")
        assert "Design" not in table.splitlines()[0]

    def test_flow_report_text_batch_sections(self, batch):
        text = flow_report_text(batch, labels=["paper", "eq32"])
        assert "[paper]" in text
        assert "[eq32]" in text

    def test_label_count_mismatch_rejected(self, batch):
        with pytest.raises(ValueError, match="labels"):
            verification_table_markdown(batch, labels=["only-one"])

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            verification_table_markdown([])
