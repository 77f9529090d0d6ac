"""Tests for the chain verification report."""

import pytest

from repro.core import VerificationReport, verify_chain
from repro.core.verification import CheckResult, check_snr_record_length, simulated_output_snr


class TestVerificationReport:
    def test_add_and_pass_logic(self):
        report = VerificationReport()
        report.add("ripple", 0.5, 1.0, "<=")
        report.add("attenuation", 90.0, 85.0, ">=")
        assert report.passed
        assert len(report.checks) == 2

    def test_failing_check_fails_report(self):
        report = VerificationReport()
        report.add("ripple", 2.0, 1.0, "<=")
        assert not report.passed

    def test_invalid_comparison_rejected(self):
        with pytest.raises(ValueError):
            VerificationReport().add("x", 1.0, 2.0, "==")

    def test_as_dict_round_trip(self):
        report = VerificationReport()
        report.add("ripple", 0.5, 1.0, "<=")
        data = report.as_dict()
        assert data["ripple"]["passed"] is True
        assert data["ripple"]["measured"] == 0.5

    def test_string_rendering(self):
        check = CheckResult("x", 1.0, 2.0, "<=", True)
        assert "PASS" in str(check)


class TestVerifyChain:
    def test_paper_chain_passes_table1(self, paper_chain):
        report = verify_chain(paper_chain)
        assert report.passed, str(report)

    def test_check_names_cover_table1_requirements(self, paper_chain):
        report = verify_chain(paper_chain)
        names = " ".join(check.name for check in report.checks)
        assert "ripple" in names
        assert "alias" in names
        assert "halfband" in names

    def test_ripple_measured_below_half_db(self, paper_chain):
        report = verify_chain(paper_chain)
        ripple = [c for c in report.checks if "ripple" in c.name][0]
        # Paper claims < 0.5 dB after equalization.
        assert ripple.measured < 0.6

    def test_include_snr_adds_check(self, paper_chain):
        report = verify_chain(paper_chain, include_snr=True, snr_samples=16384)
        names = [c.name for c in report.checks]
        assert any("SNR" in name for name in names)
        assert "simulated_snr_db" in report.metadata


class TestSimulatedSNR:
    def test_snr_close_to_paper_value(self, paper_chain):
        # Paper: 86 dB (14-bit).  The bit-true measurement is dominated by the
        # 14-bit output quantization and lands a couple of dB below.
        snr = simulated_output_snr(paper_chain, n_samples=32768)
        assert snr > 80.0

    def test_snr_scales_with_amplitude(self, paper_chain):
        low = simulated_output_snr(paper_chain, n_samples=16384, amplitude=0.2)
        high = simulated_output_snr(paper_chain, n_samples=16384, amplitude=0.7)
        assert high > low


class TestSNRRecordLength:
    def test_floor_is_eight_outputs(self):
        check_snr_record_length("--snr-samples", 128, 16)
        with pytest.raises(ValueError, match="--snr-samples 127 is too short"):
            check_snr_record_length("--snr-samples", 127, 16)

    def test_message_names_context_and_floor(self):
        with pytest.raises(ValueError, match=r"short for lte-20: .* at least 64$"):
            check_snr_record_length("stimulus_samples", 10, 8, context=" for lte-20")
