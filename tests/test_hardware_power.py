"""Tests for the activity-based power model (Table II / Fig. 13)."""

import pytest

from repro.hardware import (
    GENERIC_45NM,
    PowerModel,
    extract_chain_resources,
    measure_hogenauer_activity,
)


@pytest.fixture(scope="module")
def chain_power_report(paper_chain):
    resources = extract_chain_resources(paper_chain)
    return PowerModel(GENERIC_45NM).chain_power(resources)


class TestStagePower:
    def test_all_components_positive(self, chain_power_report):
        for stage in chain_power_report.stages:
            assert stage.dynamic_mw > 0
            assert stage.leakage_uw > 0
            assert stage.clock_mw >= 0

    def test_retiming_reduces_dynamic_power(self, paper_chain):
        resources = extract_chain_resources(paper_chain)
        model = PowerModel(GENERIC_45NM)
        retimed = model.chain_power(resources, retimed=True)
        glitchy = model.chain_power(resources, retimed=False)
        assert glitchy.total_dynamic_mw > retimed.total_dynamic_mw

    def test_supply_scaling_reduces_power(self, paper_chain):
        resources = extract_chain_resources(paper_chain)
        nominal = PowerModel(GENERIC_45NM).chain_power(resources)
        scaled = PowerModel(GENERIC_45NM, supply_v=0.9).chain_power(resources)
        assert scaled.total_dynamic_mw < nominal.total_dynamic_mw


class TestTable2Reproduction:
    def test_total_dynamic_power_in_paper_range(self, chain_power_report):
        # Paper: 8.04 mW total dynamic at 1.1 V.  The calibrated model must
        # land in the same range (a factor ~1.5 band).
        assert 5.0 < chain_power_report.total_dynamic_mw < 12.0

    def test_total_leakage_in_paper_range(self, chain_power_report):
        # Paper: 771 uW total leakage.
        assert 400.0 < chain_power_report.total_leakage_uw < 1200.0

    def test_first_sinc_dominates_sinc_stages(self, chain_power_report):
        by_label = {s.label: s.dynamic_mw + s.clock_mw for s in chain_power_report.stages}
        assert by_label["Sinc4 stage 1"] > by_label["Sinc4 stage 2"]

    def test_scaling_stage_is_smallest_contributor(self, chain_power_report):
        fractions = chain_power_report.dynamic_fractions()
        assert min(fractions, key=fractions.get) == "Scaling Stage"

    def test_halfband_fraction_modest(self, chain_power_report):
        # The paper's headline: the optimized halfband contributes only ~16%
        # of the dynamic power despite being a 110th-order filter.
        fractions = chain_power_report.dynamic_fractions()
        assert fractions["Halfband"] < 0.25

    def test_equalizer_and_first_sinc_are_major_contributors(self, chain_power_report):
        fractions = chain_power_report.dynamic_fractions()
        top_two = sorted(fractions, key=fractions.get, reverse=True)[:3]
        assert "Equalizer" in top_two
        assert "Sinc4 stage 1" in top_two

    def test_equalizer_dominates_leakage(self, chain_power_report):
        # Table II: the equalizer has by far the largest leakage (538 of 771 uW)
        # because it instantiates the most cells; the halfband is second.
        leakage = {s.label: s.leakage_uw for s in chain_power_report.stages}
        ranked = sorted(leakage, key=leakage.get, reverse=True)
        assert set(ranked[:2]) == {"Equalizer", "Halfband"}

    def test_fractions_sum_to_one(self, chain_power_report):
        assert sum(chain_power_report.dynamic_fractions().values()) == pytest.approx(1.0)

    def test_table_rows_include_total(self, chain_power_report):
        rows = chain_power_report.as_table()
        assert rows[-1]["Filter Stage"] == "Total"
        assert len(rows) == 7


class TestMeasuredActivity:
    def test_activity_measurement_covers_sinc_stages(self, paper_chain):
        activity = measure_hogenauer_activity(paper_chain, n_samples=2048)
        assert set(activity) == {"Sinc4 stage 1", "Sinc4 stage 2", "Sinc6 stage 3"}
        for value in activity.values():
            assert 0.0 < value < 1.0

    def test_activity_runs_neither_fir_engine_nor_hogenauer_gold_model(
            self, paper_chain, monkeypatch):
        # Counts calls, not time: the measurement must take the exact
        # recursion and the fast traced path, never the slow engines.
        from repro.dsm.modulator import ErrorFeedbackSimulator
        from repro.filters.hogenauer import HogenauerDecimator
        from repro.hardware import SynthesisFlow

        calls = {"ErrorFeedbackSimulator.simulate": 0,
                 "HogenauerDecimator._process_reference": 0}
        for owner, name in ((ErrorFeedbackSimulator, "simulate"),
                            (HogenauerDecimator, "_process_reference")):
            original = getattr(owner, name)

            def counting(*args, _key=f"{owner.__name__}.{name}",
                         _original=original, **kwargs):
                calls[_key] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counting)
        report = SynthesisFlow().run(paper_chain, measure_activity=True)
        assert set(report.metadata["measured_activity"]) == {
            "Sinc4 stage 1", "Sinc4 stage 2", "Sinc6 stage 3"}
        assert calls == {"ErrorFeedbackSimulator.simulate": 0,
                         "HogenauerDecimator._process_reference": 0}


class TestTotals:
    def test_stage_total_adds_leakage_in_milliwatts(self, chain_power_report):
        for s in chain_power_report.stages:
            assert s.total_mw == pytest.approx(s.dynamic_mw + s.clock_mw + s.leakage_uw / 1000.0)

    def test_report_total_is_sum_of_stage_totals(self, chain_power_report):
        assert chain_power_report.total_mw == pytest.approx(
            sum(s.total_mw for s in chain_power_report.stages))
