"""Tests for the area model (Fig. 12)."""

import pytest

from repro.hardware import AreaModel, GENERIC_45NM, GENERIC_90NM, extract_chain_resources


@pytest.fixture(scope="module")
def chain_area_report(paper_chain):
    return AreaModel(GENERIC_45NM).chain_area(extract_chain_resources(paper_chain))


class TestAreaModel:
    def test_total_area_near_paper_value(self, chain_area_report):
        # Paper: 0.12 mm² in 45 nm.
        assert 0.06 < chain_area_report.total_layout_area_mm2 < 0.25

    def test_fractions_sum_to_one(self, chain_area_report):
        assert sum(chain_area_report.fractions().values()) == pytest.approx(1.0)

    def test_halfband_and_equalizer_dominate_area(self, chain_area_report):
        # The two FIR-style stages hold most of the cells (consistent with
        # their dominant leakage share in Table II).
        fractions = chain_area_report.fractions()
        top_two = sorted(fractions, key=fractions.get, reverse=True)[:2]
        assert set(top_two) == {"Halfband", "Equalizer"}

    def test_sinc_stage_area_grows_with_width(self, chain_area_report):
        by_label = {s.label: s.cell_area_um2 for s in chain_area_report.stages}
        assert by_label["Sinc4 stage 1"] < by_label["Sinc4 stage 2"] < by_label["Sinc6 stage 3"]

    def test_stage_areas_positive(self, chain_area_report):
        assert all(s.cell_area_um2 > 0 for s in chain_area_report.stages)

    def test_older_node_is_larger(self, paper_chain):
        resources = extract_chain_resources(paper_chain)
        new = AreaModel(GENERIC_45NM).chain_area(resources)
        old = AreaModel(GENERIC_90NM).chain_area(resources)
        assert old.total_layout_area_mm2 > new.total_layout_area_mm2

    def test_utilization_inflates_layout_area(self, chain_area_report):
        assert (chain_area_report.total_layout_area_mm2
                > chain_area_report.total_cell_area_um2 / 1e6)


class TestStageArea:
    def test_stage_area_from_bit_counts(self, paper_chain):
        resources = extract_chain_resources(paper_chain)[0]
        lib = GENERIC_45NM
        stage = AreaModel(lib).stage_area(resources)
        bits = (lib.adder_area_per_bit_um2 * resources.total_adder_bits
                + lib.register_area_per_bit_um2 * resources.total_register_bits)
        assert stage.cell_area_um2 == pytest.approx(1.15 * bits)
        assert stage.label == resources.label

    def test_total_is_sum_of_stages(self, chain_area_report):
        assert chain_area_report.total_cell_area_um2 == pytest.approx(
            sum(s.cell_area_um2 for s in chain_area_report.stages))
