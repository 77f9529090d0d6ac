"""Tests for the standard-cell technology model."""

import pytest

from repro.hardware import GENERIC_45NM, GENERIC_90NM, StandardCellLibrary
from repro.hardware.stdcell import library_by_name


class TestStandardCellLibrary:
    def test_default_is_45nm_at_1v1(self):
        assert GENERIC_45NM.nominal_vdd == 1.1
        assert "45" in GENERIC_45NM.name

    def test_energy_and_leakage_positive(self):
        for lib in (GENERIC_45NM, GENERIC_90NM):
            assert lib.adder_energy_per_bit_fj > 0
            assert lib.register_energy_per_bit_fj > 0
            assert lib.adder_leakage_per_bit_nw > 0
            assert lib.register_leakage_per_bit_nw > 0
            assert 0 < lib.utilization <= 1.0

    def test_90nm_has_higher_dynamic_energy(self):
        # Older node: larger capacitances, larger cells, less leakage per gate.
        assert GENERIC_90NM.adder_energy_per_bit_fj > GENERIC_45NM.adder_energy_per_bit_fj
        assert GENERIC_90NM.adder_area_per_bit_um2 > GENERIC_45NM.adder_area_per_bit_um2
        assert GENERIC_90NM.adder_leakage_per_bit_nw < GENERIC_45NM.adder_leakage_per_bit_nw

    def test_voltage_scaling_quadratic_for_dynamic(self):
        scaled = GENERIC_45NM.scaled_to_vdd(0.55)
        ratio = scaled.adder_energy_per_bit_fj / GENERIC_45NM.adder_energy_per_bit_fj
        assert ratio == pytest.approx(0.25, rel=1e-6)

    def test_voltage_scaling_linear_for_leakage(self):
        scaled = GENERIC_45NM.scaled_to_vdd(0.55)
        ratio = scaled.adder_leakage_per_bit_nw / GENERIC_45NM.adder_leakage_per_bit_nw
        assert ratio == pytest.approx(0.5, rel=1e-6)

    def test_voltage_scaling_preserves_area(self):
        scaled = GENERIC_45NM.scaled_to_vdd(0.9)
        assert scaled.adder_area_per_bit_um2 == GENERIC_45NM.adder_area_per_bit_um2

    def test_scaled_name_records_voltage(self):
        assert "0.90" in GENERIC_45NM.scaled_to_vdd(0.9).name


class TestLibraryByName:
    def test_known_names(self):
        assert library_by_name(GENERIC_45NM.name) is GENERIC_45NM
        assert library_by_name(GENERIC_90NM.name) is GENERIC_90NM

    def test_unknown_name_lists_the_choices(self):
        with pytest.raises(ValueError, match="generic-45nm"):
            library_by_name("generic-7nm")
