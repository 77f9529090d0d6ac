"""Tests for the Verilog RTL generation."""

import re

import numpy as np
import pytest

from repro.fixedpoint import to_csd
from repro.hardware import (
    generate_chain_rtl,
    generate_clock_divider,
    generate_fir_csd,
    generate_hogenauer,
    generate_scaler,
)


def _assert_well_formed(module):
    """Structural sanity: balanced module/endmodule, declared ports present."""
    assert module.code.count("module ") >= 1
    assert module.code.count("endmodule") == module.code.count("module ") - \
        module.code.count("endmodule").__class__(0) or module.code.count("endmodule") >= 1
    assert module.code.strip().endswith("endmodule")
    for port in module.ports:
        assert re.search(rf"\b{port}\b", module.code), f"port {port} missing"
    # Balanced begin/end pairs.
    assert module.code.count("begin") == module.code.count(" end\n") + module.code.count(" end ") \
        or module.code.count("begin") >= 1


class TestHogenauerRTL:
    def test_well_formed(self):
        module = generate_hogenauer("sinc4_stage", 4, 2, 4, 8)
        _assert_well_formed(module)

    def test_integrator_and_comb_count(self):
        module = generate_hogenauer("sinc6_stage", 6, 2, 12, 18)
        assert module.code.count("integ_") > 0
        assert len(re.findall(r"reg signed \[17:0\] integ_\d;", module.code)) == 6
        assert len(re.findall(r"reg signed \[17:0\] comb_\d;", module.code)) == 6

    def test_resources_match_model(self):
        module = generate_hogenauer("sinc4_stage", 4, 2, 4, 8)
        assert module.resources["adders"] == 8
        assert module.resources["word_width"] == 8

    def test_retiming_registers_optional(self):
        with_retiming = generate_hogenauer("a", 4, 2, 4, 8, retimed=True)
        without = generate_hogenauer("b", 4, 2, 4, 8, retimed=False)
        assert "retimed" in with_retiming.code
        assert "retimed" not in without.code
        assert with_retiming.resources["registers"] > without.resources["registers"]

    def test_only_decimate_by_two_supported(self):
        with pytest.raises(ValueError):
            generate_hogenauer("x", 4, 4, 4, 12)

    def test_two_clock_domains_present(self):
        module = generate_hogenauer("sinc4_stage", 4, 2, 4, 8)
        assert "posedge clk_fast" in module.code
        assert "posedge clk_slow" in module.code


class TestFIRRTL:
    def test_well_formed(self):
        taps = np.array([0.25, 0.5, 0.25])
        module = generate_fir_csd("small_fir", taps, 16, 12)
        _assert_well_formed(module)

    def test_zero_taps_generate_no_products(self):
        taps = np.array([0.5, 0.0, 0.5])
        module = generate_fir_csd("hb_fir", taps, 16, 12)
        assert "product_1" not in module.code
        assert "product_0" in module.code and "product_2" in module.code

    def test_adder_count_matches_csd_structure(self):
        taps = np.array([0.375, -0.25, 0.375])
        module = generate_fir_csd("fir3", taps, 16, 12)
        expected = sum(max(0, to_csd(t, 12).nonzero_digits - 1) for t in taps) + 2
        assert module.resources["adders"] == expected

    def test_shift_operators_present_for_fractional_digits(self):
        module = generate_fir_csd("fir_shift", np.array([0.3, 0.7, 0.3]), 16, 14)
        assert "<<<" in module.code or ">>>" in module.code

    def test_tap_count_recorded(self, paper_chain):
        module = generate_fir_csd("equalizer", paper_chain.equalizer.taps, 16, 16)
        assert module.resources["taps"] == 65


class TestScalerRTL:
    def test_well_formed(self):
        module = generate_scaler("scaler", to_csd(1.2345, 12), 16, 12)
        _assert_well_formed(module)

    def test_one_horner_wire_per_digit(self):
        code = to_csd(10.825, 12)
        module = generate_scaler("scaler", code, 16, 12)
        assert len(re.findall(r"wire signed \[\d+:0\] horner_\d+", module.code)) == \
            code.nonzero_digits

    def test_adder_resources(self):
        code = to_csd(1.2345, 12)
        module = generate_scaler("scaler", code, 16, 12)
        assert module.resources["adders"] == max(0, code.nonzero_digits - 1)


class TestChainRTL:
    def test_all_stages_generated(self, paper_chain):
        modules = generate_chain_rtl(paper_chain)
        kinds = [name for name in modules if name.startswith("stage")]
        assert len(kinds) == 6
        assert "decimation_filter_top" in modules
        assert "clock_divider" in modules

    def test_top_level_instantiates_every_stage(self, paper_chain):
        modules = generate_chain_rtl(paper_chain)
        top = modules["decimation_filter_top"].code
        for name in modules:
            if name.startswith("stage"):
                assert f"u_{name}" in top

    def test_top_level_port_widths(self, paper_chain):
        modules = generate_chain_rtl(paper_chain)
        top = modules["decimation_filter_top"].code
        assert "[3:0]  din" in top
        assert "[13:0] dout" in top

    def test_every_module_well_formed(self, paper_chain):
        for module in generate_chain_rtl(paper_chain).values():
            _assert_well_formed(module)

    def test_clock_divider(self):
        module = generate_clock_divider("clkdiv", 4)
        _assert_well_formed(module)
        assert module.resources["registers"] == 4
