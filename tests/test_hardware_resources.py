"""Tests for resource extraction from the designed chain."""

import numpy as np
import pytest

from repro.filters import FIRFilterFixedPoint, HogenauerConfig, HogenauerDecimator, ScalingStage
from repro.filters.sinc import SincFilterSpec
from repro.fixedpoint import to_csd
from repro.hardware import DEFAULT_ACTIVITY, extract_chain_resources, resources_from_summary
from repro.hardware.resources import StageResources


class TestResourcesFromSummary:
    def test_basic_conversion(self):
        summary = {
            "label": "Sinc4", "adders": 8, "registers": 13, "register_bits": 104,
            "word_width": 8, "fast_clock_hz": 640e6, "slow_clock_hz": 320e6,
            "fast_adders": 4, "slow_adders": 4,
        }
        res = resources_from_summary(summary, "sinc", activity=0.4)
        assert res.fast_adder_bits == 32
        assert res.slow_adder_bits == 32
        assert res.total_register_bits == 104
        assert res.activity == 0.4
        assert res.kind == "sinc"

    def test_missing_split_defaults_to_slow(self):
        summary = {"label": "FIR", "adders": 10, "registers": 4, "word_width": 16,
                   "fast_clock_hz": 40e6, "slow_clock_hz": 40e6}
        res = resources_from_summary(summary, "fir")
        assert res.fast_adder_bits == 0
        assert res.slow_adder_bits == 160

    def test_gate_count_positive(self):
        res = StageResources("x", "fir", 16, 40e6, 40e6, 0, 160, 0, 64)
        assert res.equivalent_gate_count > 0


class TestExtractChainResources:
    def test_one_entry_per_stage(self, paper_chain):
        resources = extract_chain_resources(paper_chain)
        assert len(resources) == 6
        assert [r.kind for r in resources] == ["sinc", "sinc", "sinc", "halfband",
                                               "scaling", "equalizer"]

    def test_sinc_stage_clocks_follow_decimation(self, paper_chain):
        resources = extract_chain_resources(paper_chain)
        assert resources[0].fast_clock_hz == pytest.approx(640e6)
        assert resources[1].fast_clock_hz == pytest.approx(320e6)
        assert resources[2].fast_clock_hz == pytest.approx(160e6)
        assert resources[3].fast_clock_hz == pytest.approx(80e6)

    def test_default_activity_applied(self, paper_chain):
        resources = extract_chain_resources(paper_chain)
        halfband = [r for r in resources if r.kind == "halfband"][0]
        assert halfband.activity == DEFAULT_ACTIVITY["halfband"]

    def test_measured_activity_overrides_default(self, paper_chain):
        resources = extract_chain_resources(paper_chain,
                                            {"Sinc4 stage 1": 0.77})
        first = resources[0]
        assert first.activity == 0.77

    def test_sinc_stages_use_two_adders_per_order(self, paper_chain):
        # A Hogenauer stage of order N has N integrators and N combs, each
        # one adder of the stage's word width: 8, 8 and 12 for Sinc4,
        # Sinc4 and Sinc6.
        sinc = [r for r in extract_chain_resources(paper_chain)
                if r.kind == "sinc"]
        assert [(r.total_adder_bits, r.word_width) for r in sinc] == [
            (64, 8), (96, 12), (216, 18)]
        assert [r.total_adder_bits // r.word_width for r in sinc] == [8, 8, 12]

    def test_word_widths_grow_along_sinc_cascade(self, paper_chain):
        resources = extract_chain_resources(paper_chain)
        widths = [r.word_width for r in resources[:3]]
        assert widths == sorted(widths)
        assert widths[0] == 8 and widths[-1] == 18


class TestSummaryConversionDetails:
    def test_sinc_registers_split_two_thirds_fast(self):
        summary = {"adders": 8, "register_bits": 96, "word_width": 8,
                   "fast_clock_hz": 640e6, "slow_clock_hz": 320e6}
        res = resources_from_summary(summary, "sinc")
        assert (res.register_bits_fast, res.register_bits_slow) == (64, 32)

    def test_register_bits_default_to_registers_times_width(self):
        summary = {"adders": 3, "registers": 5, "word_width": 12,
                   "fast_clock_hz": 40e6}
        res = resources_from_summary(summary, "fir")
        assert res.total_register_bits == 60
        assert res.slow_clock_hz == res.fast_clock_hz == 40e6

    def test_label_defaults_to_kind_and_clocks_leave_metadata(self):
        summary = {"adders": 1, "word_width": 16, "fast_clock_hz": 1e6,
                   "slow_clock_hz": 1e6, "n_taps": 3}
        res = resources_from_summary(summary, "equalizer")
        assert res.label == "equalizer"
        assert res.metadata == {"adders": 1, "n_taps": 3}


class TestHogenauerResourceModel:
    @pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
    def test_one_integrator_and_one_comb_adder_per_order(self, order):
        dec = HogenauerDecimator(SincFilterSpec(order, 2, 4, 640e6))
        summary = dec.resource_summary()
        assert summary["adders"] == 2 * order
        assert summary["fast_adders"] == summary["slow_adders"] == order
        res = resources_from_summary(summary, "sinc")
        assert res.fast_adder_bits == res.slow_adder_bits == order * dec.width

    @pytest.mark.parametrize("retimed, pipelined", [
        (False, False), (False, True), (True, False), (True, True)])
    def test_registers_follow_the_configuration(self, retimed, pipelined):
        dec = HogenauerDecimator(SincFilterSpec(4, 2, 4, 640e6),
                                 HogenauerConfig(retimed, pipelined))
        width = dec.width
        # Integrators and comb delays always; one retiming register per
        # accumulator and one rate-boundary pipeline register optionally.
        expected = (8 + 4 * retimed + pipelined) * width
        assert dec.resource_summary()["registers"] == expected

    def test_clocks_straddle_the_rate_change(self):
        summary = HogenauerDecimator(SincFilterSpec(6, 2, 12, 160e6)).resource_summary()
        assert summary["fast_clock_hz"] == pytest.approx(160e6)
        assert summary["slow_clock_hz"] == pytest.approx(80e6)


class TestFIRResourceModel:
    def test_asymmetric_adders_match_csd_structure(self):
        taps = np.array([0.375, -0.25, 0.3])
        fir = FIRFilterFixedPoint(taps, coefficient_bits=12)
        csd_adders = sum(to_csd(t, 12).adder_cost for t in taps)
        # One adder per extra CSD digit, and two to combine three products.
        assert fir.resource_summary(40e6)["adders"] == csd_adders + 2

    def test_symmetric_taps_share_their_multiplier(self):
        taps = np.array([0.375, -0.25, 0.375])
        fir = FIRFilterFixedPoint(taps, coefficient_bits=12)
        csd_adders = to_csd(0.375, 12).adder_cost + to_csd(-0.25, 12).adder_cost
        # Two distinct multipliers, one pre-adder for the shared pair, one
        # adder to combine the two products.
        assert fir.adder_count() == csd_adders + 1 + 1

    def test_zero_taps_cost_no_csd_adders(self):
        assert to_csd(0.0, 12).adder_cost == 0
        fir = FIRFilterFixedPoint(np.array([0.5, 0.0, 0.5]), coefficient_bits=12)
        assert fir.adder_count() == 2  # one pre-adder, one combining adder

    @pytest.mark.parametrize("n_taps", [1, 2, 5, 8])
    def test_registers_are_the_delay_line(self, n_taps):
        fir = FIRFilterFixedPoint(np.full(n_taps, 0.125), data_bits=14)
        summary = fir.resource_summary(40e6)
        assert summary["registers"] == n_taps - 1
        assert summary["register_bits"] == (n_taps - 1) * 14
        assert summary["n_taps"] == n_taps

    def test_paper_equalizer_tap_count(self, paper_chain):
        equalizer = extract_chain_resources(paper_chain)[-1]
        assert equalizer.kind == "equalizer"
        assert equalizer.metadata["n_taps"] == 65


class TestScalerResourceModel:
    @pytest.mark.parametrize("scale", [0.5, 1.0, 1.2345, 10.825])
    def test_one_adder_per_extra_csd_digit(self, scale):
        stage = ScalingStage(scale=scale, coefficient_bits=12, data_bits=16)
        digits = stage.csd.nonzero_digits
        assert len(stage.horner_steps) == digits
        assert stage.resource_summary(40e6)["adders"] == max(0, digits - 1)

    def test_paper_scaler_adders_follow_its_code(self, paper_chain):
        scaler = extract_chain_resources(paper_chain)[4]
        assert scaler.kind == "scaling"
        digits = paper_chain.scaling.csd.nonzero_digits
        assert scaler.total_adder_bits == (digits - 1) * scaler.word_width


class TestChainClocking:
    @pytest.mark.parametrize("index", range(6))
    def test_clock_ratio_matches_stage_decimation(self, paper_chain, index):
        info = paper_chain.stage_infos()[index]
        res = extract_chain_resources(paper_chain)[index]
        assert res.label == info.name
        assert res.fast_clock_hz == pytest.approx(info.input_rate_hz)
        assert res.fast_clock_hz / res.slow_clock_hz == pytest.approx(info.decimation)
