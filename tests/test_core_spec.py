"""Tests for the specification dataclasses (Table I)."""

import pytest

from repro.core import (
    ChainSpec,
    DecimationFilterSpec,
    ModulatorSpec,
    audio_chain_spec,
    paper_chain_spec,
)
from repro.core.spec import standard_chain_spec


class TestModulatorSpec:
    def test_paper_defaults_match_table1(self):
        spec = ModulatorSpec()
        assert spec.order == 5
        assert spec.out_of_band_gain == 3.0
        assert spec.bandwidth_hz == 20e6
        assert spec.sample_rate_hz == 640e6
        assert spec.osr == 16
        assert spec.quantizer_bits == 4
        assert spec.msa == 0.81
        assert spec.target_snr_db == 86.0

    def test_derived_nyquist_rate(self):
        assert ModulatorSpec().nyquist_rate_hz == pytest.approx(40e6)

    def test_resolution_bits_about_fourteen(self):
        assert ModulatorSpec().resolution_bits == pytest.approx(14.0, abs=0.1)

    def test_inconsistent_rate_rejected(self):
        with pytest.raises(ValueError):
            ModulatorSpec(sample_rate_hz=500e6)  # ≠ 2*BW*OSR

    @pytest.mark.parametrize("field,value", [
        ("order", 0), ("osr", 1), ("msa", 0.0), ("msa", 1.5),
        ("quantizer_bits", 0), ("bandwidth_hz", -1.0),
    ])
    def test_invalid_fields(self, field, value):
        kwargs = {field: value}
        if field == "bandwidth_hz":
            kwargs["sample_rate_hz"] = -32.0  # keep consistency check out of the way
        with pytest.raises(ValueError):
            ModulatorSpec(**kwargs)


class TestDecimationFilterSpec:
    def test_paper_defaults(self):
        spec = DecimationFilterSpec()
        assert spec.input_bits == 4
        assert spec.passband_edge_hz == 20e6
        assert spec.stopband_edge_hz == 23e6
        assert spec.stopband_attenuation_db == 85.0
        assert spec.output_rate_hz == 40e6
        assert spec.output_bits == 14

    def test_transition_band(self):
        assert DecimationFilterSpec().transition_band_hz == pytest.approx(3e6)

    def test_output_nyquist(self):
        assert DecimationFilterSpec().output_nyquist_hz == pytest.approx(20e6)

    def test_band_edge_ordering_enforced(self):
        with pytest.raises(ValueError):
            DecimationFilterSpec(passband_edge_hz=25e6, stopband_edge_hz=23e6)

    def test_passband_beyond_nyquist_rejected(self):
        with pytest.raises(ValueError):
            DecimationFilterSpec(passband_edge_hz=21e6, stopband_edge_hz=25e6,
                                 output_rate_hz=40e6)

    def test_invalid_ripple(self):
        with pytest.raises(ValueError):
            DecimationFilterSpec(passband_ripple_db=0.0)


class TestChainSpec:
    def test_paper_chain_consistency(self):
        spec = paper_chain_spec()
        assert spec.total_decimation == 16
        assert spec.num_halving_stages == 4

    def test_audio_chain_consistency(self):
        spec = audio_chain_spec()
        assert spec.total_decimation == 64
        assert spec.num_halving_stages == 6

    def test_mismatched_rates_rejected(self):
        with pytest.raises(ValueError):
            ChainSpec(
                modulator=ModulatorSpec(),
                decimator=DecimationFilterSpec(output_rate_hz=50e6,
                                               passband_edge_hz=20e6,
                                               stopband_edge_hz=23e6),
            )

    def test_mismatched_word_length_rejected(self):
        with pytest.raises(ValueError):
            ChainSpec(
                modulator=ModulatorSpec(quantizer_bits=3),
                decimator=DecimationFilterSpec(input_bits=4),
            )

    def test_non_power_of_two_decimation_rejected(self):
        modulator = ModulatorSpec(osr=12, sample_rate_hz=480e6)
        decimator = DecimationFilterSpec()
        spec = ChainSpec(modulator=modulator, decimator=decimator)
        with pytest.raises(ValueError):
            _ = spec.num_halving_stages


class TestSerialization:
    """to_dict / from_dict / content hashing (the sweep cache contract)."""

    def test_modulator_round_trip(self):
        spec = ModulatorSpec()
        assert ModulatorSpec.from_dict(spec.to_dict()) == spec

    def test_decimator_round_trip(self):
        spec = DecimationFilterSpec()
        assert DecimationFilterSpec.from_dict(spec.to_dict()) == spec

    def test_chain_round_trip(self):
        for spec in (paper_chain_spec(), audio_chain_spec()):
            assert ChainSpec.from_dict(spec.to_dict()) == spec

    def test_to_dict_is_json_serializable(self):
        import json

        text = json.dumps(paper_chain_spec().to_dict())
        assert ChainSpec.from_dict(json.loads(text)) == paper_chain_spec()

    def test_content_hash_stable(self):
        assert paper_chain_spec().content_hash() == paper_chain_spec().content_hash()

    def test_content_hash_differs_for_different_specs(self):
        assert paper_chain_spec().content_hash() != audio_chain_spec().content_hash()

    def test_content_hash_is_hex_sha256(self):
        digest = paper_chain_spec().content_hash()
        assert len(digest) == 64
        int(digest, 16)  # raises if not hex


class TestDerive:
    """ChainSpec.derive keeps retargeted specs self-consistent."""

    def test_derive_without_arguments_is_identity(self):
        spec = paper_chain_spec()
        assert spec.derive() == spec

    def test_derive_osr(self):
        spec = paper_chain_spec().derive(osr=8)
        assert spec.modulator.osr == 8
        assert spec.modulator.sample_rate_hz == pytest.approx(320e6)
        assert spec.decimator.output_rate_hz == pytest.approx(40e6)
        assert spec.num_halving_stages == 3

    def test_derive_bandwidth_scales_edges(self):
        spec = paper_chain_spec().derive(bandwidth_hz=10e6)
        assert spec.modulator.bandwidth_hz == pytest.approx(10e6)
        assert spec.decimator.passband_edge_hz == pytest.approx(10e6)
        assert spec.decimator.stopband_edge_hz == pytest.approx(11.5e6)
        assert spec.decimator.output_rate_hz == pytest.approx(20e6)
        assert spec.total_decimation == 16

    def test_derive_output_bits_and_attenuation(self):
        spec = paper_chain_spec().derive(output_bits=16,
                                         stopband_attenuation_db=95.0)
        assert spec.decimator.output_bits == 16
        assert spec.decimator.stopband_attenuation_db == pytest.approx(95.0)


class TestStandardChainSpec:
    def test_lte20_profile_is_the_paper_spec(self):
        assert standard_chain_spec(20e6, 16) == paper_chain_spec()

    def test_rates_and_edges_follow_bandwidth_and_osr(self):
        spec = standard_chain_spec(5e6, 32, order=4)
        assert spec.modulator.sample_rate_hz == 2 * 5e6 * 32
        assert spec.decimator.output_rate_hz == 10e6
        assert spec.decimator.passband_edge_hz == 5e6
        assert spec.decimator.stopband_edge_hz == pytest.approx(5.75e6)
        assert spec.modulator.out_of_band_gain == 1.7
