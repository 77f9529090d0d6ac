"""Tests for the perturbation model, draw tables and substrate hooks."""

import numpy as np
import pytest

from repro.core.chain import design_paper_chain
from repro.core.verification import (VerificationReport,
                                     distribution_pass_fraction,
                                     robust_percentile, verify_distribution)
from repro.dsm.signals import coherent_tone, jittered_tone
from repro.filters.fir import FIRFilterFixedPoint
from repro.filters.halfband import perturbed_halfband
from repro.flow.artifacts import ArtifactStore
from repro.hardware.corners import (CornerDraw, CornerModel,
                                    corner_scaled_library, draw_corners)
from repro.hardware.stdcell import GENERIC_45NM
from repro.hardware.synthesis import SynthesisFlow
from repro.robustness import (CSDDropout, ClockJitter, CoefficientDither,
                              InputMismatch, PerturbationModel, default_model)


@pytest.fixture(scope="module")
def chain():
    return design_paper_chain()


class TestPerturbationModel:
    def test_round_trips_through_dict(self):
        model = default_model()
        rebuilt = PerturbationModel.from_dict(model.to_dict())
        assert rebuilt == model
        assert rebuilt.to_dict() == model.to_dict()

    def test_disabled_axes_round_trip(self):
        model = PerturbationModel(jitter=ClockJitter(rms_s=5e-12))
        rebuilt = PerturbationModel.from_dict(model.to_dict())
        assert rebuilt.dither is None
        assert rebuilt.corners is None
        assert rebuilt.jitter == ClockJitter(rms_s=5e-12)

    def test_effective_variants_collapse_without_chain_axes(self):
        assert PerturbationModel(chain_variants=8).effective_variants() == 1
        assert PerturbationModel(dither=CoefficientDither(),
                                 chain_variants=8).effective_variants() == 8

    def test_rejects_nonpositive_variants(self):
        with pytest.raises(ValueError):
            PerturbationModel(chain_variants=0)

    def test_draw_table_is_seed_deterministic(self):
        model = default_model()
        kwargs = dict(n_samples=16, n_halfband_f1=3, n_halfband_f2=6,
                      n_equalizer_taps=65, nominal_vdd=1.1)
        a = model.draw_table(np.random.default_rng(11), **kwargs)
        b = model.draw_table(np.random.default_rng(11), **kwargs)
        c = model.draw_table(np.random.default_rng(12), **kwargs)
        assert a == b
        assert a != c

    def test_draw_table_structure(self):
        model = default_model()
        table = model.draw_table(np.random.default_rng(0), 10,
                                 n_halfband_f1=3, n_halfband_f2=6,
                                 n_equalizer_taps=65, nominal_vdd=1.1)
        assert table["n_samples"] == 10
        assert table["n_variants"] == model.chain_variants
        assert len(table["variants"]) == model.chain_variants
        for entry in table["variants"]:
            assert len(entry["halfband_f1"]) == 3
            assert len(entry["halfband_f2"]) == 6
            assert len(entry["equalizer"]) == 65
            assert set(entry["halfband_f1_drop"]) <= {0, 1}
        for sample in table["samples"]:
            assert 0 <= sample["variant"] < model.chain_variants
            assert "corner" in sample
            assert sample["jitter_seed"] >= 0

    def test_draw_table_skips_disabled_axes(self):
        model = PerturbationModel(mismatch=InputMismatch())
        table = model.draw_table(np.random.default_rng(0), 4,
                                 n_halfband_f1=3, n_halfband_f2=6,
                                 n_equalizer_taps=65, nominal_vdd=1.1)
        assert table["n_variants"] == 1
        assert table["variants"] == [{}]
        for sample in table["samples"]:
            assert "corner" not in sample
            assert sample["jitter_seed"] == 0
            assert sample["gain"] != 1.0 or sample["offset"] != 0.0


class TestJitteredTone:
    def test_zero_jitter_matches_reference_stimulus(self):
        n = 256
        f = 32 * 640e6 / n  # exactly bin-coherent
        t = np.arange(n)
        reference = 0.5 * np.sin(2.0 * np.pi * f / 640e6 * t)
        tone = jittered_tone(f, 0.5, 640e6, n, 0.0,
                             np.random.default_rng(0))
        assert np.array_equal(reference, tone)

    def test_jitter_perturbs_and_is_seeded(self):
        args = (5e6, 0.5, 640e6, 128, 2e-12)
        a = jittered_tone(*args, np.random.default_rng(3))
        b = jittered_tone(*args, np.random.default_rng(3))
        c = jittered_tone(*args, np.random.default_rng(4))
        clean = coherent_tone(5e6, 0.5, 640e6, 128)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, clean)
        assert np.max(np.abs(a - clean)) < 1e-3


class TestHalfbandPerturbation:
    def test_zero_draws_keep_coefficient_values(self, chain):
        perturbed = perturbed_halfband(chain.halfband, 24,
                                       f1_lsb_deltas=[0, 0, 0],
                                       f2_lsb_deltas=[0] * 6)
        assert np.allclose(perturbed.f1, chain.halfband.f1)
        assert np.allclose(perturbed.f2, chain.halfband.f2)

    def test_lsb_dither_moves_coefficients_by_lsbs(self, chain):
        deltas = [3, -2, 1]
        perturbed = perturbed_halfband(chain.halfband, 24,
                                       f1_lsb_deltas=deltas)
        moved = (perturbed.f1 - chain.halfband.f1) * 2.0 ** 24
        assert np.allclose(moved, deltas, atol=1e-6)

    def test_dropout_removes_csd_digits(self, chain):
        perturbed = perturbed_halfband(chain.halfband, 24,
                                       f2_dropout=[1, 0, 0, 0, 0, 0])
        original_digits = chain.halfband.f2_csd[0].nonzero_digits
        assert perturbed.f2_csd[0].nonzero_digits == original_digits - 1
        assert perturbed.f2[0] != chain.halfband.f2[0]
        assert perturbed.metadata["dropped_csd_digits"] == 1

    def test_attenuation_metadata_is_refreshed(self, chain):
        perturbed = perturbed_halfband(chain.halfband, 24,
                                       f2_lsb_deltas=[40, -40, 40, -40, 40,
                                                      -40])
        nominal_att = chain.halfband.metadata["achieved_attenuation_db"]
        assert perturbed.metadata["achieved_attenuation_db"] != nominal_att

    def test_with_coefficients_rejects_wrong_shape(self, chain):
        with pytest.raises(ValueError):
            chain.halfband.with_coefficients(np.zeros(2), chain.halfband.f2)


class TestEqualizerPerturbation:
    def test_tap_deltas_shift_quantized_taps_exactly(self, chain):
        bits = chain.options.equalizer_coefficient_bits
        deltas = np.zeros(chain.equalizer.order + 1)
        deltas[0] = 5
        deltas[-1] = -3
        perturbed = chain.equalizer.with_tap_deltas(deltas, bits)
        nominal_fir = FIRFilterFixedPoint(chain.equalizer.taps, bits)
        perturbed_fir = FIRFilterFixedPoint(perturbed.taps, bits)
        shift = np.asarray(perturbed_fir._int_taps, dtype=float) - \
            np.asarray(nominal_fir._int_taps, dtype=float)
        assert shift[0] == 5
        assert shift[-1] == -3
        assert np.all(shift[1:-1] == 0)

    def test_rejects_wrong_length(self, chain):
        with pytest.raises(ValueError):
            chain.equalizer.with_tap_deltas(np.zeros(3), 16)


class TestChainVariants:
    def test_with_stages_shares_unreplaced_stages(self, chain):
        clone = chain.with_stages()
        assert clone.halfband is chain.halfband
        assert clone.equalizer is chain.equalizer
        codes = np.random.default_rng(0).integers(0, 16, size=512)
        assert np.array_equal(clone.process_fixed(codes),
                              chain.process_fixed(codes))

    def test_fingerprint_tracks_perturbation(self, chain):
        nominal = chain.coefficient_fingerprint()
        assert chain.with_stages().coefficient_fingerprint() == nominal
        perturbed = chain.with_stages(halfband=perturbed_halfband(
            chain.halfband, 24, f1_lsb_deltas=[1, 0, 0]))
        assert perturbed.coefficient_fingerprint() != nominal

    def test_perturbed_words_differ_and_batch_stays_bitexact(self, chain):
        perturbed = chain.with_stages(halfband=perturbed_halfband(
            chain.halfband, 24, f2_dropout=[0, 0, 1, 0, 0, 0]))
        codes = np.random.default_rng(1).integers(0, 16, size=(3, 1024))
        batch = perturbed.process_fixed(codes)
        for row in range(3):
            assert np.array_equal(batch[row],
                                  perturbed.process_fixed(codes[row]))
        assert np.any(batch[0] != chain.process_fixed(codes[0]))


class TestCorners:
    def test_nominal_draw_has_unit_factors(self):
        draw = CornerDraw(vdd_v=1.1, process=1.0, temp_c=25.0)
        dyn, leak = draw.power_factors(1.1)
        assert dyn == pytest.approx(1.0)
        assert leak == pytest.approx(1.0)

    def test_hot_fast_corner_scales_up(self):
        draw = CornerDraw(vdd_v=1.21, process=1.05, temp_c=125.0)
        dyn, leak = draw.power_factors(1.1, leak_doubling_c=30.0)
        assert dyn > 1.2
        assert leak > 10.0  # leakage roughly doubles every 30 C

    def test_draws_are_seeded_and_bounded(self):
        model = CornerModel()
        a = draw_corners(model, np.random.default_rng(5), 8, 1.1)
        b = draw_corners(model, np.random.default_rng(5), 8, 1.1)
        assert [d.to_dict() for d in a] == [d.to_dict() for d in b]
        for draw in a:
            assert model.temp_min_c <= draw.temp_c <= model.temp_max_c
            assert draw.process > 0
            assert CornerDraw.from_dict(draw.to_dict()) == draw

    def test_draws_carry_the_model_leak_doubling(self):
        model = CornerModel(leak_doubling_c=20.0)
        draw = draw_corners(model, np.random.default_rng(0), 1, 1.1)[0]
        assert draw.leak_doubling_c == 20.0
        hot = CornerDraw(vdd_v=1.1, process=1.0, temp_c=45.0,
                         leak_doubling_c=20.0)
        _, leak = hot.power_factors(1.1)
        assert leak == pytest.approx(2.0)  # 20 C above 25 C reference

    def test_corner_scaled_library(self):
        draw = CornerDraw(vdd_v=1.1, process=2.0, temp_c=25.0)
        scaled = corner_scaled_library(GENERIC_45NM, draw)
        assert scaled.adder_energy_per_bit_fj == \
            pytest.approx(2.0 * GENERIC_45NM.adder_energy_per_bit_fj)

    def test_factors_on_the_nominal_report_equal_synthesis_at_the_corner(self, chain):
        # The Monte Carlo scales the nominal report by the draw's factors
        # instead of re-running synthesis on the corner-scaled library,
        # which it claims is the same estimate: the reference here.
        store = ArtifactStore()
        nominal = SynthesisFlow(GENERIC_45NM).run(chain, artifacts=store)
        draws = draw_corners(CornerModel(), np.random.default_rng(2011), 5,
                             GENERIC_45NM.nominal_vdd)
        for draw in draws:
            dyn, leak = draw.power_factors(GENERIC_45NM.nominal_vdd)
            corner = SynthesisFlow(corner_scaled_library(GENERIC_45NM, draw)).run(
                chain, artifacts=store)
            assert nominal.power.total_dynamic_mw * dyn == \
                pytest.approx(corner.power.total_dynamic_mw, rel=1e-12)
            assert nominal.power.total_leakage_uw * leak == \
                pytest.approx(corner.power.total_leakage_uw, rel=1e-12)
            assert nominal.total_area_mm2 * draw.area_scale == \
                pytest.approx(corner.total_area_mm2, rel=1e-12)


class TestDistributionChecks:
    def test_pass_fraction(self):
        values = [80.0, 84.0, 86.0, 90.0]
        assert distribution_pass_fraction(values, 83.0, ">=") == 0.75
        assert distribution_pass_fraction(values, 85.0, "<=") == 0.5
        assert distribution_pass_fraction([], 0.0, ">=") == 0.0
        with pytest.raises(ValueError):
            distribution_pass_fraction(values, 0.0, "==")

    def test_robust_percentile_picks_the_right_tail(self):
        values = list(range(101))
        assert robust_percentile(values, ">=", 99.0) == pytest.approx(1.0)
        assert robust_percentile(values, "<=", 99.0) == pytest.approx(99.0)
        with pytest.raises(ValueError):
            robust_percentile([], ">=")

    def test_verify_distribution_rejects_empty_without_mutating(self):
        report = VerificationReport()
        with pytest.raises(ValueError):
            verify_distribution("SNR", [], 83.0, ">=", report=report)
        assert report.checks == []

    def test_verify_distribution_adds_two_checks(self):
        report = verify_distribution("SNR", [84.0, 85.0, 86.0, 82.0], 83.0,
                                     ">=", min_pass_fraction=0.7)
        assert len(report.checks) == 2
        assert report.passed is False  # P99 tail sits below the limit
        names = [check.name for check in report.checks]
        assert "SNR yield" in names
        assert "SNR P99" in names
