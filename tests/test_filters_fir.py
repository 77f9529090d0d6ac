"""Tests for FIR design wrappers and the bit-true FIR implementation."""

import numpy as np
import pytest
from scipy import signal

from repro.filters import (
    FIRFilterFixedPoint,
    SaramakiHalfbandDesigner,
    design_arbitrary_response_ls,
    design_lowpass_remez,
    fir_response,
)
from repro.filters.response import fir_freqz
from repro.fixedpoint.csd import encode_coefficients

#: The (taps, passband edge) pairs the CLI verbs request from the remez
#: port: the Saramäki sub-filters of every scenario, ``verify``, ``design``
#: and ``robustness run`` (stopband edge ``0.5 - passband``).  The edges
#: keep the exact floats the designer derives from each spec.
CLI_REMEZ_SHAPES = [(23, 0.2125), (23, 0.21250000000000005)] + [
    (taps, edge) for taps in (23, 27, 31, 35, 39)
    for edge in (0.225, 0.22499999999999995)]

#: A wider grid than the CLI uses, including shapes where the exchange
#: stops at its iteration limit before it converges.
WIDE_REMEZ_SHAPES = [(taps, edge, weight) for taps in range(11, 49, 2)
                     for edge in (0.15, 0.17, 0.19, 0.2, 0.21, 0.23)
                     for weight in (1.0, 10.0)]


def scipy_remez(taps, edge, stopband_weight=1.0):
    return signal.remez(taps, [0.0, edge, 0.5 - edge, 0.5], [1.0, 0.0],
                        weight=[1.0, stopband_weight], fs=1.0)


def max_weighted_error(taps, edge, stopband_weight):
    """Largest weighted deviation from the ideal low-pass on a dense grid."""
    passband = np.linspace(0.0, edge, 2048)
    stopband = np.linspace(0.5 - edge, 0.5, 2048)
    ripple = np.abs(np.abs(fir_freqz(taps, 2 * np.pi * passband)) - 1.0)
    leakage = np.abs(fir_freqz(taps, 2 * np.pi * stopband)) * stopband_weight
    return max(ripple.max(), leakage.max())


class TestRemezLowpass:
    def test_meets_basic_mask(self):
        taps = design_lowpass_remez(80, 0.2, 0.25)
        resp = fir_response(taps, 1.0, np.linspace(0, 0.5, 2048))
        assert resp.passband_ripple_db(0.2) < 1.0
        assert resp.stopband_attenuation_db(0.25) > 40.0

    def test_symmetric(self):
        taps = design_lowpass_remez(64, 0.2, 0.3)
        assert np.allclose(taps, taps[::-1])

    def test_stopband_weight_trades_ripple(self):
        balanced = design_lowpass_remez(60, 0.2, 0.25)
        weighted = design_lowpass_remez(60, 0.2, 0.25, stopband_weight=10.0)
        grid = np.linspace(0, 0.5, 4096)
        att_b = fir_response(balanced, 1.0, grid).stopband_attenuation_db(0.25)
        att_w = fir_response(weighted, 1.0, grid).stopband_attenuation_db(0.25)
        assert att_w > att_b

    def test_invalid_band_edges(self):
        with pytest.raises(ValueError):
            design_lowpass_remez(64, 0.3, 0.2)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            design_lowpass_remez(1, 0.2, 0.3)

    def test_odd_order_rejected(self):
        with pytest.raises(ValueError, match="even"):
            design_lowpass_remez(63, 0.2, 0.3)


class TestRemezAgainstScipy:
    """The numpy Parks–McClellan port against ``scipy.signal.remez``."""

    @pytest.mark.parametrize("taps,edge", CLI_REMEZ_SHAPES)
    def test_cli_shapes_match_scipy(self, taps, edge):
        ours = design_lowpass_remez(taps - 1, edge, 0.5 - edge)
        np.testing.assert_allclose(ours, scipy_remez(taps, edge), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("taps,edge", CLI_REMEZ_SHAPES)
    def test_cli_shapes_quantize_identically(self, taps, edge):
        n2 = (taps + 1) // 4
        f2 = SaramakiHalfbandDesigner(n2=n2, transition_start=edge).subfilter_coefficients()
        reference = scipy_remez(taps, edge)
        centre = taps // 2
        f2_scipy = np.array([reference[centre + 2 * j + 1] for j in range(n2)])
        ours = [c.value for c in encode_coefficients(f2, 24, 4)]
        theirs = [c.value for c in encode_coefficients(f2_scipy, 24, 4)]
        assert ours == theirs

    def test_stalled_exchange_raises_like_scipy(self):
        with pytest.raises(ValueError):
            scipy_remez(111, 0.15)
        with pytest.raises(ValueError, match="converge"):
            design_lowpass_remez(110, 0.15, 0.35)

    def test_wide_grid_is_as_good_as_scipy(self):
        for taps, edge, weight in WIDE_REMEZ_SHAPES:
            ours = design_lowpass_remez(taps - 1, edge, 0.5 - edge, stopband_weight=weight)
            theirs = scipy_remez(taps, edge, weight)
            assert max_weighted_error(ours, edge, weight) <= \
                max_weighted_error(theirs, edge, weight) * (1 + 1e-4), (taps, edge, weight)


class TestArbitraryResponseLS:
    def test_fits_flat_response(self):
        freqs = np.linspace(0, 0.4, 100)
        taps = design_arbitrary_response_ls(32, freqs, np.ones(100))
        resp = fir_response(taps, 1.0, freqs)
        assert np.allclose(np.abs(resp.magnitude), 1.0, atol=0.02)

    def test_fits_sloped_response(self):
        freqs = np.linspace(0, 0.45, 200)
        desired = 1.0 + freqs  # gentle tilt
        taps = design_arbitrary_response_ls(40, freqs, desired)
        resp = fir_response(taps, 1.0, freqs)
        assert np.max(np.abs(np.abs(resp.magnitude) - desired)) < 0.02

    def test_weighting_prioritizes_band(self):
        freqs = np.linspace(0, 0.45, 200)
        desired = np.where(freqs < 0.2, 1.0, 0.0)
        weights = np.where(freqs < 0.2, 100.0, 1.0)
        taps = design_arbitrary_response_ls(24, freqs, desired, weights)
        resp = fir_response(taps, 1.0, freqs[freqs < 0.18])
        assert np.allclose(np.abs(resp.magnitude), 1.0, atol=0.05)

    def test_result_is_symmetric_type1(self):
        freqs = np.linspace(0, 0.4, 64)
        taps = design_arbitrary_response_ls(20, freqs, np.ones(64))
        assert len(taps) == 21
        assert np.allclose(taps, taps[::-1])

    def test_odd_order_rejected(self):
        with pytest.raises(ValueError):
            design_arbitrary_response_ls(21, [0.1], [1.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            design_arbitrary_response_ls(20, [0.1, 0.2], [1.0])


class TestFIRFixedPoint:
    @pytest.fixture()
    def lowpass(self):
        taps = design_lowpass_remez(48, 0.2, 0.3)
        return FIRFilterFixedPoint(taps, coefficient_bits=16, data_bits=16,
                                   label="test FIR")

    def test_fixed_matches_float_within_lsb(self, lowpass, rng):
        x = rng.integers(-2000, 2000, 512)
        fixed = np.array([int(v) for v in lowpass.process(x)], dtype=float)
        ref = lowpass.process_float(x.astype(float))
        assert np.max(np.abs(fixed - ref)) <= 1.0

    def test_decimating_variant(self, rng):
        taps = design_lowpass_remez(48, 0.1, 0.2)
        filt = FIRFilterFixedPoint(taps, decimation=4)
        x = rng.integers(-100, 100, 400)
        assert len(filt.process(x)) == 100

    def test_symmetry_detection(self, lowpass):
        assert lowpass.is_symmetric

    def test_adder_count_less_than_naive(self, lowpass):
        # Exploiting symmetry and CSD must do better than
        # taps × coefficient_bits/2 adders of a naive multiplier array.
        naive = lowpass.n_taps * 8
        assert 0 < lowpass.adder_count() < naive

    def test_quantized_taps_close_to_original(self, lowpass):
        assert np.max(np.abs(lowpass.quantized_taps - lowpass.taps)) <= 2 ** -16

    def test_resource_summary_fields(self, lowpass):
        res = lowpass.resource_summary(40e6)
        assert res["n_taps"] == 49
        assert res["slow_clock_hz"] == pytest.approx(40e6)
        assert res["adders"] == lowpass.adder_count()

    def test_empty_taps_rejected(self):
        with pytest.raises(ValueError):
            FIRFilterFixedPoint(np.array([]))

    def test_invalid_decimation_rejected(self):
        with pytest.raises(ValueError):
            FIRFilterFixedPoint([1.0, 2.0], decimation=0)

    def test_dc_gain_preserved(self):
        taps = np.array([0.25, 0.5, 0.25])
        filt = FIRFilterFixedPoint(taps, coefficient_bits=12)
        x = np.full(64, 1000, dtype=np.int64)
        out = filt.process(x)
        assert abs(int(out[32]) - 1000) <= 1

    @pytest.mark.parametrize("taps, symmetric", [
        ([0.25, 0.5, 0.25], True),
        ([0.1, 0.4, 0.4, 0.1], True),
        ([0.7], True),
        ([0.5, 0.25, 0.125], False),
        ([0.3, 0.0, -0.3], False),
    ], ids=["odd", "even", "single", "decaying", "antisymmetric"])
    def test_is_symmetric(self, taps, symmetric):
        assert FIRFilterFixedPoint(taps).is_symmetric is symmetric

    def test_asymmetric_taps_cost_a_multiplier_each(self):
        taps = [0.5, 0.3125, 0.1875, 0.09375]
        filt = FIRFilterFixedPoint(taps, coefficient_bits=8)
        assert not filt.is_symmetric
        csd = sum(code.adder_cost for code in filt.csd_codes)
        assert filt.adder_count() == csd + len(taps) - 1
        mirrored = FIRFilterFixedPoint(taps + taps[::-1], coefficient_bits=8)
        assert mirrored.adder_count() == csd + len(taps) + len(taps) - 1

    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_output_rounds_half_up(self, dtype):
        # A single 0.5 tap halves each sample; the tie rounds towards +inf
        # on the int64 fast path and on the object gold model alike.
        filt = FIRFilterFixedPoint([0.5], coefficient_bits=4)
        x = np.array([1, -1, 3, -3, 4, -4], dtype=dtype)
        assert filt.process(x).tolist() == [1, 0, 2, -1, 2, -2]
