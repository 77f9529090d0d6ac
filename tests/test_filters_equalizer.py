"""Tests for the droop-compensating equalizer design."""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from repro.filters import (
    FIRFilterFixedPoint,
    compensated_response,
    design_droop_equalizer,
    residual_ripple_db,
)


@pytest.fixture(scope="module")
def droop_and_equalizer():
    from repro.core import design_paper_chain

    chain = design_paper_chain()
    freqs = np.linspace(0.0, 20e6, 400)
    droop = chain.droop_response(freqs)
    return droop, chain.equalizer, chain


class TestEqualizerDesign:
    def test_order_matches_request(self, droop_and_equalizer):
        _, eq, _ = droop_and_equalizer
        assert eq.order == 64
        assert len(eq.taps) == 65

    def test_taps_symmetric_linear_phase(self, droop_and_equalizer):
        _, eq, _ = droop_and_equalizer
        assert np.allclose(eq.taps, eq.taps[::-1], atol=1e-12)

    def test_gain_rises_toward_band_edge(self, droop_and_equalizer):
        # The equalizer must boost where the sinc cascade droops (Fig. 10).
        _, eq, _ = droop_and_equalizer
        resp = eq.response(np.linspace(1e5, 19e6, 100))
        mags = np.abs(resp.magnitude)
        assert mags[-1] > mags[0]

    def test_dc_gain_near_unity(self, droop_and_equalizer):
        _, eq, _ = droop_and_equalizer
        dc = abs(eq.response(np.array([0.0, 1e5])).magnitude[0])
        assert dc == pytest.approx(1.0, abs=0.05)

    def test_compensated_response_flat(self, droop_and_equalizer):
        droop, eq, _ = droop_and_equalizer
        freqs = np.linspace(0.0, 19e6, 256)
        comp = compensated_response(droop, eq, freqs)
        ripple = comp.passband_ripple_db(19e6)
        # Paper: residual ripple < 0.5 dB over the signal band.
        assert ripple < 0.6

    def test_residual_ripple_helper_consistent(self, droop_and_equalizer):
        droop, eq, _ = droop_and_equalizer
        r95 = residual_ripple_db(droop, eq, 20e6, fraction=0.95)
        assert r95 < 0.5

    def test_uncompensated_droop_is_large(self, droop_and_equalizer):
        droop, _, _ = droop_and_equalizer
        droop_db = 20.0 * np.log10(abs(droop.at(0.0)) / abs(droop.at(19e6)))
        # Sinc cascade + halfband edge droop around 5–10 dB near the edge.
        assert droop_db > 3.0

    def test_boost_is_capped(self, droop_and_equalizer):
        droop, _, chain = droop_and_equalizer
        eq = design_droop_equalizer(droop, 40e6, 20e6, order=64, max_boost_db=6.0)
        resp = eq.response(np.linspace(0, 20e6, 512))
        assert np.max(np.abs(resp.magnitude)) < 10 ** (9.0 / 20.0)

    def test_odd_order_rejected(self, droop_and_equalizer):
        droop, _, _ = droop_and_equalizer
        with pytest.raises(ValueError):
            design_droop_equalizer(droop, 40e6, 20e6, order=63)

    def test_passband_beyond_nyquist_rejected(self, droop_and_equalizer):
        droop, _, _ = droop_and_equalizer
        with pytest.raises(ValueError):
            design_droop_equalizer(droop, 40e6, 25e6, order=64)

    def test_larger_order_reduces_ripple(self, droop_and_equalizer):
        droop, _, _ = droop_and_equalizer
        small = design_droop_equalizer(droop, 40e6, 20e6, order=16)
        large = design_droop_equalizer(droop, 40e6, 20e6, order=64)
        assert (residual_ripple_db(droop, large, 20e6, fraction=0.9)
                <= residual_ripple_db(droop, small, 20e6, fraction=0.9) + 1e-9)

    def test_csd_quantization_available(self, droop_and_equalizer):
        _, eq, _ = droop_and_equalizer
        codes = FIRFilterFixedPoint(eq.taps, coefficient_bits=16).csd_codes
        assert len(codes) == len(eq.taps)


class TestDroopSamples:
    """The droop samples are looked up in one vectorized pass; the taps
    stay those of the per-point lookup the design made before."""

    def test_taps_match_the_per_point_lookup(self, droop_and_equalizer,
                                             monkeypatch):
        from repro.filters.equalizer import _droop_magnitudes
        from repro.filters.response import FrequencyResponse

        _, _, chain = droop_and_equalizer
        droop = chain.droop_response(np.linspace(0.0, 20e6, 512))
        freqs = np.linspace(0.0, 20e6, 256)
        assert _droop_magnitudes(droop, freqs).tobytes() == np.array(
            [abs(droop.at(f)) for f in freqs]).tobytes()
        fast = design_droop_equalizer(droop, 40e6, 20e6)
        monkeypatch.setattr(FrequencyResponse, "at_each", lambda self, fs: (
            np.array([self.at(f) for f in fs])))
        slow = design_droop_equalizer(droop, 40e6, 20e6)
        assert fast.taps.tobytes() == slow.taps.tobytes()
        freqs = np.linspace(0.0, 19e6, 300)
        assert (compensated_response(droop, fast, freqs).magnitude.tobytes()
                == compensated_response(droop, slow, freqs).magnitude.tobytes())


class TestImmutableDesign:
    """The artifact store hands one design to every caller."""

    @pytest.mark.parametrize("clone", [copy.deepcopy,
                                       lambda eq: pickle.loads(pickle.dumps(eq))],
                             ids=["deepcopy", "pickle"])
    def test_copies_and_pickles_bit_exact(self, droop_and_equalizer, clone):
        _, eq, _ = droop_and_equalizer
        copied = clone(eq)
        assert copied.taps.tobytes() == eq.taps.tobytes()
        assert (copied.sample_rate_hz, copied.passband_hz) == \
            (eq.sample_rate_hz, eq.passband_hz)
        assert dict(copied.metadata) == dict(eq.metadata)
        with pytest.raises(dataclasses.FrozenInstanceError):
            copied.passband_hz = 0.0
        assert not copied.taps.flags.writeable
        with pytest.raises(TypeError):
            copied.metadata["order"] = 0

    def test_tap_deltas_build_a_new_frozen_design(self, droop_and_equalizer):
        _, eq, _ = droop_and_equalizer
        before = eq.taps.tobytes()
        deltas = np.zeros(len(eq.taps))
        deltas[0] = 1
        dithered = eq.with_tap_deltas(deltas)
        assert eq.taps.tobytes() == before
        assert dithered.taps[0] != eq.taps[0]
        assert not dithered.taps.flags.writeable
        assert dithered.metadata["perturbation"] == "lsb-dither"
