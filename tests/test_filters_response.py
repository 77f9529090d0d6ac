"""Tests for frequency-response evaluation and mask checking."""

import numpy as np
import pytest
from scipy import signal

from repro.filters import (
    FrequencyResponse,
    alias_bands_for_decimation,
    default_frequency_grid,
    fir_frequency_response,
)
from repro.filters.response import band_limited_grid, fir_freqz


@pytest.fixture()
def lowpass_response():
    taps = signal.firwin(63, 0.2)
    freqs = default_frequency_grid(100e6, 2048)
    return fir_frequency_response(taps, 100e6, freqs, label="test LP"), taps


class TestFrequencyResponse:
    def test_dc_gain_of_unity_filter(self):
        freqs = np.linspace(0, 50e6, 256)
        resp = fir_frequency_response([1.0], 100e6, freqs)
        assert np.allclose(np.abs(resp.magnitude), 1.0)

    def test_magnitude_db_floor(self):
        resp = FrequencyResponse(np.array([0.0, 1.0]), np.array([0.0, 1.0]), 1.0)
        assert np.isfinite(resp.magnitude_db).all()

    def test_at_picks_nearest_grid_point(self, lowpass_response):
        resp, _ = lowpass_response
        value = resp.at(10e6)
        idx = np.argmin(np.abs(resp.frequencies_hz - 10e6))
        assert value == resp.magnitude[idx]

    def test_passband_ripple_small_in_passband(self, lowpass_response):
        resp, _ = lowpass_response
        assert resp.passband_ripple_db(7e6) < 1.0

    def test_stopband_attenuation_positive(self, lowpass_response):
        resp, _ = lowpass_response
        assert resp.stopband_attenuation_db(20e6) > 40.0

    def test_droop_positive_for_lowpass(self, lowpass_response):
        resp, _ = lowpass_response
        assert resp.passband_droop_db(10e6) >= 0.0

    def test_empty_band_raises(self, lowpass_response):
        resp, _ = lowpass_response
        with pytest.raises(ValueError):
            resp.passband_ripple_db(1.0, f_lo=0.5)  # no grid points below 1 Hz

    def test_cascade_with_multiplies_magnitudes(self, lowpass_response):
        resp, _ = lowpass_response
        squared = resp.cascade_with(resp)
        assert np.allclose(np.abs(squared.magnitude), np.abs(resp.magnitude) ** 2)

    def test_cascade_requires_same_grid(self, lowpass_response):
        resp, taps = lowpass_response
        other = fir_frequency_response(taps, 100e6, np.linspace(0, 1e6, 7))
        with pytest.raises(ValueError):
            resp.cascade_with(other)

    def test_worst_alias_attenuation(self, lowpass_response):
        resp, _ = lowpass_response
        bands = [(30e6, 40e6), (45e6, 50e6)]
        worst = resp.worst_alias_attenuation_db(bands)
        direct = min(resp.stopband_attenuation_db(*bands[0]),
                     resp.stopband_attenuation_db(*bands[1]))
        assert worst == pytest.approx(direct)


class TestNearestGridLookup:
    """``at_each`` is ``at`` for every frequency, ties included: the first
    of two equally near grid points wins, as in ``argmin``."""

    @staticmethod
    def _per_point(response, frequencies):
        return np.array([response.at(f) for f in frequencies])

    @pytest.mark.parametrize("grid", [
        np.linspace(0.0, 20e6, 512),                      # the droop grid
        np.array([0.0, 1.0, 2.0, 2.0, 3.0, 5.0]),         # a repeated point
        np.array([4.0, 1.0, 3.0, 0.0, 2.0]),              # unsorted
    ], ids=["uniform", "repeated", "unsorted"])
    def test_matches_per_point_lookup_at_midpoints(self, grid):
        rng = np.random.default_rng(5)
        response = FrequencyResponse(
            grid, rng.normal(size=len(grid)) + 1j * rng.normal(size=len(grid)),
            1.0)
        ordered = np.sort(grid)
        midpoints = (ordered[:-1] + ordered[1:]) / 2.0
        assert np.any((midpoints - ordered[:-1]) == (ordered[1:] - midpoints))
        frequencies = np.concatenate([
            midpoints, grid, [grid.min() - 1.0, grid.max() + 1.0],
            rng.uniform(grid.min(), grid.max(), 300)])
        got = response.at_each(frequencies)
        assert got.tobytes() == self._per_point(response, frequencies).tobytes()

    def test_blocks_match_one_pass(self, monkeypatch):
        import repro.filters.response as response_module

        grid = np.linspace(0.0, 1.0, 33)
        response = FrequencyResponse(grid, np.arange(33.0), 2.0)
        frequencies = np.linspace(-0.1, 1.1, 101)
        whole = response.at_each(frequencies)
        monkeypatch.setattr(response_module, "_LOOKUP_BLOCK", 40)
        assert response.at_each(frequencies).tobytes() == whole.tobytes()
        assert whole.tobytes() == \
            self._per_point(response, frequencies).tobytes()


class TestFreqzAgainstScipy:
    """``fir_freqz`` is ``scipy.signal.freqz`` for an array ``worN``, bit for bit."""

    def test_random_taps_and_grids_bit_equal(self):
        rng = np.random.default_rng(2011)
        for case in range(300):
            taps = rng.standard_normal(int(rng.integers(1, 120)))
            taps *= 10.0 ** float(rng.integers(-6, 2))
            if case % 5 == 0:
                taps[-1] = 0.0
            w = rng.uniform(0.0, 2 * np.pi * rng.uniform(0.1, 40.0),
                            int(rng.integers(1, 3000)))
            _, expected = signal.freqz(taps, worN=w)
            assert fir_freqz(taps, w).tobytes() == expected.tobytes(), case

    def test_stage_response_bit_equal(self, lowpass_response):
        response, taps = lowpass_response
        w = 2.0 * np.pi * response.frequencies_hz / response.sample_rate_hz
        _, expected = signal.freqz(taps, worN=w)
        assert response.magnitude.tobytes() == expected.tobytes()


class TestAliasBands:
    def test_paper_sinc_cascade_alias_bands(self):
        bands = alias_bands_for_decimation(8, 80e6, 20e6, 640e6)
        assert len(bands) == 4  # 80, 160, 240, 320 MHz centres within Nyquist
        assert bands[0] == (60e6, 100e6)
        assert bands[-1][1] == pytest.approx(320e6)

    def test_no_bands_for_unity_decimation(self):
        assert alias_bands_for_decimation(1, 40e6, 20e6) == []

    def test_band_clipping_at_nyquist(self):
        bands = alias_bands_for_decimation(2, 40e6, 20e6, 80e6)
        assert bands[0][1] <= 40e6


class TestDefaultGrid:
    def test_default_grid_covers_nyquist(self):
        grid = default_frequency_grid(100e6, 11)
        assert grid[0] == 0.0
        assert grid[-1] == pytest.approx(50e6)


class TestBandLimitedGrid:
    def test_keeps_reference_point_and_band_points(self):
        grid = default_frequency_grid(100e6, 101)
        kept = band_limited_grid(grid, [(20e6, 22e6), (40e6, 41e6)])
        expected = [0.0, 20e6, 20.5e6, 21e6, 21.5e6, 22e6, 40e6, 40.5e6, 41e6]
        assert np.allclose(kept, expected)

    def test_measurements_match_full_grid(self, lowpass_response):
        full, taps = lowpass_response
        bands = [(15e6, 25e6), (30e6, 45e6)]
        sub = fir_frequency_response(taps, 100e6,
                                     band_limited_grid(full.frequencies_hz, bands))
        assert sub.stopband_attenuation_db(15e6, 25e6) == full.stopband_attenuation_db(15e6, 25e6)
        assert sub.worst_alias_attenuation_db(bands) == full.worst_alias_attenuation_db(bands)

    def test_band_mask_is_inclusive(self, lowpass_response):
        resp, _ = lowpass_response
        f = resp.frequencies_hz
        mask = resp.band_mask(f[10], f[20])
        assert mask.sum() == 11
        assert mask[10] and mask[20] and not mask[9] and not mask[21]
