"""Tests for the strided-matmul (polyphase) decimation engine."""

import numpy as np
import pytest
from scipy import signal

from repro.filters import (
    FIRFilterFixedPoint,
    convolve_strided_matmul,
)
from repro.filters.polyphase import max_abs_int


class TestStridedDecimation:
    """``convolve_strided_matmul`` is the polyphase decimator of the chain."""

    TAPS = signal.firwin(63, 0.2)

    def test_matches_filter_then_downsample(self, rng):
        x = rng.standard_normal(512)
        direct = signal.lfilter(self.TAPS, [1.0], x)[3::4]
        assert np.allclose(convolve_strided_matmul(x, self.TAPS, offset=3, step=4),
                           direct)

    def test_polyphase_identity(self, rng):
        # Output j sums component p filtering input phase (offset - p) mod M.
        x = rng.standard_normal(256)
        m, offset = 4, 3
        got = convolve_strided_matmul(x, self.TAPS, offset=offset, step=m)
        total = np.zeros(len(got))
        for p in range(m):
            comp = self.TAPS[p::m]
            phase = np.concatenate([np.zeros(p), x])[offset::m][:len(got)]
            total += np.convolve(phase, comp)[:len(got)]
        assert np.allclose(got, total, atol=1e-12)

    @pytest.mark.parametrize("m", [2, 3, 5, 8])
    def test_polyphase_identity_is_exact_on_integers(self, m, rng):
        # The M sub-filters taps[p::m], each fed one input phase at the
        # output rate, sum to the decimated convolution exactly.
        taps = rng.integers(-1000, 1000, 29)
        x = rng.integers(-2 ** 15, 2 ** 15, 40 * m)
        offset = m - 1
        got = convolve_strided_matmul(x, taps, offset=offset, step=m)
        assert got.dtype == np.int64
        assert got.tolist() == np.convolve(x, taps)[offset:len(x):m].tolist()
        total = np.zeros(len(got), dtype=np.int64)
        for p in range(m):
            phase = np.concatenate([np.zeros(p, dtype=np.int64), x])[offset::m]
            total += np.convolve(phase[:len(got)], taps[p::m])[:len(got)]
        assert total.tolist() == got.tolist()

    def test_output_length(self, rng):
        out = convolve_strided_matmul(rng.standard_normal(400), self.TAPS,
                                      offset=3, step=4)
        assert len(out) == 100

    def test_unity_decimation_is_plain_filter(self, rng):
        taps = signal.firwin(31, 0.3)
        x = rng.standard_normal(128)
        assert np.allclose(convolve_strided_matmul(x, taps),
                           signal.lfilter(taps, [1.0], x))

    def test_invalid_decimation(self):
        with pytest.raises(ValueError):
            FIRFilterFixedPoint(taps=np.ones(8), decimation=0)
        with pytest.raises(ValueError):
            convolve_strided_matmul(np.ones(8), np.ones(3), step=0)

    def test_fixed_point_matches_float_within_lsb(self, rng):
        fxp = FIRFilterFixedPoint(taps=self.TAPS, coefficient_bits=16, decimation=4)
        x = rng.integers(-10000, 10000, 512)
        fixed = np.array([int(v) for v in fxp.process(x)], dtype=float)
        reference = fxp.process_float(x)
        assert len(fixed) == len(reference) == 128
        assert np.max(np.abs(fixed - reference)) <= 1.0


class TestMaxAbsInt:
    @pytest.mark.parametrize("samples, expected", [
        (np.array([3, -2**63, 5], dtype=np.int64), 2**63),
        (np.zeros((4, 0), dtype=np.int64), 0),
        (np.array([[1, -7], [9, 2]], dtype=np.int64), 9),
    ], ids=["most-negative-int64", "empty-batch", "2-d"])
    def test_exact_magnitude(self, samples, expected):
        assert max_abs_int(samples) == expected
