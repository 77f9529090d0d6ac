"""Tests for NTF synthesis."""

import copy
import dataclasses
import functools
import io
import itertools
import pickle

import numpy as np
import pytest
from scipy import optimize, signal

from repro.dsm import (
    NoiseTransferFunction,
    NTFSynthesisError,
    optimal_zero_frequencies,
    synthesize_ntf,
)
from repro.dsm import ntf as ntf_module
from repro.dsm.ntf import (
    _OPTIMAL_ZERO_POSITIONS,
    _butterworth_highpass_poles,
    _legendre_zero_positions,
)


@functools.lru_cache(maxsize=1)
def _synthesizable_ntfs():
    """Every NTF of orders 1–8 × OSR {8..128} × h_inf {1.5, 2, 3} that exists."""
    ntfs = []
    for order, osr, h_inf in itertools.product(range(1, 9), (8, 16, 32, 64, 128),
                                               (1.5, 2.0, 3.0)):
        try:
            ntfs.append(synthesize_ntf(order, osr, h_inf))
        except NTFSynthesisError:
            continue
    return tuple(ntfs)


def _scipy_tf(ntf):
    b, a = signal.zpk2tf(ntf.zeros, ntf.poles, ntf.gain)
    return np.real_if_close(b).astype(float), np.real_if_close(a).astype(float)


def _lbfgsb_positions(order):
    """The in-band noise minimum found numerically, as the package once did.

    The objective is the log of the band-normalized in-band noise power
    with tight tolerances: on the raw integral (~1e-10 at order 12) the
    solver's default tolerances stop it short of the minimum.
    """
    xs = np.linspace(0.0, 1.0, 2048)
    include_dc = order % 2 == 1

    def log_inband_power(free_positions):
        prod = xs ** 2 if include_dc else np.ones_like(xs)
        for p in free_positions:
            prod = prod * (xs ** 2 - p ** 2) ** 2
        return float(np.log(np.trapezoid(prod, xs)))

    n_free = order // 2
    result = optimize.minimize(log_inband_power, np.linspace(0.3, 0.9, n_free),
                               bounds=[(0.0, 1.0)] * n_free, method="L-BFGS-B",
                               options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 1000})
    positions = sorted(float(v) for v in result.x)
    return [0.0] + positions if include_dc else positions


class TestZPKConversion:
    def test_as_zpk_hands_out_writable_copies(self, paper_ntf):
        zeros, poles, gain = paper_ntf.as_zpk()
        assert np.array_equal(zeros, paper_ntf.zeros)
        assert np.array_equal(poles, paper_ntf.poles)
        assert gain == paper_ntf.gain
        zeros[0] = 0.0
        poles[0] = 0.0
        assert paper_ntf.zeros[0] != 0.0 and paper_ntf.poles[0] != 0.0


class TestOptimalZeros:
    def test_count_matches_order(self):
        for order in range(1, 9):
            assert len(optimal_zero_frequencies(order, 16)) == order

    def test_odd_orders_have_dc_zero(self):
        for order in (1, 3, 5, 7):
            freqs = optimal_zero_frequencies(order, 16)
            assert np.any(np.isclose(freqs, 0.0))

    def test_even_orders_have_no_dc_zero(self):
        for order in (2, 4, 6, 8):
            freqs = optimal_zero_frequencies(order, 16)
            assert not np.any(np.isclose(freqs, 0.0))

    def test_zeros_are_conjugate_symmetric(self):
        freqs = optimal_zero_frequencies(5, 16)
        nonzero = freqs[~np.isclose(freqs, 0.0)]
        assert np.allclose(sorted(nonzero), sorted(-nonzero))

    def test_zeros_within_signal_band(self):
        osr = 16
        freqs = optimal_zero_frequencies(5, osr)
        assert np.all(np.abs(freqs) <= 0.5 / osr + 1e-12)

    def test_unoptimized_zeros_all_at_dc(self):
        freqs = optimal_zero_frequencies(5, 16, optimize=False)
        assert np.allclose(freqs, 0.0)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            optimal_zero_frequencies(0, 16)


class TestSynthesizeNTF:
    def test_paper_design_h_inf(self, paper_ntf):
        assert paper_ntf.h_inf == pytest.approx(3.0, rel=1e-3)

    def test_paper_design_order(self, paper_ntf):
        assert paper_ntf.order == 5
        assert len(paper_ntf.zeros) == 5
        assert len(paper_ntf.poles) == 5

    def test_ntf_is_monic(self, paper_ntf):
        b, a = paper_ntf.as_tf()
        assert b[0] == pytest.approx(1.0)
        assert a[0] == pytest.approx(1.0)

    def test_poles_inside_unit_circle(self, paper_ntf):
        assert np.all(np.abs(paper_ntf.poles) < 1.0)

    def test_zeros_on_unit_circle(self, paper_ntf):
        assert np.allclose(np.abs(paper_ntf.zeros), 1.0, atol=1e-9)

    def test_deep_inband_attenuation(self, paper_ntf):
        inband = np.linspace(1e-4, 0.5 / 16, 256)
        assert np.max(paper_ntf.magnitude_db(inband)) < -40.0

    def test_out_of_band_gain_attained_near_nyquist(self, paper_ntf):
        assert abs(paper_ntf.frequency_response(np.array([0.5]))[0]) == pytest.approx(
            3.0, rel=0.05)

    def test_higher_h_inf_means_less_inband_noise(self):
        mild = synthesize_ntf(5, 16, h_inf=1.5)
        aggressive = synthesize_ntf(5, 16, h_inf=3.0)
        assert aggressive.inband_noise_gain() < mild.inband_noise_gain()

    def test_optimized_zeros_beat_dc_zeros(self):
        optimized = synthesize_ntf(5, 16, 3.0, optimize_zeros=True)
        dc_only = synthesize_ntf(5, 16, 3.0, optimize_zeros=False)
        assert optimized.inband_noise_gain() < dc_only.inband_noise_gain()

    def test_predicted_sqnr_close_to_paper(self, paper_ntf):
        # The paper's simulated SQNR is 102 dB; the linear model should be in
        # the same neighbourhood (it ignores quantizer overload and tones).
        predicted = paper_ntf.predicted_sqnr_db(quantizer_levels=16, input_amplitude=0.81)
        assert 95.0 < predicted < 120.0

    def test_high_orders_use_legendre_zeros(self):
        ntf = synthesize_ntf(10, 64, 1.5)
        positions = np.array(_legendre_zero_positions(10))
        edge = 0.5 / 64
        expected = np.sort(np.concatenate([-positions, positions]) * edge)
        np.testing.assert_array_equal(ntf.metadata["zero_frequencies"], expected)

    def test_loop_filter_impulse_is_strictly_causal(self, paper_ntf):
        impulse = paper_ntf.loop_filter_impulse_response(32)
        assert impulse[0] == pytest.approx(0.0, abs=1e-12)
        assert np.any(np.abs(impulse[1:]) > 0)

    def test_invalid_h_inf(self):
        with pytest.raises(ValueError):
            synthesize_ntf(5, 16, h_inf=0.9)

    def test_invalid_osr(self):
        with pytest.raises(ValueError):
            synthesize_ntf(5, 1, 1.5)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            synthesize_ntf(0, 16, 1.5)

    def test_unreachable_h_inf_raises(self):
        # An out-of-band gain barely above unity is below what any pole
        # placement can achieve for a 5th-order NTF with spread zeros.
        with pytest.raises(NTFSynthesisError):
            synthesize_ntf(5, 8, h_inf=1.001)

    def test_other_orders_synthesize(self):
        for order in (2, 3, 4, 6):
            ntf = synthesize_ntf(order, 32, 1.5)
            assert ntf.h_inf == pytest.approx(1.5, rel=1e-3)

    def test_evaluate_at_dc_is_zero_for_odd_order(self, paper_ntf):
        assert abs(paper_ntf.evaluate(np.array([1.0 + 0j]))[0]) < 1e-9

    def test_frequency_response_shape(self, paper_ntf):
        freqs = np.linspace(0, 0.5, 100)
        resp = paper_ntf.frequency_response(freqs)
        assert resp.shape == (100,)
        assert np.iscomplexobj(resp)


class TestAgainstScipy:
    """The numpy replacements against the scipy calls they replace."""

    def test_butterworth_poles_bit_equal(self):
        for ntf in _synthesizable_ntfs():
            corner = ntf.metadata["butterworth_corner"]
            _, poles, _ = signal.butter(ntf.order, 2.0 * corner, btype="highpass",
                                        output="zpk")
            assert _butterworth_highpass_poles(ntf.order, corner).tobytes() == \
                np.asarray(poles, dtype=complex).tobytes(), (ntf.order, ntf.osr)

    def test_butterworth_poles_bit_equal_over_corners(self):
        rng = np.random.default_rng(7)
        for order in range(1, 13):
            for corner in np.concatenate([rng.uniform(1e-7, 0.6, 100), [1e-6, 0.49999]]):
                clamped = min(max(corner, 1e-6), 0.49999)
                _, poles, _ = signal.butter(order, 2.0 * clamped, btype="highpass",
                                            output="zpk")
                assert _butterworth_highpass_poles(order, corner).tobytes() == \
                    np.asarray(poles, dtype=complex).tobytes(), (order, corner)

    def test_as_tf_bit_equal_to_zpk2tf(self):
        for ntf in _synthesizable_ntfs():
            b, a = ntf.as_tf()
            b_ref, a_ref = _scipy_tf(ntf)
            assert b.tobytes() == b_ref.tobytes() and a.tobytes() == a_ref.tobytes()

    def test_impulse_recursions_bit_equal_to_lfilter(self):
        impulse = np.zeros(64)
        impulse[0] = 1.0
        for ntf in _synthesizable_ntfs():
            b, a = _scipy_tf(ntf)
            expected = signal.lfilter(np.polysub(a, b), a, impulse)
            assert ntf.loop_filter_impulse_response(64).tobytes() == expected.tobytes()

    def test_response_numerator_freqz_bit_equal(self):
        from repro.filters.response import fir_freqz

        w = np.linspace(0.0, np.pi, 1024)
        for ntf in _synthesizable_ntfs():
            b, _ = ntf.as_tf()
            _, expected = signal.freqz(b, worN=w)
            assert fir_freqz(b, w).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("order", range(1, 9))
    def test_legendre_roots_match_table(self, order):
        np.testing.assert_allclose(_legendre_zero_positions(order),
                                   _OPTIMAL_ZERO_POSITIONS[order], rtol=0, atol=1e-5)

    @pytest.mark.parametrize("order", range(9, 13))
    def test_legendre_roots_match_lbfgsb(self, order):
        np.testing.assert_allclose(_legendre_zero_positions(order),
                                   _lbfgsb_positions(order), rtol=0, atol=1e-4)


def _unpruned_synthesis(order, osr, h_inf, optimize_zeros):
    """The synthesis as it was before the bisection stopped at its fixed
    point: all 80 steps, each on a freshly built grid and zero product."""

    def response(z, zeros, poles, gain):
        z = np.asarray(z, dtype=complex)
        num = np.ones_like(z)
        for zero in zeros:
            num = num * (z - zero)
        den = np.ones_like(z)
        for pole in poles:
            den = den * (z - pole)
        return gain * num / den

    zero_freqs = optimal_zero_frequencies(order, osr, optimize_zeros)
    zeros = np.exp(2j * np.pi * zero_freqs)

    def out_of_band_gain_for(corner):
        poles = _butterworth_highpass_poles(order, corner)
        w = 2.0 * np.pi * np.asarray(np.linspace(0.0, 0.5, 4096), dtype=float)
        return float(np.max(np.abs(response(np.exp(1j * w), zeros, poles, 1.0))))

    lo, hi = 0.5 / osr, 0.45
    gain_lo = out_of_band_gain_for(lo)
    gain_hi = out_of_band_gain_for(hi)
    if gain_lo > h_inf:
        raise NTFSynthesisError(
            f"requested h_inf={h_inf} is below the minimum achievable "
            f"({gain_lo:.3f}) for order {order}")
    if gain_hi < h_inf:
        hi = 0.499
        gain_hi = out_of_band_gain_for(hi)
        if gain_hi < h_inf:
            raise NTFSynthesisError(
                f"requested h_inf={h_inf} exceeds the maximum achievable "
                f"({gain_hi:.3f}) for order {order}")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if out_of_band_gain_for(mid) < h_inf:
            lo = mid
        else:
            hi = mid
    corner = 0.5 * (lo + hi)
    return NoiseTransferFunction(
        zeros=zeros, poles=_butterworth_highpass_poles(order, corner),
        gain=1.0, order=order, osr=osr, h_inf=out_of_band_gain_for(corner),
        metadata={"butterworth_corner": corner,
                  "optimized_zeros": optimize_zeros,
                  "zero_frequencies": zero_freqs})


def _outcome(function, *args):
    """Bitwise identity of a synthesis result, or its error."""
    try:
        ntf = function(*args)
    except NTFSynthesisError as exc:
        return "error", str(exc)
    metadata = dict(ntf.metadata,
                    zero_frequencies=ntf.metadata["zero_frequencies"].tobytes())
    return (ntf.zeros.tobytes(), ntf.poles.tobytes(), repr(ntf.gain),
            repr(ntf.h_inf), ntf.order, ntf.osr,
            sorted((key, repr(value)) for key, value in metadata.items()))


class TestSynthesisWork:
    """Each NTF is synthesized once, by a bisection that stops at its
    fixed point with the bits of the full 80-step loop."""

    def test_call_shapes_share_one_synthesis(self):
        paper = synthesize_ntf(5, 16, 3.0)
        assert synthesize_ntf(5, 16, 3.0, True) is paper
        assert synthesize_ntf(order=5, osr=16, h_inf=3, optimize_zeros=1) is paper
        assert synthesize_ntf() is paper
        assert synthesize_ntf(5, 16, 3.0, False) is not paper

    def test_design_verify_and_sweep_synthesize_each_ntf_once(self, monkeypatch):
        from repro.cli import run_command
        from repro.flow.artifacts import ArtifactStore

        # Every synthesis places its zeros once, first.
        synthesized = []
        place_zeros = ntf_module.optimal_zero_frequencies

        def spy(*args):
            synthesized.append(args)
            return place_zeros(*args)

        monkeypatch.setattr(ntf_module, "optimal_zero_frequencies", spy)
        ntf_module._synthesize.cache_clear()
        store = ArtifactStore()
        # The sweep's predicted-SNR column calls synthesize_ntf(order, osr,
        # obg); the modulator passes optimize_zeros as well.
        for argv in (["design"],
                     ["verify", "--snr", "--snr-samples", "4096"],
                     ["sweep", "--output-bits", "14", "--jobs", "1",
                      "--no-cache", "--quiet"]):
            assert run_command(argv, stdout=io.StringIO(), stderr=io.StringIO(),
                               store=store) == 0
        assert synthesized == [(5, 16, True)]

    @pytest.mark.parametrize("optimize_zeros", (True, False))
    def test_fixed_point_bisection_matches_the_80_step_loop(self, optimize_zeros):
        cases = [(order, osr, h_inf)
                 for order, osr in itertools.product(range(1, 9), (8, 256))
                 for h_inf in ((1.5, 4.0) if order % 2 else (1.3, 2.5))]
        cases += [(1, 16, 100.0), (1, 16, 1e4), (5, 16, 3.0)]
        outcomes = []
        for order, osr, h_inf in cases:
            args = (order, osr, h_inf, optimize_zeros)
            expected = _outcome(_unpruned_synthesis, *args)
            assert _outcome(ntf_module._synthesize.__wrapped__, *args) == \
                expected, args
            outcomes.append(expected[0] == "error")
        assert any(outcomes) and not all(outcomes)


class TestSharedInstanceIsImmutable:
    """``synthesize_ntf`` hands one memoized instance to every caller, so no
    caller can change it under the others."""

    def test_fields_cannot_be_reassigned(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            synthesize_ntf().gain = 2.0

    @pytest.mark.parametrize("read", [lambda ntf: ntf.zeros,
                                      lambda ntf: ntf.poles,
                                      lambda ntf: ntf.metadata["zero_frequencies"]],
                             ids=["zeros", "poles", "zero_frequencies"])
    def test_arrays_are_read_only(self, read):
        ntf = synthesize_ntf()
        before = read(ntf).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            read(ntf)[0] = 0.0
        assert read(synthesize_ntf()).tobytes() == before

    def test_construction_leaves_the_given_arrays_writeable(self):
        zeros = np.array([1.0 + 0j])
        poles = np.array([0.5 + 0j])
        NoiseTransferFunction(zeros=zeros, poles=poles, gain=1.0, order=1,
                              osr=16, h_inf=1.5)
        zeros[0] = poles[0] = 0.0

    @pytest.mark.parametrize("clone", [copy.deepcopy,
                                       lambda ntf: pickle.loads(pickle.dumps(ntf))],
                             ids=["deepcopy", "pickle"])
    def test_copies_and_pickles_bit_exact(self, clone):
        ntf = synthesize_ntf()
        copied = clone(ntf)
        assert _outcome(lambda: copied) == _outcome(lambda: ntf)
        with pytest.raises(dataclasses.FrozenInstanceError):
            copied.gain = 2.0
        for array in (copied.zeros, copied.poles,
                      copied.metadata["zero_frequencies"]):
            assert not array.flags.writeable
        with pytest.raises(TypeError):
            copied.metadata["order"] = 0
