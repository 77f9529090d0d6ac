"""The design-miss shortcuts are exact: pruned CSD search, band-limited masks.

* ``SaramakiHalfbandDesigner.design`` skips trials that re-quantize onto
  the current point and rejects, from a probe at the current ripple peaks,
  trials that are certainly worse.  :func:`reference_design` below is the
  search as it was before, with every trial evaluated on the full stopband
  grid; it is the gold model the pruned search must match bit for bit, on
  the compiled ``csd_search`` kernel and on its Python fallback alike.
  The kernel itself is compared with the fallback's fast-forward, and its
  CSD quantizer with :func:`~repro.fixedpoint.csd.to_csd`.
* ``_verify_mask`` and ``SincCascade.worst_alias_attenuation_db`` evaluate
  their responses only at DC and inside the bands they measure; the
  full-grid numbers below must equal theirs exactly.
"""

from __future__ import annotations

import dataclasses
import sys
import threading
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest

from repro import _native
from repro.core.chain import ChainDesignOptions, DecimationChain
from repro.core.spec import ChainSpec
from repro.core.verification import _verify_mask
from repro.filters import halfband as halfband_module
from repro.filters.halfband import (SaramakiHalfband, SaramakiHalfbandDesigner,
                                    perturbed_halfband)
from repro.filters.response import alias_bands_for_decimation
from repro.fixedpoint.csd import to_csd
from repro.flow.artifacts import ArtifactStore
from repro.scenarios import all_scenarios


def reference_design(designer: SaramakiHalfbandDesigner,
                     target_attenuation_db: float,
                     search_iterations: int = 400) -> SaramakiHalfband:
    """The CSD hill climb with a full-grid evaluation of every trial."""
    f1 = designer.outer_coefficients()
    f2 = designer.subfilter_coefficients()
    ideal = SaramakiHalfband(f1=f1, f2=f2)
    stopband_start = 0.5 - designer.transition_start

    f1_q, f1_codes = designer._quantize(f1)
    f2_q, f2_codes = designer._quantize(f2)
    best = SaramakiHalfband(f1=f1_q, f2=f2_q, f1_csd=f1_codes, f2_csd=f2_codes)
    best_attenuation = best.stopband_attenuation_db(stopband_start)

    rng = np.random.default_rng(designer.random_seed)
    lsb = 2.0 ** (-designer.coefficient_bits)
    current_f1, current_f2 = f1_q.copy(), f2_q.copy()
    current_attenuation = best_attenuation
    for _ in range(search_iterations):
        if current_attenuation >= target_attenuation_db and \
                best_attenuation >= target_attenuation_db:
            break
        trial_f1, trial_f2 = current_f1.copy(), current_f2.copy()
        if rng.random() < 0.4:
            idx = rng.integers(0, designer.n1)
            trial_f1[idx] += float(rng.choice([-1.0, 1.0])) * lsb * float(rng.integers(1, 8))
        else:
            idx = rng.integers(0, designer.n2)
            trial_f2[idx] += float(rng.choice([-1.0, 1.0])) * lsb * float(rng.integers(1, 8))
        trial_f1_q, trial_f1_codes = designer._quantize(trial_f1)
        trial_f2_q, trial_f2_codes = designer._quantize(trial_f2)
        trial = SaramakiHalfband(f1=trial_f1_q, f2=trial_f2_q,
                                 f1_csd=trial_f1_codes, f2_csd=trial_f2_codes)
        attenuation = trial.stopband_attenuation_db(stopband_start)
        if attenuation > current_attenuation:
            current_f1, current_f2 = trial_f1_q, trial_f2_q
            current_attenuation = attenuation
            if attenuation > best_attenuation:
                best = trial
                best_attenuation = attenuation

    return dataclasses.replace(best, metadata={
        "target_attenuation_db": target_attenuation_db,
        "achieved_attenuation_db": best_attenuation,
        "ideal_attenuation_db": ideal.stopband_attenuation_db(stopband_start),
        "transition_start": designer.transition_start,
        "coefficient_bits": designer.coefficient_bits,
        "search_iterations": search_iterations,
    })


def assert_same_design(got: SaramakiHalfband, want: SaramakiHalfband) -> None:
    assert got.f1.tobytes() == want.f1.tobytes()
    assert got.f2.tobytes() == want.f2.tobytes()
    assert got.f1_csd == want.f1_csd
    assert got.f2_csd == want.f2_csd
    assert got.metadata == want.metadata


@pytest.fixture(scope="module")
def scenario_chains():
    """Every registered scenario's designed chain, with the arguments of
    each halfband design its chain design ran."""
    calls = []
    original = SaramakiHalfbandDesigner.design

    def recording(self, target_attenuation_db=90.0, search_iterations=400):
        calls.append((self.n1, self.n2, self.transition_start,
                      self.coefficient_bits, target_attenuation_db))
        return original(self, target_attenuation_db, search_iterations)

    SaramakiHalfbandDesigner.design = recording
    try:
        store = ArtifactStore()
        chains = {}
        for scenario in all_scenarios():
            payload = scenario.payload()
            chains[scenario.name] = DecimationChain.design(
                ChainSpec.from_dict(payload["spec"]),
                ChainDesignOptions.from_dict(payload["options"]),
                artifacts=store)
    finally:
        SaramakiHalfbandDesigner.design = original
    return chains, sorted(set(calls))


@lru_cache(maxsize=None)
def cached_reference(n1, n2, transition, bits, target) -> SaramakiHalfband:
    """:func:`reference_design` of one structure, shared by both engines."""
    return reference_design(SaramakiHalfbandDesigner(
        n1=n1, n2=n2, transition_start=transition, coefficient_bits=bits),
        target)


@pytest.fixture(scope="module")
def kernel_library():
    library = _native.load()
    if library is None:
        pytest.skip("the compiled kernels cannot be built on this host")
    return library


@pytest.fixture(params=["kernel", "fallback"])
def engine(request):
    """Runs the test on the ``csd_search`` kernel, then on the fallback."""
    if request.param == "kernel":
        request.getfixturevalue("kernel_library")
        yield request.param
    else:
        with mock.patch.object(_native, "load", lambda: None):
            yield request.param


@pytest.mark.usefixtures("engine")
class TestPrunedSearchMatchesFullSearch:
    def test_every_scenario_halfband(self, scenario_chains):
        _, calls = scenario_chains
        assert len(calls) >= 5
        for n1, n2, transition, bits, target in calls:
            designer = SaramakiHalfbandDesigner(
                n1=n1, n2=n2, transition_start=transition,
                coefficient_bits=bits)
            assert_same_design(designer.design(target),
                               cached_reference(n1, n2, transition, bits,
                                                target))

    @pytest.mark.parametrize("n1,n2,transition,bits,target", [
        (2, 4, 0.20, 16, 90.0),
        (3, 6, 0.22, 24, 90.0),
        (3, 6, 0.22, 24, 300.0),   # unreachable: all 400 trials run
        (4, 8, 0.23, 20, 300.0),
        (2, 12, 0.24, 16, 300.0),
        (3, 10, 0.18, 20, 120.0),
    ])
    def test_structure_grid(self, n1, n2, transition, bits, target):
        designer = SaramakiHalfbandDesigner(
            n1=n1, n2=n2, transition_start=transition, coefficient_bits=bits)
        assert_same_design(designer.design(target),
                           cached_reference(n1, n2, transition, bits, target))


class CountingLibrary:
    """The kernel library, counting its ``csd_search`` round trips."""

    def __init__(self, library) -> None:
        self.library = library
        self.round_trips = 0

    def csd_search(self, *args):
        self.round_trips += 1
        return self.library.csd_search(*args)


def test_most_trials_skip_the_full_grid(monkeypatch):
    """Fails if the search evaluates every trial on the whole grid again:
    on the fallback by its response evaluations, on the kernel by its
    round trips, one per trial that reaches the whole grid."""
    library = _native.load()
    widths = []
    original = halfband_module._cascade_response

    def counting(f1, f2, basis):
        widths.append(basis.shape[1])
        return original(f1, f2, basis)

    monkeypatch.setattr(halfband_module, "_cascade_response", counting)
    monkeypatch.setattr(_native, "load", lambda: None)
    trials = 400
    designer = SaramakiHalfbandDesigner(n1=3, n2=6, transition_start=0.22,
                                        coefficient_bits=24)
    fallback = designer.design(300.0, trials)
    # The initial point and the ideal filter are full-grid evaluations too.
    full = sum(1 for width in widths if width == 4096) - 2
    probes = sum(1 for width in widths if width < 4096)
    assert 0 < probes < trials // 2
    assert full < 0.75 * probes
    if library is None:
        return
    counted = CountingLibrary(library)
    monkeypatch.setattr(_native, "load", lambda: counted)
    assert_same_design(designer.design(300.0, trials), fallback)
    # The last round trip may run out of trials instead.
    assert full <= counted.round_trips <= full + 1


def csd_kernel_lands_on(designer: SaramakiHalfbandDesigner, start: float,
                        value: float) -> bool:
    """Whether the kernel quantizes ``value`` onto ``start``: the one trial
    moving the sub-filter coefficient from ``start`` to ``value`` is skipped
    exactly when its re-quantized value equals the current one."""
    step = value - start
    assert start + step == value
    fast_forward = halfband_module._fast_forward(
        designer, np.array([1]), np.array([step]), np.ones((1, 2)))
    trial, _ = fast_forward(np.array([0.5, start]), 0, 1, np.array([0]),
                            np.inf)
    return trial == 1


class TestSearchKernel:
    @pytest.mark.parametrize("bits", [16, 20, 24])
    def test_quantizer_matches_to_csd(self, kernel_library, bits):
        designer = SaramakiHalfbandDesigner(n1=1, n2=1, coefficient_bits=bits)
        lsb = 2.0 ** -bits
        rng = np.random.default_rng(bits)
        ties = (rng.integers(-2 ** bits, 2 ** bits, 40) + 0.5) * lsb
        values = [0.0, -0.0, lsb / 2, -lsb / 2, 1.5 * lsb, -2.5 * lsb,
                  # more than four non-zero CSD digits
                  0b1010101010101 * lsb, -0b1011011011011 * lsb,
                  (2 ** bits - 1) * lsb, 1.0 / 3.0, -0.7, 1.25]
        values += list(ties) + list(rng.uniform(-1.5, 1.5, 100))
        for value in values:
            want = to_csd(float(value), bits, 4).value
            assert csd_kernel_lands_on(designer, want, value), value
            # The negative check: the kernel tells values apart.
            assert not csd_kernel_lands_on(designer, want + lsb, value), value

    def test_values_beyond_the_kernel_run_the_gold_model(self, monkeypatch,
                                                         kernel_library):
        gold_calls = []
        gold = halfband_module._fast_forward_python
        monkeypatch.setattr(halfband_module, "_fast_forward_python",
                            lambda *args: gold_calls.append(args) or gold(*args))
        designer = SaramakiHalfbandDesigner(n1=1, n2=1, coefficient_bits=24)
        # Above 2^62 once scaled by 2^24, and five CSD digits.
        for value in (2.0 ** 39 + 0.5 + 0.125 + 2.0 ** -5 + 2.0 ** -7,
                      -2.0 ** 45 - 1.5):
            want = to_csd(value, 24, 4).value
            assert csd_kernel_lands_on(designer, want, value)
            assert not csd_kernel_lands_on(designer, want + 1.0, value)
        assert len(gold_calls) == 4

    @pytest.mark.parametrize("n1,n2,transition,bits", [
        (3, 6, 0.22, 24), (2, 4, 0.20, 16), (4, 9, 0.23, 20)])
    def test_fast_forward_matches_the_fallback(self, kernel_library, n1, n2,
                                               transition, bits):
        designer = SaramakiHalfbandDesigner(
            n1=n1, n2=n2, transition_start=transition, coefficient_bits=bits)
        ideal = np.concatenate([designer.outer_coefficients(),
                                designer.subfilter_coefficients()])
        basis = halfband_module._cos_basis(
            2.0 * np.pi * np.linspace(0.5 - transition, 0.5, 4096), n2)
        indices, steps = designer._trial_moves(400)
        kernel = halfband_module._fast_forward(designer, indices, steps,
                                               basis)
        with mock.patch.object(_native, "load", lambda: None):
            fallback = halfband_module._fast_forward(designer, indices, steps,
                                                     basis)
        rng = np.random.default_rng(n2)
        reached = 0
        for _ in range(25):
            offsets = rng.integers(-6, 7, n1 + n2) * 2.0 ** -bits
            current = np.array([to_csd(float(v), bits, 4).value
                                for v in ideal + offsets])
            magnitude = np.abs(halfband_module._cascade_response(
                current[:n1], current[n1:], basis))
            probe = np.flatnonzero(
                halfband_module._ripple_peak_columns(magnitude))
            threshold = magnitude.max() * (1.0 + halfband_module._PROBE_MARGIN)
            start = int(rng.integers(0, 400))
            stop = int(rng.integers(start, 401))
            got = kernel(current, start, stop, probe, threshold)
            want = fallback(current, start, stop, probe, threshold)
            assert got[0] == want[0]
            if want[1] is None:
                assert got[1] is None
            else:
                reached += 1
                assert got[1].tobytes() == want[1].tobytes()
            # A window in which the probe rejects every trial.
            assert kernel(current, start, stop, probe, 0.0) == (stop, None)
            assert fallback(current, start, stop, probe, 0.0) == (stop, None)
        assert reached > 5

    def test_concurrent_designs_match_a_sequential_run(self, kernel_library):
        structures = [(3, 6, 0.22, 24), (2, 9, 0.21, 20)]

        def design(index):
            n1, n2, transition, bits = structures[index % 2]
            return SaramakiHalfbandDesigner(
                n1=n1, n2=n2, transition_start=transition,
                coefficient_bits=bits).design(300.0)

        sequential = [design(index) for index in range(2)]
        halfband_module._search_moves.cache_clear()
        results = [None] * 4
        barrier = threading.Barrier(4)

        def worker(index):
            barrier.wait(timeout=60)
            results[index] = [design(index) for _ in range(3)]

        threads = [threading.Thread(target=worker, args=(index,))
                   for index in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for index, got in enumerate(results):
            for design_result in got:
                assert_same_design(design_result, sequential[index % 2])

    def test_moves_and_window_are_checked(self, kernel_library):
        designer = SaramakiHalfbandDesigner(n1=2, n2=3)
        basis = np.ones((3, 8))
        with pytest.raises(ValueError):
            halfband_module._fast_forward(designer, np.array([5]),
                                          np.array([1.0]), basis)
        fast_forward = halfband_module._fast_forward(
            designer, np.array([4]), np.array([1.0]), basis)
        current = np.zeros(5)
        for args in ((current, 0, 2, np.array([0])),
                     (current[:4], 0, 1, np.array([0])),
                     (current, 0, 1, np.array([8]))):
            with pytest.raises(ValueError):
                fast_forward(*args, 1.0)


def full_grid_mask_numbers(chain) -> dict:
    """The mask check's band numbers read off the full frequency grids."""
    dec = chain.spec.decimator
    protected_edge = dec.output_rate_hz - dec.stopband_edge_hz
    first_alias = (dec.stopband_edge_hz, dec.output_rate_hz + protected_edge)
    overall = chain.multirate_cascade().overall_response(n_points=32768)
    sinc = chain.sinc_cascade
    bands = alias_bands_for_decimation(
        sinc.total_decimation, sinc.output_rate_hz,
        chain.spec.modulator.bandwidth_hz / 8.0, sinc.spec.input_rate_hz)
    return {
        "first_alias": overall.stopband_attenuation_db(*first_alias),
        "sinc_alias": sinc.cascade_response(
            n_points=16384).worst_alias_attenuation_db(bands),
    }


def assert_band_limited_mask_exact(chain) -> None:
    want = full_grid_mask_numbers(chain)
    measured = {check.name: check.measured
                for check in _verify_mask(chain, 0.95)}
    first = [v for k, v in measured.items()
             if k.startswith("first alias band attenuation")]
    assert first == [want["first_alias"]]
    assert measured["sinc cascade attenuation at alias-band centres"] == \
        want["sinc_alias"]
    assert chain.sinc_cascade.worst_alias_attenuation_db(
        chain.spec.modulator.bandwidth_hz / 8.0) == want["sinc_alias"]


class TestBandLimitedMask:
    def test_every_scenario_chain(self, scenario_chains):
        chains, _ = scenario_chains
        assert len(chains) == 10
        for chain in chains.values():
            assert_band_limited_mask_exact(chain)

    def test_perturbed_variants(self, scenario_chains):
        chains, _ = scenario_chains
        rng = np.random.default_rng(7)
        for name in ("lte-20", "audio-48k", "sdr-lte-30p72"):
            chain = chains[name]
            bits = chain.options.halfband_coefficient_bits
            for _ in range(3):
                halfband = perturbed_halfband(
                    chain.halfband, bits,
                    f1_lsb_deltas=rng.integers(-3, 4, chain.halfband.n1),
                    f2_lsb_deltas=rng.integers(-3, 4, chain.halfband.n2),
                    f2_dropout=rng.random(chain.halfband.n2) < 0.3)
                taps = len(chain.equalizer.taps)
                equalizer = chain.equalizer.with_tap_deltas(
                    rng.integers(-2, 3, taps).astype(float),
                    chain.options.equalizer_coefficient_bits)
                assert_band_limited_mask_exact(
                    chain.with_stages(halfband=halfband, equalizer=equalizer))

    @pytest.mark.parametrize("orders,bandwidth", [
        ((4, 4, 6), 20e6 / 8), ((2, 3), 5e6), ((5,), 1e6), ((3, 3, 3, 3), 2e6),
    ])
    def test_sinc_cascade_alias(self, orders, bandwidth):
        from repro.filters.sinc import SincCascade, SincCascadeSpec

        cascade = SincCascade(SincCascadeSpec(orders, 4, 640e6))
        bands = alias_bands_for_decimation(
            cascade.total_decimation, cascade.output_rate_hz, bandwidth,
            cascade.spec.input_rate_hz)
        for n_points in (16384, 4096, 1000):
            want = cascade.cascade_response(
                n_points=n_points).worst_alias_attenuation_db(bands)
            assert cascade.worst_alias_attenuation_db(bandwidth, n_points) == want
