"""The design-miss shortcuts are exact: pruned CSD search, band-limited masks.

* ``SaramakiHalfbandDesigner.design`` skips trials that re-quantize onto
  the current point and rejects, from a probe at the current ripple peaks,
  trials that are certainly worse.  :func:`reference_design` below is the
  search as it was before, with every trial evaluated on the full stopband
  grid; it is the gold model the pruned search must match bit for bit.
* ``_verify_mask`` and ``SincCascade.worst_alias_attenuation_db`` evaluate
  their responses only at DC and inside the bands they measure; the
  full-grid numbers below must equal theirs exactly.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.chain import ChainDesignOptions, DecimationChain
from repro.core.spec import ChainSpec
from repro.core.verification import _verify_mask
from repro.filters import halfband as halfband_module
from repro.filters.halfband import (SaramakiHalfband, SaramakiHalfbandDesigner,
                                    perturbed_halfband)
from repro.filters.response import alias_bands_for_decimation
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


class TestPrunedSearchMatchesFullSearch:
    def test_every_scenario_halfband(self, scenario_chains):
        _, calls = scenario_chains
        assert len(calls) >= 5
        for n1, n2, transition, bits, target in calls:
            designer = SaramakiHalfbandDesigner(
                n1=n1, n2=n2, transition_start=transition,
                coefficient_bits=bits)
            assert_same_design(designer.design(target),
                               reference_design(designer, target))

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
                           reference_design(designer, target))


def test_most_trials_skip_the_full_grid(monkeypatch):
    """Fails if the search evaluates every trial on the whole grid again."""
    widths = []
    original = halfband_module._cascade_response

    def counting(f1, f2, basis):
        widths.append(basis.shape[1])
        return original(f1, f2, basis)

    monkeypatch.setattr(halfband_module, "_cascade_response", counting)
    trials = 400
    SaramakiHalfbandDesigner(n1=3, n2=6, transition_start=0.22,
                             coefficient_bits=24).design(300.0, trials)
    # The initial point and the ideal filter are full-grid evaluations too.
    full = sum(1 for width in widths if width == 4096) - 2
    probes = sum(1 for width in widths if width < 4096)
    assert 0 < probes < trials // 2
    assert full < 0.75 * probes


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
