"""Batched Monte Carlo execution of perturbed design points.

:func:`run_robustness` / :func:`run_robustness_suite` take a registered
scenario, a :class:`~repro.robustness.model.PerturbationModel`, a sample
count and a seed, and produce per-sample metric distributions plus a
:class:`~repro.robustness.report.YieldReport`.

Hot path
--------
The engine never simulates Monte Carlo samples one at a time.  Per shard
(one shard per job), it walks the chain variants in sorted order and each
variant's samples in blocks of :data:`ROW_BLOCK` rows, split at the Sinc
cascade's output:

1. **full rate, per group** of at most
   :data:`~repro.dsm.modulator.LOCKSTEP_ROWS` (4) rows of the block, the
   modulator kernel's lockstep width: every sample of the group writes
   its perturbed stimulus (gain/offset mismatch + clock jitter) in place
   into one row of a ``(4, n)`` matrix, from a tone argument computed
   once per shard (:func:`~repro.dsm.signals.write_jittered_tone`); the
   matrix runs through **one** ``codes_only``
   :meth:`~repro.dsm.modulator.FastErrorFeedbackSimulator.simulate_batch`
   call, which writes the group's codes into a ``(4, n)`` codes matrix,
   and the codes through **one** batched
   :meth:`~repro.core.chain.DecimationChain.sinc_words` pass, whose words
   fill the group's rows of the block's ``(block, n / 8)`` words;
2. **decimated rate, per block**: the block's words run through **one**
   batched :meth:`~repro.core.chain.DecimationChain.measure_sinc_words_snr`
   call of the variant's chain — the tail of the nominal SNR leg's
   recipe (:meth:`~repro.core.chain.DecimationChain.measure_output_snr`):
   halfband, scaler, equalizer, output word, settle trim and one batched
   :func:`~repro.dsm.spectrum.analyze_tone_batch` periodogram;
3. power/area per sample are the nominal synthesis estimates scaled by the
   sample's PVT corner factors
   (:meth:`~repro.hardware.corners.CornerDraw.power_factors`) — the models
   are linear in the library constants, so no per-sample synthesis runs.

The group's stimulus and codes matrices are allocated once per shard, and
every group uses their leading rows; a block's words and the chain's
intermediates are freed before the next block starts.  A shard's peak
memory therefore scales with four full-rate rows plus :data:`ROW_BLOCK`
Sinc-rate rows, not with its population.

Reproducibility
---------------
Every random number of a run is drawn once, in the parent, in a fixed
order (:meth:`~repro.robustness.model.PerturbationModel.draw_table`), and
travels inside the shard payloads.  All batched kernels are per-row
bit-exact and independent of shard, block and group composition, so a
fixed seed produces byte-identical yield records at every ``jobs`` value
and across warm :class:`~repro.explore.store.ArtifactCAS` re-runs (the
whole record is cached under a content hash of spec, options, model and
run settings).
Perturbed chain variants and their frequency-mask verifications are
memoized in the run's shared :class:`~repro.flow.artifacts.ArtifactStore`,
keyed by the variant draw.
"""

from __future__ import annotations

import time
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.chain import ChainDesignOptions, DecimationChain
from repro.core.spec import ChainSpec, content_hash
from repro.core.verification import (VerificationReport,
                                     check_snr_record_length,
                                     simulated_output_snr,
                                     snr_stimulus_parameters, verify_chain,
                                     verify_distribution)
from repro.dsm.modulator import (LOCKSTEP_ROWS, DeltaSigmaModulator,
                                 LoopDivergedError)
from repro.dsm.signals import tone_argument, write_jittered_tone
from repro.explore.store import ArtifactCAS, open_store
from repro.explore.runner import execute_payloads
from repro.filters.halfband import perturbed_halfband
from repro.flow.artifacts import ArtifactStore
from repro.flow.pipeline import json_sanitize, run_design_flow
from repro.hardware.corners import CornerDraw
from repro.hardware.stdcell import library_by_name
from repro.robustness.model import PerturbationModel, default_model
from repro.robustness.report import (ROBUSTNESS_SCHEMA_VERSION,
                                     RobustnessSuiteResult, YieldReport,
                                     distribution_stats)
from repro.scenarios.registry import Scenario, resolve_scenarios

__all__ = [
    "GOLDEN_RUN_SETTINGS",
    "MIN_ANALYSIS_OUTPUTS",
    "ROW_BLOCK",
    "execute_robustness_payload",
    "run_robustness",
    "run_robustness_suite",
]

#: Pinned configuration of the committed golden Monte Carlo run — what
#: ``python -m repro robustness check`` executes and diffs against
#: ``src/repro/scenarios/goldens/robustness-lte-20.json``.  Small enough
#: for a CI smoke (8 samples over a 4096-sample stimulus), large enough to
#: exercise every perturbation axis and two chain variants per shard.
GOLDEN_RUN_SETTINGS = {
    "scenario": "lte-20",
    "n_samples": 8,
    "seed": 2011,
    "stimulus_samples": 4096,
}

#: Minimum decimated output samples the per-sample SNR analysis needs.
#: The tone analysis attributes 2*8+1 bins to the signal and excludes 4
#: near DC; shorter records leave (almost) no noise bins and report
#: absurd SNRs with a false PASS.  ``run_robustness_suite`` rejects any
#: ``stimulus_samples`` below ``MIN_ANALYSIS_OUTPUTS * decimation``.
MIN_ANALYSIS_OUTPUTS = 64

#: Rows per batched pass of the decimated-rate stages (halfband, scaler,
#: equalizer, output word, tone analysis) inside a variant group.  The
#: full-rate stages (stimulus, modulator, Hogenauer) run on groups of
#: :data:`~repro.dsm.modulator.LOCKSTEP_ROWS` rows of a block, so the
#: block sizes only the Sinc-rate words (one eighth of a record per row)
#: and what follows.  16 was chosen by measurement (docs/PERFORMANCE.md):
#: larger blocks buy no speed, smaller ones pay the per-block Python
#: dispatch of the decimated stages more often.  It is a multiple of the
#: lockstep width, so no full block leaves a partial group.
ROW_BLOCK = 16


# ----------------------------------------------------------------------
# Shard task (module-level so the process pool pickles it by reference)
# ----------------------------------------------------------------------
def execute_robustness_payload(payload: dict,
                               artifacts: Optional[ArtifactStore] = None,
                               ) -> dict:
    """Run one Monte Carlo shard and return its JSON-safe partial record.

    The payload carries the spec/options, the flow stimulus settings, the
    perturbation model, **all** variant coefficient draws, this shard's
    sample draws and the nominal power/area summary.  Returns ``{"rows":
    [...], "variants": {...}}`` with one row per sample (in shard order)
    and the mask verdict of every variant this shard touched.  The shard's
    stages run through ``artifacts`` (a fresh store when ``None``).
    """
    if artifacts is None:
        artifacts = ArtifactStore()
    spec = ChainSpec.from_dict(payload["spec"])
    options = ChainDesignOptions.from_dict(payload["options"])
    model = PerturbationModel.from_dict(payload["model"])
    flow = payload["flow"]
    chain = DecimationChain.design(spec, options, artifacts=artifacts)
    exact_tone_hz, amplitude, total, settle = snr_stimulus_parameters(
        chain, flow["snr_samples"], tone_hz=flow["snr_tone_hz"],
        amplitude=flow["snr_amplitude"])

    samples = payload["samples"]
    fs = spec.modulator.sample_rate_hz
    jitter_rms = model.jitter.rms_s if model.jitter is not None else 0.0
    argument = tone_argument(exact_tone_hz, fs, total)
    simulator = DeltaSigmaModulator.from_spec(spec.modulator).fast_simulator
    n_out = flow["snr_samples"] // chain.total_decimation

    rows_by_variant: Dict[int, List[int]] = {}
    for row, sample in enumerate(samples):
        rows_by_variant.setdefault(int(sample["variant"]), []).append(row)
    group_rows = min(LOCKSTEP_ROWS, max(map(len, rows_by_variant.values()),
                                        default=0))
    stimulus_group = np.empty((group_rows, total))
    codes_group = np.empty((group_rows, total), dtype=np.int64)

    def run_block(chain_v: DecimationChain,
                  rows: List[int]) -> Tuple[List[float], np.ndarray]:
        """SNR and loop stability of one block of rows.

        The full-rate stages run on groups of :data:`LOCKSTEP_ROWS` rows
        in the leading rows of the shard's stimulus and codes matrices;
        each group's Sinc cascade words fill its rows of the block's
        words, on which the rest of the chain and the analysis run once.
        """
        stable = np.empty(len(rows), dtype=bool)
        words = None
        for start in range(0, len(rows), LOCKSTEP_ROWS):
            lanes = rows[start:start + LOCKSTEP_ROWS]
            stimulus = stimulus_group[:len(lanes)]
            for out, row in zip(stimulus, lanes):
                sample = samples[row]
                write_jittered_tone(
                    out, argument, exact_tone_hz, amplitude * sample["gain"],
                    jitter_rms, np.random.default_rng(sample["jitter_seed"]),
                    sample["offset"])
            try:
                batch = simulator.simulate_batch(
                    stimulus, codes_only=True, out=codes_group[:len(lanes)])
            except LoopDivergedError as error:
                # Name the row of the block, not of the group.
                raise LoopDivergedError(start + error.row) from None
            group_words = chain_v.sinc_words(batch.codes)
            if words is None:
                words = np.empty((len(rows), group_words.shape[1]),
                                 dtype=group_words.dtype)
            words[start:start + len(lanes)] = group_words
            stable[start:start + len(lanes)] = batch.stable
        snrs = chain_v.measure_sinc_words_snr(words, exact_tone_hz,
                                              discard_outputs=settle,
                                              analyze_outputs=n_out)
        return snrs, stable

    snr_db = np.empty(len(samples))
    stable = np.empty(len(samples), dtype=bool)
    variants_info: Dict[str, dict] = {}
    for variant in sorted(rows_by_variant):
        chain_v, info = _variant_chain(
            chain, model, payload["variants"][variant], variant, artifacts)
        group = rows_by_variant[variant]
        for start in range(0, len(group), ROW_BLOCK):
            rows = group[start:start + ROW_BLOCK]
            snr_db[rows], stable[rows] = run_block(chain_v, rows)
        variants_info[str(variant)] = dict(info)

    nominal = payload["nominal"]
    nominal_vdd = float(payload["nominal_vdd"])
    out_rows = []
    for row, sample in enumerate(samples):
        corner = sample.get("corner")
        if corner is not None:
            # The draw carries the leak-doubling constant it was made under.
            draw = CornerDraw.from_dict(corner)
            dyn_f, leak_f = draw.power_factors(nominal_vdd)
            area_f = draw.area_scale
        else:
            dyn_f = leak_f = area_f = 1.0
        out_rows.append({
            "index": int(sample["index"]),
            "variant": int(sample["variant"]),
            "snr_db": float(snr_db[row]),
            "power_mw": float(nominal["dynamic_mw"] * dyn_f
                              + nominal["leakage_uw"] * leak_f / 1000.0),
            "area_mm2": float(nominal["area_mm2"] * area_f),
            "stable": bool(stable[row]),
        })
    return {"rows": out_rows, "variants": variants_info}


def _variant_chain(chain: DecimationChain, model: PerturbationModel,
                   draw: dict, variant: int,
                   artifacts: ArtifactStore
                   ) -> Tuple[DecimationChain, Mapping[str, object]]:
    """Build (memoized) one perturbed chain variant plus its mask verdict.

    The variant is keyed in the artifact store by the chain's design
    identity plus the coefficient draw, so shards sharing a variant (inline
    shards, or several groups inside one shard across re-runs) construct
    and mask-verify it exactly once.  The store keeps the immutable chain
    and the plain ``info`` dict, which pickles; each caller gets a
    read-only view of the dict.
    """
    def build() -> Tuple[DecimationChain, dict]:
        if model.has_chain_axes and draw:
            halfband = perturbed_halfband(
                chain.halfband, chain.options.halfband_coefficient_bits,
                f1_lsb_deltas=draw.get("halfband_f1"),
                f2_lsb_deltas=draw.get("halfband_f2"),
                f1_dropout=draw.get("halfband_f1_drop"),
                f2_dropout=draw.get("halfband_f2_drop"))
            equalizer = None
            if draw.get("equalizer") is not None:
                equalizer = chain.equalizer.with_tap_deltas(
                    np.asarray(draw["equalizer"], dtype=float),
                    chain.options.equalizer_coefficient_bits)
            chain_v = chain.with_stages(halfband=halfband,
                                        equalizer=equalizer)
        else:
            chain_v = chain
        mask = verify_chain(chain_v, include_snr=False, artifacts=artifacts)
        info = {
            "index": int(variant),
            "mask_passed": bool(mask.passed),
            "halfband_attenuation_db": float(
                chain_v.halfband.metadata.get("achieved_attenuation_db", 0.0)),
            "fingerprint": content_hash(chain_v.coefficient_fingerprint()),
        }
        return chain_v, info

    key = ("robust-variant", content_hash({
        "spec": chain.spec.to_dict(),
        "options": chain.options.to_dict(),
        "draw": draw,
        "variant": int(variant),
    }))
    chain_v, info = artifacts.get_or_compute(key, build)
    return chain_v, MappingProxyType(info)


# ----------------------------------------------------------------------
# Run orchestration
# ----------------------------------------------------------------------
def run_robustness(scenario: Union[str, Scenario],
                   model: Optional[PerturbationModel] = None,
                   n_samples: int = 256,
                   seed: int = 2011,
                   stimulus_samples: Optional[int] = None,
                   jobs: int = 1,
                   cache_dir=None,
                   store: Optional[ArtifactStore] = None,
                   min_pass_fraction: float = 0.9,
                   progress: Optional[Callable[[str], None]] = None,
                   ) -> YieldReport:
    """Monte Carlo robustness run over a single scenario.

    Thin wrapper over :func:`run_robustness_suite` for the one-scenario
    case; see there for the parameters.
    """
    suite = run_robustness_suite(
        [scenario], model=model, n_samples=n_samples, seed=seed,
        stimulus_samples=stimulus_samples, jobs=jobs, cache_dir=cache_dir,
        store=store,
        min_pass_fraction=min_pass_fraction, progress=progress)
    return suite.reports[0]


def run_robustness_suite(scenarios: Optional[Sequence[Union[str, Scenario]]] = None,
                         model: Optional[PerturbationModel] = None,
                         n_samples: int = 256,
                         seed: int = 2011,
                         stimulus_samples: Optional[int] = None,
                         jobs: int = 1,
                         cache_dir=None,
                         store: Optional[ArtifactStore] = None,
                         min_pass_fraction: float = 0.9,
                         progress: Optional[Callable[[str], None]] = None,
                         ) -> RobustnessSuiteResult:
    """Monte Carlo robustness runs over a set of scenarios.

    Each scenario runs an ``n_samples``-sample Monte Carlo under ``model``
    (default: :func:`~repro.robustness.model.default_model`): the sample
    population is sharded across ``jobs`` and executed on the shared
    :func:`~repro.explore.runner.execute_payloads` harness, with the hot
    path batched as described in the module docstring.  Whole-run records
    are cached in the on-disk :class:`~repro.explore.store.ArtifactCAS`
    under a content hash of (spec, options, model, run settings), so
    re-runs are warm and byte-identical.

    Parameters
    ----------
    scenarios:
        Scenario names and/or :class:`~repro.scenarios.registry.Scenario`
        objects; ``None`` runs every registered scenario.
    model:
        The perturbation model; ``None`` enables every axis with the
        defaults.
    n_samples:
        Monte Carlo samples per scenario.
    seed:
        Seed of the run's single :class:`numpy.random.Generator`; fixed
        seeds reproduce records byte-identically at every ``jobs`` value.
    stimulus_samples:
        Override of the scenario's stimulus record length (shorter records
        make smoke runs fast; the golden run pins 4096).
    jobs:
        Shards of the sample population, run inline for ``1`` and on the
        process pool otherwise, exactly as in
        :func:`repro.explore.run_sweep`; both are byte-identical.
    cache_dir:
        Result store: a directory path or an open
        :class:`~repro.explore.store.ArtifactCAS` (see
        :func:`~repro.explore.store.open_store`); ``None`` disables
        caching.
    store:
        Optional shared artifact store (a fresh one per run otherwise).
    min_pass_fraction:
        Yield target of the distribution-level verification checks.
    progress:
        Optional callback invoked with one line per completed scenario.
    """
    selected = resolve_scenarios(list(scenarios) if scenarios is not None
                                 else None)
    for scenario in selected:
        check_snr_record_length(
            "stimulus_samples",
            (stimulus_samples if stimulus_samples is not None
             else scenario.stimulus.n_samples),
            scenario.spec.total_decimation, MIN_ANALYSIS_OUTPUTS,
            context=f" for scenario '{scenario.name}'")
    model = model if model is not None else default_model()
    cache = open_store(cache_dir) if cache_dir is not None else None
    store = store if store is not None else ArtifactStore()
    started = time.perf_counter()

    reports: List[YieldReport] = []
    misses = 0
    mode = "inline"
    for scenario in selected:
        report, ran_mode = _run_single(
            scenario, model, n_samples, seed, stimulus_samples, jobs,
            cache, store, min_pass_fraction)
        if not report.from_cache:
            misses += 1
            mode = ran_mode
        reports.append(report)
        if progress is not None:
            source = "cache" if report.from_cache else "run"
            progress(f"[{source}] {scenario.name}: yield "
                     f"{100.0 * report.yield_fraction:.1f}% over "
                     f"{report.n_samples} samples")

    elapsed = time.perf_counter() - started
    return RobustnessSuiteResult(
        reports=reports,
        elapsed_s=elapsed,
        cache_hits=len(reports) - misses,
        cache_misses=misses,
        jobs=int(jobs),
        metadata={"executor": mode, "artifact_store": store.stats(),
                  "model": model.to_dict(), "seed": int(seed),
                  "num_runs": len(selected)},
    )


def _run_settings(scenario: Scenario, model: PerturbationModel,
                  n_samples: int, seed: int, stimulus_samples: Optional[int],
                  min_pass_fraction: float) -> dict:
    """The JSON-safe run-settings block (also the cache-key payload)."""
    flow = scenario.flow_settings()
    return {
        "schema": ROBUSTNESS_SCHEMA_VERSION,
        "n_samples": int(n_samples),
        "seed": int(seed),
        "stimulus_samples": int(stimulus_samples
                                if stimulus_samples is not None
                                else scenario.stimulus.n_samples),
        "min_pass_fraction": float(min_pass_fraction),
        "snr_tone_hz": flow["snr_tone_hz"],
        "snr_amplitude": flow["snr_amplitude"],
        "library": flow["library"],
        "measure_activity": flow["measure_activity"],
    }


def _run_single(scenario: Scenario, model: PerturbationModel, n_samples: int,
                seed: int, stimulus_samples: Optional[int], jobs: int,
                cache: Optional[ArtifactCAS],
                store: ArtifactStore, min_pass_fraction: float,
                ) -> Tuple[YieldReport, str]:
    """Execute (or reload) one scenario's Monte Carlo run."""
    run = _run_settings(scenario, model, n_samples, seed, stimulus_samples,
                        min_pass_fraction)
    key = content_hash({"robustness": {
        "spec": scenario.spec.to_dict(),
        "options": scenario.options.to_dict(),
        "model": model.to_dict(),
        "run": run,
    }})
    cached = cache.get(key) if cache is not None else None
    if cached is not None:
        return YieldReport(scenario=scenario.name, record=cached,
                           cache_key=key, from_cache=True), "inline"

    spec, options = scenario.spec, scenario.options
    library = library_by_name(run["library"])
    stim_n = run["stimulus_samples"]

    # Nominal flow + SNR in the parent: provides the corner-scaling baseline
    # and warms the shared store (design, mask, modulator bit-stream) before
    # the process pool ships it to the workers.
    flow_result = run_design_flow(
        spec=spec, options=options, library=library,
        include_snr_simulation=False,
        measure_activity=run["measure_activity"], artifacts=store)
    nominal_snr = simulated_output_snr(
        flow_result.chain, n_samples=stim_n, tone_hz=run["snr_tone_hz"],
        amplitude=run["snr_amplitude"], artifacts=store)
    synthesis = flow_result.synthesis
    nominal = {
        "snr_db": float(nominal_snr),
        "dynamic_mw": float(synthesis.power.total_dynamic_mw),
        "leakage_uw": float(synthesis.power.total_leakage_uw),
        "power_mw": float(synthesis.total_power_mw),
        "area_mm2": float(synthesis.total_area_mm2),
        "gate_count": int(synthesis.total_gate_count),
        "meets_spec": bool(flow_result.meets_spec),
    }

    chain = flow_result.chain
    table = model.draw_table(
        np.random.default_rng(seed), n_samples,
        n_halfband_f1=chain.halfband.n1, n_halfband_f2=chain.halfband.n2,
        n_equalizer_taps=chain.equalizer.order + 1,
        nominal_vdd=library.nominal_vdd)

    flow_payload = {
        "library": run["library"],
        "snr_samples": stim_n,
        "snr_tone_hz": run["snr_tone_hz"],
        "snr_amplitude": run["snr_amplitude"],
    }
    shards = np.array_split(np.arange(n_samples), max(1, min(n_samples,
                                                             jobs)))
    payloads = [{
        "spec": spec.to_dict(),
        "options": options.to_dict(),
        "flow": flow_payload,
        "model": model.to_dict(),
        "variants": table["variants"],
        "samples": [table["samples"][i] for i in shard],
        "nominal": {"dynamic_mw": nominal["dynamic_mw"],
                    "leakage_uw": nominal["leakage_uw"],
                    "area_mm2": nominal["area_mm2"]},
        "nominal_vdd": float(library.nominal_vdd),
    } for shard in shards if len(shard)]

    def warm(store: ArtifactStore) -> None:
        # Build each sampled chain variant once in the parent, so the pool's
        # workers find it in the shipped store instead of each rebuilding it.
        for variant in sorted({s["variant"] for s in table["samples"]}):
            _variant_chain(chain, model, table["variants"][variant], variant,
                           store)

    partials, mode, _ = execute_payloads(
        payloads, task=execute_robustness_payload, jobs=jobs, store=store,
        warm=warm)

    rows: List[dict] = []
    variants: Dict[int, dict] = {}
    for partial in partials:
        rows.extend(partial["rows"])
        for v, info in partial["variants"].items():
            variants.setdefault(int(v), info)
    rows.sort(key=lambda r: r["index"])

    record = _assemble_record(scenario, model, run, nominal, table, rows,
                              variants, min_pass_fraction)
    if cache is not None:
        cache.put(key, record)
    return YieldReport(scenario=scenario.name, record=record, cache_key=key,
                       from_cache=False), mode


def _assemble_record(scenario: Scenario, model: PerturbationModel, run: dict,
                     nominal: dict, table: dict, rows: List[dict],
                     variants: Dict[int, dict],
                     min_pass_fraction: float) -> dict:
    """Fold the merged shard rows into the final JSON-safe yield record."""
    snr_limit = scenario.spec.decimator.target_snr_db - 3.0
    for row in rows:
        mask_ok = bool(variants[row["variant"]]["mask_passed"])
        row["passed"] = bool(row["stable"] and mask_ok
                             and row["snr_db"] >= snr_limit)
    snrs = [row["snr_db"] for row in rows]
    powers = [row["power_mw"] for row in rows]
    areas = [row["area_mm2"] for row in rows]
    pass_rate = sum(1 for row in rows if row["passed"]) / len(rows)

    checks = VerificationReport()
    verify_distribution("end-to-end SNR", snrs, snr_limit, ">=",
                        min_pass_fraction=min_pass_fraction,
                        percentile=99.0, report=checks)
    checks.add("Monte Carlo yield (stable + mask + SNR)", pass_rate,
               min_pass_fraction, ">=", unit="")

    worst = min(rows, key=lambda row: (row["snr_db"], row["index"]))
    record = {
        "schema": ROBUSTNESS_SCHEMA_VERSION,
        "scenario": scenario.name,
        "spec": scenario.spec.to_dict(),
        "options": scenario.options.to_dict(),
        "model": model.to_dict(),
        "run": run,
        "nominal": nominal,
        "variants": [variants[v] for v in sorted(variants)],
        "samples": rows,
        "distributions": {
            "snr_db": distribution_stats(snrs),
            "power_mw": distribution_stats(powers),
            "area_mm2": distribution_stats(areas),
        },
        "yield": {
            "pass_rate": float(pass_rate),
            "snr_limit_db": float(snr_limit),
            "min_pass_fraction": float(min_pass_fraction),
            "passed": bool(checks.passed),
            "checks": checks.as_dict(),
        },
        "worst_case": {
            "index": int(worst["index"]),
            "variant": int(worst["variant"]),
            "snr_db": float(worst["snr_db"]),
            "draw": table["samples"][worst["index"]],
        },
    }
    return json_sanitize(record)
