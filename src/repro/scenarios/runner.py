"""Scenario execution: the suite runner over the shared flow harness.

:func:`run_scenario` and :func:`run_scenario_suite` execute registered
scenarios through the same staged, memoized pipeline as the design-space
sweeps: each scenario becomes a JSON-safe payload, the payloads run on the
:func:`repro.explore.runner.run_cached_payloads` loop (inline or on the
process pool, one shared :class:`~repro.flow.artifacts.ArtifactStore` per
run, the same warm policy) and the records land in the same
content-addressed store (:func:`~repro.explore.store.open_store`).
Scenario records are therefore byte-identical at every ``jobs`` value and
across cached re-runs, which is what lets the golden-record checker
(:mod:`repro.scenarios.golden`) treat any diff as a regression.

On top of the design flow, a scenario record adds the resolved stimulus
and — for scenarios with ``resample_rates_hz`` — the Farrow rate-converter
leg: the designed chain's bit-true output is resampled to each requested
rate and the recovered tone, output length and hardware resources are
recorded (the paper's Section III flexible-output-rate use-case).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.explore.store import open_store
from repro.explore.runner import (FlowRecordMetrics, flow_record,
                                  record_metrics, run_cached_payloads,
                                  run_flow_payload)
from repro.flow.artifacts import ArtifactStore
from repro.flow.pipeline import json_sanitize
from repro.scenarios.registry import Scenario, resolve_scenarios

__all__ = [
    "ScenarioRunResult",
    "ScenarioSuiteResult",
    "run_scenario",
    "run_scenario_suite",
    "execute_scenario_payload",
]


def execute_scenario_payload(payload: dict,
                             artifacts: Optional[ArtifactStore] = None) -> dict:
    """Run one scenario payload and return its JSON-safe record.

    Module-level (picklable by reference) so the process pool can ship it
    to its workers.  The record is the design-flow record of
    :func:`repro.explore.runner.flow_record` extended with the scenario
    name, the resolved (coherent) stimulus and the rate-converter leg.
    Both legs run through ``artifacts`` (a fresh store when ``None``).
    """
    from repro.core.verification import snr_stimulus_parameters

    if artifacts is None:
        artifacts = ArtifactStore()
    result = run_flow_payload(payload, artifacts)
    record = flow_record(result, artifacts)
    flow = payload["flow"]
    scenario = payload.get("scenario", {})
    chain = result.chain

    exact_tone_hz, amplitude, total, settle = snr_stimulus_parameters(
        chain, flow["snr_samples"], tone_hz=flow.get("snr_tone_hz"),
        amplitude=flow.get("snr_amplitude"))
    record["scenario"] = scenario.get("name")
    record["stimulus"] = {
        "tone_hz": flow.get("snr_tone_hz"),
        "coherent_tone_hz": float(exact_tone_hz),
        "amplitude": float(amplitude),
        "n_samples": int(flow["snr_samples"]),
    }
    rates = scenario.get("resample_rates_hz") or []
    record["rate_converter"] = (
        _rate_converter_leg(chain, rates, exact_tone_hz, amplitude, total,
                            settle, artifacts)
        if rates else [])
    return record


def _rate_converter_leg(chain, rates: Sequence[float],
                        exact_tone_hz: float, amplitude: float,
                        total: int, settle: int,
                        artifacts: ArtifactStore) -> List[dict]:
    """Resample the chain's bit-true output to each requested rate.

    Reuses the memoized modulator bit-stream (same artifact key as the SNR
    leg, so an ``include_snr`` scenario simulates the modulator once), runs
    the designed chain, and measures the recovered tone after the cubic
    Farrow resampler: peak-bin frequency, RMS-estimated amplitude, and the
    input/output length ratio, plus the converter's hardware resources.
    The entries are memoized in ``artifacts`` as a tuple on the chain
    (:meth:`~repro.core.chain.DecimationChain.content_key`), the rates and
    the stimulus, so a repeated request runs nothing; each caller gets a
    fresh :func:`~repro.flow.pipeline.json_sanitize` rebuild of them.
    """
    from repro.core.verification import modulator_tone_codes
    from repro.filters.rate_converter import FarrowRateConverter

    spec = chain.spec

    def measure() -> Tuple[dict, ...]:
        codes = modulator_tone_codes(spec.modulator, exact_tone_hz, amplitude,
                                     total, artifacts=artifacts)
        words = chain.process_fixed(codes)
        output = chain.output_to_normalized(words)[settle:]
        input_rate = float(spec.decimator.output_rate_hz)

        entries: List[dict] = []
        for rate in rates:
            converter = FarrowRateConverter(input_rate, float(rate))
            resampled = converter.process(output)
            window = np.hanning(len(resampled))
            spectrum = np.abs(np.fft.rfft(resampled * window))
            freqs = np.fft.rfftfreq(len(resampled), d=1.0 / float(rate))
            peak_hz = float(freqs[int(np.argmax(spectrum))])
            rms_amplitude = float(np.sqrt(2.0 * np.mean(resampled ** 2)))
            entries.append({
                "input_rate_hz": input_rate,
                "output_rate_hz": float(rate),
                "conversion_ratio": float(converter.conversion_ratio),
                "n_input": int(len(output)),
                "n_output": int(len(resampled)),
                "tone_peak_hz": peak_hz,
                "tone_rms_amplitude": rms_amplitude,
                "resources": converter.resource_summary(
                    spec.decimator.output_bits),
            })
        return tuple(entries)

    key = ("rate-converter-leg", chain.derived_hash(
        ("rate-converter-leg", tuple(rates), exact_tone_hz, amplitude,
         total, settle), lambda: {
            "chain": chain.content_key(),
            "rates_hz": [float(rate) for rate in rates],
            "tone_hz": float(exact_tone_hz),
            "amplitude": float(amplitude),
            "total_samples": int(total),
            "settle_outputs": int(settle),
        }))
    return json_sanitize(artifacts.get_or_compute(key, measure))


@dataclass
class ScenarioRunResult(FlowRecordMetrics):
    """Outcome of one scenario: identity, record and provenance."""

    scenario: Scenario
    cache_key: str
    record: dict
    #: Whether the record came from the on-disk cache (not serialized into
    #: reports, so cached re-runs stay byte-identical).
    from_cache: bool = False

    @property
    def name(self) -> str:
        """The scenario's registry name."""
        return self.scenario.name

    def metrics_row(self) -> Dict[str, object]:
        """Flat metrics dictionary consumed by the reports/catalog."""
        row = self.scenario.summary_row()
        row.update(record_metrics(self.record),
                   simulated_snr_db=self.record.get("simulated_snr_db"),
                   predicted_snr_db=float(self.record["predicted_snr_db"]))
        return row


@dataclass
class ScenarioSuiteResult:
    """All scenario results of one suite run plus run provenance."""

    results: List[ScenarioRunResult]
    elapsed_s: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    jobs: int = 1
    metadata: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def by_name(self) -> Dict[str, ScenarioRunResult]:
        """Results keyed by scenario name."""
        return {r.name: r for r in self.results}

    def metrics_rows(self) -> List[Dict[str, object]]:
        """Per-scenario metric rows, in suite order."""
        return [r.metrics_row() for r in self.results]


def run_scenario(scenario: Union[str, Scenario],
                 artifacts: Optional[ArtifactStore] = None,
                 cache_dir: Optional[Union[str, Path]] = None,
                 ) -> ScenarioRunResult:
    """Run a single scenario (by name or object) through the design flow.

    Thin wrapper over :func:`run_scenario_suite` for the one-scenario
    case; ``artifacts`` optionally shares a store with the caller (e.g. an
    example script running several scenarios in sequence).
    """
    suite = run_scenario_suite([scenario], cache_dir=cache_dir,
                               store=artifacts)
    return suite.results[0]


def run_scenario_suite(scenarios: Optional[Sequence[Union[str, Scenario]]] = None,
                       jobs: int = 1,
                       cache_dir: Optional[Union[str, Path]] = None,
                       progress: Optional[Callable[[str], None]] = None,
                       store: Optional[ArtifactStore] = None,
                       ) -> ScenarioSuiteResult:
    """Execute a set of scenarios, in parallel, with caching.

    Parameters
    ----------
    scenarios:
        Scenario names and/or :class:`Scenario` objects; ``None`` runs
        every registered scenario.
    jobs:
        Maximum concurrent scenario executions: ``1`` runs inline, more
        use the process pool, exactly as in :func:`repro.explore.run_sweep`;
        both are byte-identical.
    cache_dir:
        Result store shared with the sweep engine: a directory path or an
        open :class:`~repro.explore.store.ArtifactCAS` (see
        :func:`~repro.explore.store.open_store`); ``None`` disables
        caching.
    progress:
        Optional callback invoked with one line per completed scenario
        (``[cache] <name>`` for hits, ``[run i/N] <name> (elapsed Xs,
        eta ~Ys)`` for misses).
    store:
        Optional shared artifact store (a fresh one is created per run).

    Returns
    -------
    ScenarioSuiteResult
        Per-scenario records in selection order plus cache/run statistics.
    """
    selected = resolve_scenarios(list(scenarios) if scenarios is not None
                                 else None)
    keys = [s.cache_key() for s in selected]
    run = run_cached_payloads(
        [s.payload() for s in selected], keys, [s.name for s in selected],
        task=execute_scenario_payload, jobs=jobs,
        cache=open_store(cache_dir) if cache_dir is not None else None,
        store=store, progress=progress)
    results = [ScenarioRunResult(scenario=scenario, cache_key=key,
                                 record=record, from_cache=hit)
               for scenario, key, record, hit
               in zip(selected, keys, run.records, run.from_cache)]
    return ScenarioSuiteResult(
        results=results,
        elapsed_s=run.elapsed_s,
        cache_hits=run.cache_hits,
        cache_misses=run.cache_misses,
        jobs=int(jobs),
        metadata={"executor": run.mode, "artifact_store": run.store.stats(),
                  "num_scenarios": len(selected)},
    )
