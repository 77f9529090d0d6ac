"""End-to-end design flow: spec in, verified design + synthesis report out.

Staged execution
----------------
:func:`run_design_flow` is internally a pipeline of keyed stages —
modulator simulation, chain design (halfband + equalizer sub-stages), mask
verification, the chain's SNR leg and the Hogenauer activity measurement.
Every stage runs through an
:class:`~repro.flow.artifacts.ArtifactStore` on a content key derived from
its actual inputs, so repeated flows that share a store (the points of a
design-space sweep, the requests of the serve daemon) compute each stage
once per distinct key while producing records bit-identical to a flow on a
fresh store.  :func:`warm_flow_artifacts` pre-computes the stages that
sweep points sharing a design or a stimulus have in common, which is how
the cached run loop fills a store in the parent before shipping it to the
process-pool workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.chain import ChainDesignOptions, DecimationChain
from repro.core.spec import ChainSpec, paper_chain_spec
from repro.core.verification import (VerificationReport, modulator_tone_codes,
                                     verify_chain)
from repro.flow.artifacts import ArtifactStore
from repro.hardware.stdcell import GENERIC_45NM, StandardCellLibrary
from repro.hardware.synthesis import SynthesisFlow, SynthesisReport
from repro.obs import trace


@dataclass
class FlowResult:
    """Everything produced by one run of the design flow."""

    spec: ChainSpec
    chain: DecimationChain
    verification: VerificationReport
    synthesis: SynthesisReport
    simulated_snr_db: Optional[float] = None
    metadata: dict = field(default_factory=dict)

    @property
    def meets_spec(self) -> bool:
        """Whether the verification report passed every check."""
        return self.verification.passed

    def summary(self) -> dict:
        """Flat dictionary used by the examples and the benchmark harness."""
        out = {
            "meets_spec": self.meets_spec,
            "total_power_mw": self.synthesis.total_power_mw,
            "total_area_mm2": self.synthesis.total_area_mm2,
        }
        out.update({f"design_{k}": v for k, v in self.chain.summary().items()})
        if self.simulated_snr_db is not None:
            out["simulated_snr_db"] = self.simulated_snr_db
        return out

    def record(self) -> dict:
        """JSON-serializable record of this run (the sweep cache payload).

        Contains the spec, design options, flat summary, verification
        checks and per-stage power rows — everything the batch reports and
        the :mod:`repro.explore` result cache need, with numpy scalars
        coerced to plain Python types so ``json.dumps`` round-trips.
        """
        return json_sanitize({
            "spec": self.spec.to_dict(),
            "options": self.chain.options.to_dict(),
            "summary": self.summary(),
            "verification": self.verification.as_dict(),
            "power_table": self.synthesis.power_table(),
            "gate_count": self.synthesis.total_gate_count,
            "metadata": self.metadata,
        })


def json_sanitize(value):
    """Recursively coerce numpy scalars/arrays into JSON-safe Python types.

    Public utility shared by every record producer (`FlowResult.record`,
    the scenario runner, the robustness engine): nested dicts/lists/tuples
    are rebuilt with numpy booleans/integers/floats/arrays converted to
    their plain Python equivalents, so ``json.dumps`` round-trips the
    result byte-stably.
    """
    if isinstance(value, dict):
        return {str(k): json_sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_sanitize(v) for v in value]
    if isinstance(value, np.ndarray):
        return [json_sanitize(v) for v in value.tolist()]
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def run_design_flow(spec: Optional[ChainSpec] = None,
                    options: Optional[ChainDesignOptions] = None,
                    library: StandardCellLibrary = GENERIC_45NM,
                    include_snr_simulation: bool = False,
                    snr_samples: int = 32768,
                    measure_activity: bool = True,
                    artifacts: Optional[ArtifactStore] = None,
                    snr_tone_hz: Optional[float] = None,
                    snr_amplitude: Optional[float] = None) -> FlowResult:
    """Run the complete rapid design-and-synthesis flow.

    Parameters
    ----------
    spec:
        Chain specification; defaults to the paper's Table I.
    options:
        Architecture/implementation options; defaults reproduce the paper.
    library:
        Standard-cell technology model for the power/area estimates.
    include_snr_simulation:
        Also simulate the modulator + bit-true chain to measure the output
        SNR (slow; a few seconds for the default record length).  The
        measured SNR is added to the verification report as a check
        against the Table I target, so it counts toward ``meets_spec``.
    snr_samples:
        Modulator samples for the SNR simulation.
    measure_activity:
        Measure Hogenauer toggle activity with the 5 MHz MSA stimulus for
        the power model (the paper's methodology) instead of using defaults.
    artifacts:
        :class:`~repro.flow.artifacts.ArtifactStore` every stage runs
        through (halfband/equalizer design, mask verification, modulator
        bit-stream, the chain's SNR leg and the Hogenauer activity); a
        fresh one when ``None``.  Pass one store to several flows
        to share those stages; results are bit-identical either way.  The
        library-dependent power and area estimates are recomputed from the
        stored stages on every call.
    snr_tone_hz, snr_amplitude:
        Optional explicit SNR stimulus, forwarded to
        :func:`repro.core.verification.verify_chain`; the defaults derive
        the paper's bandwidth/4 tone at 0.95 x MSA from the spec.
    """
    spec = spec or paper_chain_spec()
    if artifacts is None:
        artifacts = ArtifactStore()
    with trace.span("flow.design"):
        chain = DecimationChain.design(spec, options, artifacts=artifacts)
    verification = verify_chain(chain, include_snr=include_snr_simulation,
                                snr_samples=snr_samples, artifacts=artifacts,
                                snr_tone_hz=snr_tone_hz,
                                snr_amplitude=snr_amplitude)
    with trace.span("flow.synthesis", measure_activity=measure_activity):
        synthesis = SynthesisFlow(library).run(
            chain, measure_activity=measure_activity, artifacts=artifacts)
    snr = verification.metadata.get("simulated_snr_db")
    return FlowResult(
        spec=spec,
        chain=chain,
        verification=verification,
        synthesis=synthesis,
        simulated_snr_db=snr,
        metadata={"library": library.name},
    )


def warm_flow_artifacts(spec: Optional[ChainSpec],
                        options: Optional[ChainDesignOptions],
                        artifacts: ArtifactStore,
                        include_snr_simulation: bool = False,
                        snr_samples: int = 32768,
                        snr_tone_hz: Optional[float] = None,
                        snr_amplitude: Optional[float] = None,
                        measure_activity: bool = False,
                        library: StandardCellLibrary = GENERIC_45NM) -> None:
    """Pre-compute the shareable stages of :func:`run_design_flow`.

    Fills ``artifacts`` with the chain-design sub-stages, the mask
    verification, (with ``include_snr_simulation``) the modulator
    bit-stream and the synthesis report on ``library`` (with
    ``measure_activity``, and the Hogenauer activity measurement it
    reads) for the given point.  The chain-keyed SNR leg is not
    warmed: the flows that need it compute it through the same store on
    first use.  Before starting its process pool, the
    cached run loop of sweeps and scenario suites warms a store with one
    representative of every stage-sharing group of pending payloads in the
    parent (:func:`repro.explore.runner.warm_shared_stages`) and ships it
    to the workers once, via the pool initializer.
    """
    spec = spec or paper_chain_spec()
    chain = DecimationChain.design(spec, options, artifacts=artifacts)
    verify_chain(chain, include_snr=False, artifacts=artifacts)
    if include_snr_simulation:
        from repro.core.verification import snr_stimulus_parameters

        exact_tone_hz, amplitude, total, _ = snr_stimulus_parameters(
            chain, snr_samples, tone_hz=snr_tone_hz, amplitude=snr_amplitude)
        modulator_tone_codes(spec.modulator, exact_tone_hz, amplitude, total,
                             artifacts=artifacts)
    SynthesisFlow(library).run(chain, measure_activity=measure_activity,
                               artifacts=artifacts)
