"""Synthesis-flow report: RTL + resources + power + area in one place.

The last step of the paper's flow runs the generated RTL through synthesis,
place-and-route and power sign-off and reports Table II (power per stage),
the layout area (Fig. 12) and the power distribution (Fig. 13).  This module
stands in for that tool chain: it generates the RTL, extracts the resources,
runs the activity-based power model and the area model, and assembles one
:class:`SynthesisReport` that the benchmarks serialize.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.spec import content_hash
from repro.hardware.area import AreaModel, AreaReport
from repro.hardware.power import (ACTIVITY_TONE_HZ, PowerModel, PowerReport,
                                  measure_hogenauer_activity)
from repro.hardware.resources import StageResources, extract_chain_resources
from repro.hardware.stdcell import GENERIC_45NM, StandardCellLibrary
from repro.hardware.verilog import VerilogModule, generate_chain_rtl


@dataclass
class SynthesisReport:
    """Everything the paper's Section VIII reports, for one designed chain."""

    resources: List[StageResources]
    power: PowerReport
    area: AreaReport
    rtl: Dict[str, VerilogModule]
    library: StandardCellLibrary
    metadata: dict = field(default_factory=dict)

    @property
    def total_power_mw(self) -> float:
        """Total estimated power of the chain in milliwatts."""
        return self.power.total_mw

    @property
    def total_area_mm2(self) -> float:
        """Total estimated layout area in mm²."""
        return self.area.total_layout_area_mm2

    @property
    def total_gate_count(self) -> int:
        """NAND2-equivalent gate count summed over all stages."""
        return sum(r.equivalent_gate_count for r in self.resources)

    def rtl_line_count(self) -> int:
        """Total generated RTL lines across all modules."""
        return sum(module.line_count() for module in self.rtl.values())

    def power_table(self) -> List[Dict[str, object]]:
        """Rows shaped like Table II of the paper."""
        return self.power.as_table()

    def power_distribution(self) -> Dict[str, float]:
        """Per-stage dynamic power fractions (the Fig. 13 pie chart)."""
        return self.power.dynamic_fractions()

    def cross_check_resources(self) -> Dict[str, Dict[str, int]]:
        """Compare the behavioural resource model with the generated RTL.

        Returns per-stage adder counts from both views; the test suite
        asserts they agree to within the structural differences documented
        in each generator (the RTL expands the halfband's tapped cascade as
        its single-FIR equivalent, so only the order of magnitude has to
        match there).
        """
        comparison: Dict[str, Dict[str, int]] = {}
        rtl_by_kind = {name: module for name, module in self.rtl.items()}
        for idx, res in enumerate(self.resources):
            rtl_name = None
            for name in rtl_by_kind:
                if name.startswith(f"stage{idx}_"):
                    rtl_name = name
                    break
            if rtl_name is None:
                continue
            comparison[res.label] = {
                "model_adders": res.total_adder_bits // max(res.word_width, 1),
                "rtl_adders": int(self.rtl[rtl_name].resources.get("adders", 0)),
            }
        return comparison

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        lines = ["Synthesis report"]
        lines.append(str(self.power))
        lines.append(str(self.area))
        lines.append(f"Generated RTL: {len(self.rtl)} modules, {self.rtl_line_count()} lines")
        return "\n".join(lines)


class SynthesisFlow:
    """The automated 'filter design → RTL → power/area report' flow."""

    def __init__(self, library: StandardCellLibrary = GENERIC_45NM,
                 supply_v: Optional[float] = None) -> None:
        self.library = library
        self.supply_v = supply_v if supply_v is not None else library.nominal_vdd

    def run(self, chain, measure_activity: bool = True,
            activity_samples: int = 4096,
            retimed: Optional[bool] = None,
            artifacts=None) -> SynthesisReport:
        """Run the full flow on a designed chain.

        Parameters
        ----------
        chain:
            A :class:`~repro.core.chain.DecimationChain`.
        measure_activity:
            Drive the bit-true Hogenauer stages with the paper's 5 MHz MSA
            stimulus and use the measured toggle activity (slower but more
            faithful).  When ``False`` the per-kind default activities are
            used.
        activity_samples:
            Number of modulator samples for the activity measurement.
        retimed:
            Override the chain's retiming option for what-if studies.
        artifacts:
            :class:`~repro.flow.artifacts.ArtifactStore` the activity
            measurement and the RTL generation run through (a fresh one
            when ``None``).  The activity is keyed by the modulator spec,
            the Sinc cascade and the stimulus only, so flows differing in
            the library, the output word or the halfband/equalizer options
            share one measurement; the RTL is keyed by
            :meth:`~repro.core.chain.DecimationChain.content_key`.  Each
            caller gets its own activity dict and RTL mapping; the stored
            :class:`~repro.hardware.verilog.VerilogModule` objects are
            frozen and shared.
        """
        from repro.flow.artifacts import ArtifactStore

        if artifacts is None:
            artifacts = ArtifactStore()
        measured = (hogenauer_activity(chain, artifacts, activity_samples)
                    if measure_activity else None)
        resources = extract_chain_resources(chain, measured)
        retimed = chain.options.retimed if retimed is None else retimed
        power_model = PowerModel(self.library, self.supply_v)
        power = power_model.chain_power(resources, retimed=retimed)
        area = AreaModel(self.library).chain_area(resources)
        rtl = dict(artifacts.get_or_compute(("chain-rtl", chain.content_key()),
                                            lambda: generate_chain_rtl(chain)))
        return SynthesisReport(
            resources=resources,
            power=power,
            area=area,
            rtl=rtl,
            library=self.library,
            metadata={
                "supply_v": self.supply_v,
                "measured_activity": measured,
                "retimed": retimed,
            },
        )


def hogenauer_activity(chain, artifacts, activity_samples: int = 4096) -> dict:
    """The chain's measured Hogenauer activity, memoized in ``artifacts``.

    Runs :func:`~repro.hardware.power.measure_hogenauer_activity` with the
    paper's stimulus (a ``ACTIVITY_TONE_HZ`` tone at the modulator's MSA)
    under :func:`_activity_key`; each caller gets its own copy.  Shared by
    :meth:`SynthesisFlow.run` and the pool's warm step
    (:func:`repro.flow.pipeline.warm_flow_artifacts`), so both look the
    measurement up under one key.
    """
    amplitude = chain.spec.modulator.msa
    return artifacts.get_or_compute(
        _activity_key(chain, activity_samples, ACTIVITY_TONE_HZ, amplitude),
        lambda: measure_hogenauer_activity(
            chain, n_samples=activity_samples, tone_hz=ACTIVITY_TONE_HZ,
            amplitude=amplitude),
        copy=True)


def _activity_key(chain, n_samples: int, tone_hz: float,
                  amplitude: float) -> tuple:
    """Store key of :func:`measure_hogenauer_activity` on ``chain``.

    Covers every input the measurement reads — each modulator-spec field,
    the Hogenauer stages (structure, register width, label) and the
    stimulus — and nothing else, so ``design`` and ``verify`` on any
    library and output word share one measurement.
    """
    stages = chain._hogenauer_stages
    return ("hogenauer-activity", content_hash({
        "modulator": chain.spec.modulator.to_dict(),
        "stages": [stage.coefficient_fingerprint() for stage in stages],
        "widths": [stage.width for stage in stages],
        "labels": [stage.spec.label for stage in stages],
        "n_samples": n_samples,
        "tone_hz": tone_hz,
        "amplitude": amplitude,
    }))
