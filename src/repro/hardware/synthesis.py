"""Synthesis-flow report: resources + power + area in one place.

The last step of the paper's flow runs the designed filter through
synthesis, place-and-route and power sign-off and reports Table II (power
per stage), the layout area (Fig. 12) and the power distribution
(Fig. 13).  This module stands in for that tool chain with one structural
model: it extracts the resources, runs the activity-based power model and
the area model on them, and assembles one :class:`SynthesisReport` that
the benchmarks serialize.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.spec import field_dict
from repro.frozen import FrozenRecord
from repro.hardware.area import AreaModel, AreaReport
from repro.hardware.power import (ACTIVITY_TONE_HZ, PowerModel, PowerReport,
                                  measure_hogenauer_activity)
from repro.hardware.resources import StageResources, extract_chain_resources
from repro.hardware.stdcell import GENERIC_45NM, StandardCellLibrary


@dataclass(frozen=True)
class SynthesisReport(FrozenRecord):
    """Everything the paper's Section VIII reports, for one designed chain.

    Immutable (a :class:`~repro.frozen.FrozenRecord`, its parts too):
    :meth:`SynthesisFlow.run` stores it and hands the stored report to
    every caller.
    """

    resources: Tuple[StageResources, ...]
    power: PowerReport
    area: AreaReport
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

    def power_table(self) -> List[Dict[str, object]]:
        """Rows shaped like Table II of the paper."""
        return self.power.as_table()

    def power_distribution(self) -> Dict[str, float]:
        """Per-stage dynamic power fractions (the Fig. 13 pie chart)."""
        return self.power.dynamic_fractions()

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        lines = ["Synthesis report"]
        lines.append(str(self.power))
        lines.append(str(self.area))
        return "\n".join(lines)


class SynthesisFlow:
    """The automated 'filter design → power/area report' flow."""

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
            :class:`~repro.flow.artifacts.ArtifactStore` (a fresh one when
            ``None``) holding the report, the ``synthesis`` stage keyed by
            the chain (:meth:`~repro.core.chain.DecimationChain.content_key`),
            the library, the supply and the activity settings, and the
            activity measurement it reads.  The activity is keyed by the
            modulator spec, the Sinc cascade and the stimulus only, so
            flows differing in the library, the output word or the
            halfband/equalizer options share one measurement, read
            through a read-only view.
        """
        from repro.flow.artifacts import ArtifactStore

        if artifacts is None:
            artifacts = ArtifactStore()
        retimed = chain.options.retimed if retimed is None else retimed

        def key_payload() -> dict:
            return {"chain": chain.content_key(),
                    "library": field_dict(self.library),
                    "supply_v": self.supply_v,
                    "measure_activity": measure_activity,
                    "activity_samples": activity_samples,
                    "retimed": retimed}

        key = ("synthesis", chain.derived_hash(
            ("synthesis", self.library, self.supply_v, measure_activity,
             activity_samples, retimed), key_payload))
        return artifacts.get_or_compute(key, lambda: self._report(
            chain, measure_activity, activity_samples, retimed, artifacts))

    def _report(self, chain, measure_activity: bool, activity_samples: int,
                retimed: bool, artifacts) -> SynthesisReport:
        """The ``synthesis`` stage of :meth:`run` (a store miss).  The
        activity is a stage of its own, measured with the paper's stimulus
        (an ``ACTIVITY_TONE_HZ`` tone at the modulator's MSA)."""
        measured = None
        if measure_activity:
            amplitude = chain.spec.modulator.msa
            measured = artifacts.get_or_compute(
                _activity_key(chain, activity_samples, ACTIVITY_TONE_HZ,
                              amplitude),
                lambda: measure_hogenauer_activity(
                    chain, n_samples=activity_samples,
                    tone_hz=ACTIVITY_TONE_HZ, amplitude=amplitude))
        resources = extract_chain_resources(chain, measured)
        power_model = PowerModel(self.library, self.supply_v)
        power = power_model.chain_power(resources, retimed=retimed)
        area = AreaModel(self.library).chain_area(resources)
        return SynthesisReport(
            resources=resources,
            power=power,
            area=area,
            library=self.library,
            metadata={
                "supply_v": self.supply_v,
                "measured_activity": measured,
                "retimed": retimed,
            },
        )


def _activity_key(chain, n_samples: int, tone_hz: float,
                  amplitude: float) -> tuple:
    """Store key of :func:`measure_hogenauer_activity` on ``chain``.

    Covers every input the measurement reads — each modulator-spec field,
    the Hogenauer stages (structure, register width, label) and the
    stimulus — and nothing else, so ``design`` and ``verify`` on any
    library and output word share one measurement.
    """
    stages = chain._hogenauer_stages
    return ("hogenauer-activity", chain.derived_hash(
        ("hogenauer-activity", n_samples, tone_hz, amplitude), lambda: {
            "modulator": chain.spec.modulator.to_dict(),
            "stages": [stage.coefficient_fingerprint() for stage in stages],
            "widths": [stage.width for stage in stages],
            "labels": [stage.spec.label for stage in stages],
            "n_samples": n_samples,
            "tone_hz": tone_hz,
            "amplitude": amplitude,
        }))
