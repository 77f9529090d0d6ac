"""Standard-cell area estimation (the Fig. 12 layout-area reproduction).

Cell area is summed from the per-bit adder and register areas of the
technology model and divided by the placement utilization to approximate the
routed layout area the paper reports (0.12 mm² in 45 nm).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

from repro.frozen import FrozenRecord
from repro.hardware.resources import StageResources
from repro.hardware.stdcell import GENERIC_45NM, StandardCellLibrary


@dataclass(frozen=True)
class StageArea(FrozenRecord):
    """Area of one stage (immutable, like the report holding it)."""

    label: str
    cell_area_um2: float
    metadata: dict = field(default_factory=dict)


@dataclass(frozen=True)
class AreaReport(FrozenRecord):
    """Chain-level area report; immutable, a part of the stored synthesis
    report."""

    stages: Tuple[StageArea, ...]
    library: StandardCellLibrary
    metadata: dict = field(default_factory=dict)

    @property
    def total_cell_area_um2(self) -> float:
        """Total standard-cell area in µm² (before utilization overhead)."""
        return sum(s.cell_area_um2 for s in self.stages)

    @property
    def total_layout_area_mm2(self) -> float:
        """Cell area divided by utilization, in mm²."""
        return self.total_cell_area_um2 / self.library.utilization / 1e6

    def fractions(self) -> Dict[str, float]:
        """Per-stage share of the total cell area (the Fig. 12 breakdown)."""
        total = self.total_cell_area_um2
        if total <= 0:
            return {s.label: 0.0 for s in self.stages}
        return {s.label: s.cell_area_um2 / total for s in self.stages}

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        lines = [f"Area report ({self.library.name})"]
        for s in self.stages:
            lines.append(f"  {s.label:<18}{s.cell_area_um2/1e3:>10.1f} kum2")
        lines.append(f"  Total layout area: {self.total_layout_area_mm2:.3f} mm2 "
                     f"(utilization {self.library.utilization:.0%})")
        return "\n".join(lines)


class AreaModel:
    """Adder/register-count based area estimator."""

    def __init__(self, library: StandardCellLibrary = GENERIC_45NM) -> None:
        self.library = library

    def stage_area(self, resources: StageResources) -> StageArea:
        """Cell area of one stage from its adder/register bit counts."""
        lib = self.library
        area = (lib.adder_area_per_bit_um2 * resources.total_adder_bits +
                lib.register_area_per_bit_um2 * resources.total_register_bits)
        # Interconnect / glue logic overhead grows with the number of
        # distinct arithmetic operators in the stage.
        overhead = 0.15 * area
        return StageArea(
            label=resources.label,
            cell_area_um2=area + overhead,
            metadata={
                "adder_bits": resources.total_adder_bits,
                "register_bits": resources.total_register_bits,
                "gates": resources.equivalent_gate_count,
            },
        )

    def chain_area(self, resources: Sequence[StageResources]) -> AreaReport:
        """Area report over all stages of a designed chain."""
        return AreaReport(
            stages=[self.stage_area(r) for r in resources],
            library=self.library,
        )
