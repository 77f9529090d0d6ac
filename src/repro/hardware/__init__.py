"""Hardware modelling and synthesis-flow substrate.

Stands in for the commercial tool chain of the paper's Section VIII:

* :mod:`~repro.hardware.stdcell` — 45 nm-class standard-cell technology model.
* :mod:`~repro.hardware.resources` — per-stage adder/register/clock extraction.
* :mod:`~repro.hardware.power` — activity-based dynamic + leakage power
  estimation (Table II / Fig. 13).
* :mod:`~repro.hardware.area` — standard-cell area estimation (Fig. 12).
* :mod:`~repro.hardware.synthesis` — the combined flow producing one report.
"""

from repro.hardware.stdcell import (
    StandardCellLibrary,
    GENERIC_45NM,
    GENERIC_90NM,
    LIBRARIES,
    library_by_name,
)
from repro.hardware.resources import (
    StageResources,
    resources_from_summary,
    extract_chain_resources,
    DEFAULT_ACTIVITY,
)
from repro.hardware.power import (
    PowerModel,
    PowerReport,
    StagePower,
    measure_hogenauer_activity,
)
from repro.hardware.area import AreaModel, AreaReport, StageArea
from repro.hardware.synthesis import SynthesisFlow, SynthesisReport

__all__ = [
    "StandardCellLibrary",
    "GENERIC_45NM",
    "GENERIC_90NM",
    "LIBRARIES",
    "library_by_name",
    "StageResources",
    "resources_from_summary",
    "extract_chain_resources",
    "DEFAULT_ACTIVITY",
    "PowerModel",
    "PowerReport",
    "StagePower",
    "measure_hogenauer_activity",
    "AreaModel",
    "AreaReport",
    "StageArea",
    "SynthesisFlow",
    "SynthesisReport",
]
