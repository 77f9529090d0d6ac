"""Normalized hardware resource description of a filter stage.

Every filter implementation class exposes a ``resource_summary()`` dict; this
module turns those loosely-typed dicts into a :class:`StageResources` object
that the power and area models consume, and provides the chain-level
extraction that walks a designed :class:`~repro.core.chain.DecimationChain`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

import numpy as np

from repro.frozen import FrozenRecord


@dataclass(frozen=True)
class StageResources(FrozenRecord):
    """Adder/register resources and clocking of one stage.

    ``fast_*`` resources run at the stage input clock, ``slow_*`` at its
    output clock — the distinction matters because the Hogenauer integrators
    run at the full input rate while everything after the rate change runs at
    half of it (this is precisely why the first Sinc stage dominates the
    power budget in Table II).  Immutable (a
    :class:`~repro.frozen.FrozenRecord`): synthesis reports are stored.
    """

    label: str
    kind: str
    word_width: int
    fast_clock_hz: float
    slow_clock_hz: float
    fast_adder_bits: int
    slow_adder_bits: int
    register_bits_fast: int
    register_bits_slow: int
    activity: float = 0.5
    metadata: dict = field(default_factory=dict)

    @property
    def total_adder_bits(self) -> int:
        """Total adder bits across the stage."""
        return self.fast_adder_bits + self.slow_adder_bits

    @property
    def total_register_bits(self) -> int:
        """Total register (flip-flop) bits across the stage."""
        return self.register_bits_fast + self.register_bits_slow

    @property
    def equivalent_gate_count(self) -> int:
        """Rough NAND2-equivalent gate count (for reports only)."""
        # A full-adder bit is ~6 NAND2 equivalents, a flip-flop ~8.
        return 6 * self.total_adder_bits + 8 * self.total_register_bits


def resources_from_summary(summary: Mapping, kind: str, activity: float = 0.5,
                           label: Optional[str] = None) -> StageResources:
    """Convert a stage's ``resource_summary()`` dict into :class:`StageResources`
    (labelled ``label``, else the summary's own label)."""
    width = int(summary.get("word_width", 16))
    fast_adders = int(summary.get("fast_adders", 0))
    slow_adders = int(summary.get("slow_adders", 0))
    total_adders = int(summary.get("adders", fast_adders + slow_adders))
    if fast_adders + slow_adders == 0 and total_adders > 0:
        slow_adders = total_adders
    registers = int(summary.get("registers", 0))
    register_bits = int(summary.get("register_bits", registers * width))
    fast_clock = float(summary.get("fast_clock_hz", 0.0))
    slow_clock = float(summary.get("slow_clock_hz", fast_clock))
    # Registers on the fast side: for the Hogenauer stages roughly half the
    # registers (integrators + retiming) run at the fast clock; FIR-style
    # stages keep everything at the slow clock.
    if kind == "sinc":
        register_bits_fast = register_bits * 2 // 3
        register_bits_slow = register_bits - register_bits_fast
    else:
        register_bits_fast = 0
        register_bits_slow = register_bits
    return StageResources(
        label=label if label is not None else str(summary.get("label", kind)),
        kind=kind,
        word_width=width,
        fast_clock_hz=fast_clock,
        slow_clock_hz=slow_clock,
        fast_adder_bits=fast_adders * width,
        slow_adder_bits=slow_adders * width,
        register_bits_fast=register_bits_fast,
        register_bits_slow=register_bits_slow,
        activity=activity,
        metadata={k: v for k, v in summary.items()
                  if k not in {"label", "word_width", "fast_clock_hz", "slow_clock_hz"}},
    )


#: Default switching-activity factors per stage kind.  The CIC integrators
#: accumulate busy, noise-shaped data and toggle on most cycles; the CSD
#: shift-add networks of the halfband/equalizer/scaler see much lower
#: per-adder activity because retiming and the canonical-digit encoding
#: suppress glancing transitions (the optimizations of Sections IV–VI).
DEFAULT_ACTIVITY = {
    "sinc": 0.42,
    "halfband": 0.06,
    "scaling": 0.30,
    "equalizer": 0.22,
    "fir": 0.20,
}


def extract_chain_resources(chain, measured_activity: Optional[Dict[str, float]] = None,
                            ) -> List[StageResources]:
    """Extract per-stage resources from a designed decimation chain.

    Parameters
    ----------
    chain:
        A :class:`~repro.core.chain.DecimationChain`.
    measured_activity:
        Optional mapping from stage name to a measured toggle activity
        (from the bit-true simulation); overrides the per-kind defaults.
    """
    measured_activity = measured_activity or {}
    resources: List[StageResources] = []
    for info in chain.stage_infos():
        summary = info.details.get("resources", {})
        activity = measured_activity.get(
            info.name, DEFAULT_ACTIVITY.get(info.kind, 0.3))
        resources.append(resources_from_summary(summary, info.kind, activity,
                                                label=info.name))
    return resources
