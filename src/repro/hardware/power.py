"""Activity-based power estimation (the PrimeTime-PX step of the paper's flow).

The paper estimates dynamic power from the switching activity of a gate-level
netlist stimulated with a 5 MHz sine at the maximum stable amplitude
(Section VIII).  The behavioural equivalent implemented here:

``P_dyn(stage) = Σ_nodes α · E_node · f_node``

where ``α`` is the node's toggle activity (measured from the bit-true
simulation for the Hogenauer stages, per-kind defaults otherwise),
``E_node`` the per-bit switching energy of the standard-cell model and
``f_node`` the clock the node runs at.  Clock-tree energy is charged on
every register bit every cycle.  Leakage is activity-independent and
proportional to the instantiated cells.

The absolute calibration comes from the 45 nm cell model
(:mod:`repro.hardware.stdcell`); the per-stage *distribution* (Fig. 13) and
the effect of the architectural knobs (retiming, CSD, halfband structure)
come from the resource and activity model and are what the benchmarks and
ablations check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.hardware.resources import StageResources
from repro.hardware.stdcell import GENERIC_45NM, StandardCellLibrary


@dataclass
class StagePower:
    """Power breakdown of one stage."""

    label: str
    dynamic_mw: float
    leakage_uw: float
    clock_mw: float
    metadata: dict = field(default_factory=dict)

    @property
    def total_mw(self) -> float:
        """Total stage power (dynamic + leakage) in milliwatts."""
        return self.dynamic_mw + self.clock_mw + self.leakage_uw / 1000.0


@dataclass
class PowerReport:
    """Chain-level power report (the Table II reproduction)."""

    stages: List[StagePower]
    library: StandardCellLibrary
    supply_v: float
    metadata: dict = field(default_factory=dict)

    @property
    def total_dynamic_mw(self) -> float:
        """Total dynamic power in milliwatts."""
        return sum(s.dynamic_mw + s.clock_mw for s in self.stages)

    @property
    def total_leakage_uw(self) -> float:
        """Total leakage power in microwatts."""
        return sum(s.leakage_uw for s in self.stages)

    @property
    def total_mw(self) -> float:
        """Total power (dynamic + leakage) in milliwatts."""
        return self.total_dynamic_mw + self.total_leakage_uw / 1000.0

    def dynamic_fractions(self) -> Dict[str, float]:
        """Per-stage share of the dynamic power (the Fig. 13 pie chart)."""
        total = self.total_dynamic_mw
        if total <= 0:
            return {s.label: 0.0 for s in self.stages}
        return {s.label: (s.dynamic_mw + s.clock_mw) / total for s in self.stages}

    def as_table(self) -> List[Dict[str, object]]:
        """Rows shaped like Table II of the paper."""
        rows = []
        for s in self.stages:
            rows.append({
                "Filter Stage": s.label,
                "Dynamic Power (mW)": round(s.dynamic_mw + s.clock_mw, 3),
                "Leakage Power (uW)": round(s.leakage_uw, 2),
            })
        rows.append({
            "Filter Stage": "Total",
            "Dynamic Power (mW)": round(self.total_dynamic_mw, 3),
            "Leakage Power (uW)": round(self.total_leakage_uw, 2),
        })
        return rows

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        lines = [f"Power profile ({self.library.name}, VDD = {self.supply_v} V)"]
        lines.append(f"{'Filter Stage':<18}{'Dynamic (mW)':>14}{'Leakage (uW)':>14}")
        for row in self.as_table():
            lines.append(f"{row['Filter Stage']:<18}{row['Dynamic Power (mW)']:>14}"
                         f"{row['Leakage Power (uW)']:>14}")
        return "\n".join(lines)


class PowerModel:
    """Activity-based dynamic plus leakage power estimator."""

    def __init__(self, library: StandardCellLibrary = GENERIC_45NM,
                 supply_v: Optional[float] = None) -> None:
        self.library = library if supply_v is None else library.scaled_to_vdd(supply_v)
        self.supply_v = supply_v if supply_v is not None else library.nominal_vdd

    # ------------------------------------------------------------------
    # Per-stage estimation
    # ------------------------------------------------------------------
    def stage_power(self, resources: StageResources,
                    retimed: bool = True) -> StagePower:
        """Estimate one stage's dynamic, clock and leakage power.

        ``retimed`` models the paper's glitch-suppression registers: without
        them the combinational adders see propagating glitches, modelled as
        a 60 % increase of the effective adder activity.
        """
        lib = self.library
        fj = 1e-15
        nw = 1e-9
        glitch_factor = 1.0 if retimed else 1.6
        activity = resources.activity * glitch_factor

        adder_dynamic = (
            activity * lib.adder_energy_per_bit_fj * fj *
            (resources.fast_adder_bits * resources.fast_clock_hz +
             resources.slow_adder_bits * resources.slow_clock_hz)
        )
        register_dynamic = (
            resources.activity * lib.register_energy_per_bit_fj * fj *
            (resources.register_bits_fast * resources.fast_clock_hz +
             resources.register_bits_slow * resources.slow_clock_hz)
        )
        clock_power = (
            lib.clock_energy_per_bit_fj * fj *
            (resources.register_bits_fast * resources.fast_clock_hz +
             resources.register_bits_slow * resources.slow_clock_hz)
        )
        leakage = (
            lib.adder_leakage_per_bit_nw * nw * resources.total_adder_bits +
            lib.register_leakage_per_bit_nw * nw * resources.total_register_bits
        )
        return StagePower(
            label=resources.label,
            dynamic_mw=(adder_dynamic + register_dynamic) * 1e3,
            clock_mw=clock_power * 1e3,
            leakage_uw=leakage * 1e6,
            metadata={
                "activity": resources.activity,
                "glitch_factor": glitch_factor,
                "adder_bits": resources.total_adder_bits,
                "register_bits": resources.total_register_bits,
            },
        )

    # ------------------------------------------------------------------
    # Chain-level estimation
    # ------------------------------------------------------------------
    def chain_power(self, resources: List[StageResources],
                    retimed: bool = True,
                    stimulus: Optional[str] = None) -> PowerReport:
        """Estimate the full chain's power profile (Table II equivalent)."""
        stages = [self.stage_power(r, retimed=retimed) for r in resources]
        return PowerReport(
            stages=stages,
            library=self.library,
            supply_v=self.supply_v,
            metadata={"retimed": retimed, "stimulus": stimulus or "5 MHz sine at MSA"},
        )


#: The paper's power-estimation stimulus frequency (Section VIII).
ACTIVITY_TONE_HZ = 5e6


def measure_hogenauer_activity(chain, n_samples: int = 8192,
                               tone_hz: float = ACTIVITY_TONE_HZ,
                               amplitude: Optional[float] = None) -> Dict[str, float]:
    """Measure per-stage toggle activity of the Hogenauer stages.

    Reproduces the paper's power-estimation stimulus: a sine at the maximum
    stable amplitude with a frequency of 5 MHz, run through the bit-true
    chain with toggle tracing enabled.  Returns a mapping from stage label
    to the average per-bit toggle probability, suitable for
    :func:`repro.hardware.resources.extract_chain_resources`.
    """
    import numpy as np

    from repro.dsm.modulator import DeltaSigmaModulator
    from repro.dsm.signals import coherent_tone

    spec = chain.spec
    if amplitude is None:
        amplitude = spec.modulator.msa
    modulator = DeltaSigmaModulator.from_spec(spec.modulator)
    tone = coherent_tone(tone_hz, amplitude, spec.modulator.sample_rate_hz, n_samples)
    result = modulator.fast_simulator.simulate(tone, codes_only=True)
    signed = chain.codes_to_signed(result.codes)

    activities: Dict[str, float] = {}
    data = signed
    for stage_filter, info in zip(chain._hogenauer_stages, chain.stage_infos()):
        stage_filter.reset()
        out = stage_filter.process(np.asarray(data), collect_trace=True)
        trace = stage_filter.trace
        width = stage_filter.width
        node_activities = [trace.activity(node, width) for node in trace.toggles]
        if node_activities:
            activities[info.name] = float(np.mean(node_activities))
        data = out
    return activities
