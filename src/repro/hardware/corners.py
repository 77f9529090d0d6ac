"""PVT corner scaling of the standard-cell power/area estimates.

The paper reports power and area at the nominal 45 nm / 1.1 V / 25 °C
corner; a production design is signed off across process, voltage and
temperature corners.  This module provides the corner axis of the
:mod:`repro.robustness` Monte Carlo subsystem: a :class:`CornerModel`
describes the statistical spread of the three PVT knobs, :func:`draw_corners`
draws per-sample :class:`CornerDraw` shifts from a seeded generator, and
each draw converts into multiplicative factors on the nominal dynamic power,
leakage power and layout area.

The scaling laws are the standard first-order ones (matching
:meth:`repro.hardware.stdcell.StandardCellLibrary.scaled_to_vdd`):

* dynamic power ∝ process strength × (VDD / VDD_nom)²,
* leakage ∝ process³ × (VDD / VDD_nom) × 2^((T − 25 °C) / doubling),
  i.e. leakage roughly doubles every ``leak_doubling_c`` degrees and is far
  more sensitive to process than dynamic power,
* area ∝ a small lithography spread around the drawn layout.

Because the behavioural power/area models are linear in the library's
per-bit energies and areas, applying these factors to the nominal report is
exactly equivalent to re-running synthesis on a corner-scaled library —
which is what keeps the Monte Carlo hot path free of per-sample synthesis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.hardware.stdcell import StandardCellLibrary

__all__ = ["CornerModel", "CornerDraw", "draw_corners",
           "corner_scaled_library"]


@dataclass(frozen=True)
class CornerModel:
    """Statistical spread of the process/voltage/temperature corners.

    Attributes
    ----------
    vdd_sigma_v:
        Standard deviation of the supply voltage around the library nominal,
        in volts (±3σ ≈ ±10 % for the default on a 1.1 V supply).
    process_sigma:
        Standard deviation of the relative process-strength factor (1.0 is
        the typical corner; fast/slow silicon moves dynamic energy and —
        cubed — leakage).
    temp_min_c, temp_max_c:
        Operating-temperature range; draws are uniform over it (the
        industrial −40 … 125 °C range by default).
    leak_doubling_c:
        Temperature increase that doubles leakage, in °C.
    area_sigma:
        Standard deviation of the relative lithography area spread.
    """

    vdd_sigma_v: float = 0.033
    process_sigma: float = 0.05
    temp_min_c: float = -40.0
    temp_max_c: float = 125.0
    leak_doubling_c: float = 30.0
    area_sigma: float = 0.02

    def to_dict(self) -> dict:
        """JSON-serializable dictionary of the model parameters."""
        return {"vdd_sigma_v": float(self.vdd_sigma_v),
                "process_sigma": float(self.process_sigma),
                "temp_min_c": float(self.temp_min_c),
                "temp_max_c": float(self.temp_max_c),
                "leak_doubling_c": float(self.leak_doubling_c),
                "area_sigma": float(self.area_sigma)}

    @classmethod
    def from_dict(cls, data: dict) -> "CornerModel":
        """Rebuild a :class:`CornerModel` from :meth:`to_dict` output."""
        return cls(**data)


@dataclass(frozen=True)
class CornerDraw:
    """One Monte Carlo sample's PVT operating point.

    Attributes
    ----------
    vdd_v:
        Drawn supply voltage in volts.
    process:
        Relative process-strength factor (1.0 = typical).
    temp_c:
        Junction temperature in °C.
    area_scale:
        Relative lithography area factor (1.0 = drawn layout).
    """

    vdd_v: float
    process: float
    temp_c: float
    area_scale: float = 1.0
    #: Leakage-doubling temperature carried over from the
    #: :class:`CornerModel` the draw came from, so the factor computation
    #: cannot silently disagree with the model that produced the draw.
    leak_doubling_c: float = 30.0

    def power_factors(self, nominal_vdd: float,
                      leak_doubling_c: Optional[float] = None,
                      ) -> Tuple[float, float]:
        """``(dynamic_factor, leakage_factor)`` relative to the nominal corner.

        Multiply the nominal dynamic power by the first factor and the
        nominal leakage by the second to obtain this corner's estimates.
        ``leak_doubling_c`` defaults to the constant the draw was made
        under (:attr:`leak_doubling_c`).
        """
        if leak_doubling_c is None:
            leak_doubling_c = self.leak_doubling_c
        ratio = self.vdd_v / nominal_vdd
        dynamic = self.process * ratio * ratio
        leakage = (self.process ** 3) * ratio * \
            2.0 ** ((self.temp_c - 25.0) / leak_doubling_c)
        return float(dynamic), float(leakage)

    def to_dict(self) -> dict:
        """JSON-serializable dictionary of the drawn operating point."""
        return {"vdd_v": float(self.vdd_v), "process": float(self.process),
                "temp_c": float(self.temp_c),
                "area_scale": float(self.area_scale),
                "leak_doubling_c": float(self.leak_doubling_c)}

    @classmethod
    def from_dict(cls, data: dict) -> "CornerDraw":
        """Rebuild a :class:`CornerDraw` from :meth:`to_dict` output."""
        return cls(**data)


def draw_corners(model: CornerModel, rng: np.random.Generator, n: int,
                 nominal_vdd: float) -> List[CornerDraw]:
    """Draw ``n`` PVT operating points from a seeded generator.

    The draw order is fixed (per sample: process, VDD, temperature, area)
    so the same seed always reproduces the same corner population — part of
    the robustness engine's byte-reproducibility contract.
    """
    draws: List[CornerDraw] = []
    for _ in range(n):
        process = 1.0 + model.process_sigma * float(rng.standard_normal())
        vdd = nominal_vdd + model.vdd_sigma_v * float(rng.standard_normal())
        temp = float(rng.uniform(model.temp_min_c, model.temp_max_c))
        area = 1.0 + model.area_sigma * float(rng.standard_normal())
        draws.append(CornerDraw(vdd_v=vdd, process=max(process, 0.5),
                                temp_c=temp, area_scale=max(area, 0.5),
                                leak_doubling_c=model.leak_doubling_c))
    return draws


def corner_scaled_library(library: StandardCellLibrary,
                          draw: CornerDraw,
                          leak_doubling_c: Optional[float] = None,
                          ) -> StandardCellLibrary:
    """A copy of ``library`` with its constants moved to a drawn corner.

    Running the full synthesis flow on it gives a corner's estimates the
    long way.  The Monte Carlo hot path instead applies
    :meth:`CornerDraw.power_factors` to the nominal report, which is
    equivalent because the power/area models are linear in these constants;
    this library is the reference the tests pin that equivalence against.
    ``leak_doubling_c`` defaults to the constant the draw was made under.
    """
    dyn, leak = draw.power_factors(library.nominal_vdd, leak_doubling_c)
    return StandardCellLibrary(
        name=f"{library.name}@{draw.vdd_v:.2f}V/{draw.temp_c:.0f}C",
        nominal_vdd=draw.vdd_v,
        adder_energy_per_bit_fj=library.adder_energy_per_bit_fj * dyn,
        register_energy_per_bit_fj=library.register_energy_per_bit_fj * dyn,
        clock_energy_per_bit_fj=library.clock_energy_per_bit_fj * dyn,
        adder_leakage_per_bit_nw=library.adder_leakage_per_bit_nw * leak,
        register_leakage_per_bit_nw=library.register_leakage_per_bit_nw * leak,
        adder_area_per_bit_um2=library.adder_area_per_bit_um2 * draw.area_scale,
        register_area_per_bit_um2=(library.register_area_per_bit_um2
                                   * draw.area_scale),
        utilization=library.utilization,
    )
