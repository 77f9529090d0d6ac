"""Declarative perturbation models for the Monte Carlo yield engine.

A :class:`PerturbationModel` bundles the composable perturbation axes a
robustness run draws from:

* :class:`CoefficientDither` — halfband/equalizer coefficient-bit dithering
  (whole quantization LSBs, modelling coefficient ROM errors),
* :class:`CSDDropout` — dropped least-significant CSD shift-add terms in
  the multiplierless halfband datapath,
* :class:`InputMismatch` — input-referred offset and gain mismatch on the
  modulator stimulus,
* :class:`ClockJitter` — sampling-clock aperture jitter on the stimulus,
* :class:`~repro.hardware.corners.CornerModel` — PVT corner scaling of the
  standard-cell power/area estimates.

Every axis is optional (``None`` disables it); :func:`default_model`
enables all five with conservative magnitudes.  The model is a frozen,
JSON-round-trippable value object, so it participates in the content-hash
cache keys of the engine: any change to any axis parameter misses the
on-disk cache.

Draw semantics
--------------
:meth:`PerturbationModel.draw_table` converts a model plus a seeded
:class:`numpy.random.Generator` into a plain-JSON *draw table* — the full
set of random numbers a run will consume, drawn once, in a fixed documented
order, **before** any work is sharded.  The ``jobs`` count therefore cannot
change the draws: the same seed produces byte-identical yield reports
inline and on the process pool.

The chain-domain axes (dither, dropout) do not draw per sample but per
*variant*: a run instantiates ``chain_variants`` perturbed chains and
assigns every Monte Carlo sample to one of them.  This is what keeps the
hot path batched — samples sharing a variant run through batched
``process_fixed`` calls of one chain — while still exploring the
coefficient population.
Stimulus-domain axes (mismatch, jitter) and the corner axis draw per
sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.hardware.corners import CornerModel, draw_corners

__all__ = [
    "CoefficientDither",
    "CSDDropout",
    "InputMismatch",
    "ClockJitter",
    "PerturbationModel",
    "default_model",
]


@dataclass(frozen=True)
class CoefficientDither:
    """Halfband/equalizer coefficient-bit dithering axis.

    Each coefficient independently shifts by a uniform integer number of
    quantization LSBs in ``[-max_lsbs, +max_lsbs]`` with probability
    ``probability`` (and stays nominal otherwise).  Halfband coefficients
    dither at the chain's halfband coefficient word width, equalizer taps
    at the equalizer word width.
    """

    halfband_max_lsbs: int = 2
    equalizer_max_lsbs: int = 1
    probability: float = 0.5

    def to_dict(self) -> dict:
        """JSON-serializable dictionary of the axis parameters."""
        return {"halfband_max_lsbs": int(self.halfband_max_lsbs),
                "equalizer_max_lsbs": int(self.equalizer_max_lsbs),
                "probability": float(self.probability)}

    @classmethod
    def from_dict(cls, data: dict) -> "CoefficientDither":
        """Rebuild a :class:`CoefficientDither` from :meth:`to_dict` output."""
        return cls(**data)


@dataclass(frozen=True)
class CSDDropout:
    """CSD term-dropout axis on the halfband coefficient datapath.

    Each halfband coefficient independently loses its least-significant
    non-zero CSD digit with probability ``probability`` (see
    :func:`repro.filters.halfband.perturbed_halfband`), modelling a dropped
    shift-add term in the multiplierless implementation.
    """

    probability: float = 0.05

    def to_dict(self) -> dict:
        """JSON-serializable dictionary of the axis parameters."""
        return {"probability": float(self.probability)}

    @classmethod
    def from_dict(cls, data: dict) -> "CSDDropout":
        """Rebuild a :class:`CSDDropout` from :meth:`to_dict` output."""
        return cls(**data)


@dataclass(frozen=True)
class InputMismatch:
    """Input-referred offset and gain mismatch axis.

    Per sample, the stimulus is scaled by ``1 + N(0, gain_sigma)`` and
    shifted by ``N(0, offset_sigma)`` (both relative to full scale),
    modelling front-end component mismatch ahead of the modulator.
    """

    offset_sigma: float = 5e-4
    gain_sigma: float = 2e-3

    def to_dict(self) -> dict:
        """JSON-serializable dictionary of the axis parameters."""
        return {"offset_sigma": float(self.offset_sigma),
                "gain_sigma": float(self.gain_sigma)}

    @classmethod
    def from_dict(cls, data: dict) -> "InputMismatch":
        """Rebuild an :class:`InputMismatch` from :meth:`to_dict` output."""
        return cls(**data)


@dataclass(frozen=True)
class ClockJitter:
    """Sampling-clock jitter axis on the modulator stimulus.

    Per sample, an independent Gaussian aperture-error sequence of RMS
    ``rms_s`` seconds perturbs the stimulus sampling instants (see
    :func:`repro.dsm.signals.jittered_tone`).  The per-sample jitter
    sequences are seeded from the draw table, not regenerated ad hoc, so
    runs stay reproducible at every ``jobs`` value.
    """

    rms_s: float = 2e-12

    def to_dict(self) -> dict:
        """JSON-serializable dictionary of the axis parameters."""
        return {"rms_s": float(self.rms_s)}

    @classmethod
    def from_dict(cls, data: dict) -> "ClockJitter":
        """Rebuild a :class:`ClockJitter` from :meth:`to_dict` output."""
        return cls(**data)


@dataclass(frozen=True)
class PerturbationModel:
    """The composable perturbation model of one Monte Carlo run.

    Attributes
    ----------
    dither, csd_dropout, mismatch, jitter, corners:
        The five perturbation axes; ``None`` disables an axis.
    chain_variants:
        Number of perturbed chain instances the chain-domain axes (dither,
        dropout) draw; samples are assigned uniformly at random to the
        variants.  Ignored (forced to 1) when both chain-domain axes are
        disabled.
    """

    dither: Optional[CoefficientDither] = None
    csd_dropout: Optional[CSDDropout] = None
    mismatch: Optional[InputMismatch] = None
    jitter: Optional[ClockJitter] = None
    corners: Optional[CornerModel] = None
    chain_variants: int = 4

    def __post_init__(self) -> None:
        if self.chain_variants < 1:
            raise ValueError("chain_variants must be at least 1")

    @property
    def has_chain_axes(self) -> bool:
        """Whether any chain-domain (coefficient) axis is enabled."""
        return self.dither is not None or self.csd_dropout is not None

    def effective_variants(self) -> int:
        """Number of chain variants a run actually instantiates."""
        return self.chain_variants if self.has_chain_axes else 1

    def to_dict(self) -> dict:
        """JSON-serializable nested dictionary of the whole model.

        Disabled axes serialize as ``None``; the layout round-trips through
        :meth:`from_dict` and keys the engine's content-hash caches.
        """
        return {
            "dither": self.dither.to_dict() if self.dither else None,
            "csd_dropout": (self.csd_dropout.to_dict()
                            if self.csd_dropout else None),
            "mismatch": self.mismatch.to_dict() if self.mismatch else None,
            "jitter": self.jitter.to_dict() if self.jitter else None,
            "corners": self.corners.to_dict() if self.corners else None,
            "chain_variants": int(self.chain_variants),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PerturbationModel":
        """Rebuild a :class:`PerturbationModel` from :meth:`to_dict` output."""
        return cls(
            dither=(CoefficientDither.from_dict(data["dither"])
                    if data.get("dither") else None),
            csd_dropout=(CSDDropout.from_dict(data["csd_dropout"])
                         if data.get("csd_dropout") else None),
            mismatch=(InputMismatch.from_dict(data["mismatch"])
                      if data.get("mismatch") else None),
            jitter=(ClockJitter.from_dict(data["jitter"])
                    if data.get("jitter") else None),
            corners=(CornerModel.from_dict(data["corners"])
                     if data.get("corners") else None),
            chain_variants=int(data.get("chain_variants", 4)),
        )

    # ------------------------------------------------------------------
    # Draws
    # ------------------------------------------------------------------
    def draw_table(self, rng: np.random.Generator, n_samples: int,
                   n_halfband_f1: int, n_halfband_f2: int,
                   n_equalizer_taps: int, nominal_vdd: float) -> dict:
        """Draw every random number of one run, in a fixed order.

        The order is part of the reproducibility contract (documented in
        ``docs/ROBUSTNESS.md``): first the chain-variant coefficient draws
        (per variant: dither masks/magnitudes, then dropout flags), then
        the per-sample variant assignment, gains, offsets, jitter seeds and
        PVT corners — each as one vectorized generator call or one
        documented loop.  The result is a plain-JSON dictionary that
        travels inside the executor payloads, so the draws are made exactly
        once regardless of sharding.
        """
        if n_samples < 1:
            raise ValueError("n_samples must be at least 1")
        n_variants = self.effective_variants()
        variants = []
        for _ in range(n_variants):
            entry: dict = {}
            if self.dither is not None:
                entry["halfband_f1"] = self._dither_draw(
                    rng, n_halfband_f1, self.dither.halfband_max_lsbs,
                    self.dither.probability)
                entry["halfband_f2"] = self._dither_draw(
                    rng, n_halfband_f2, self.dither.halfband_max_lsbs,
                    self.dither.probability)
                entry["equalizer"] = self._dither_draw(
                    rng, n_equalizer_taps, self.dither.equalizer_max_lsbs,
                    self.dither.probability)
            if self.csd_dropout is not None:
                p = self.csd_dropout.probability
                entry["halfband_f1_drop"] = [
                    int(u < p) for u in rng.random(n_halfband_f1)]
                entry["halfband_f2_drop"] = [
                    int(u < p) for u in rng.random(n_halfband_f2)]
            variants.append(entry)

        assignment = rng.integers(0, n_variants, size=n_samples)
        if self.mismatch is not None:
            gains = 1.0 + self.mismatch.gain_sigma * \
                rng.standard_normal(n_samples)
            offsets = self.mismatch.offset_sigma * \
                rng.standard_normal(n_samples)
        else:
            gains = np.ones(n_samples)
            offsets = np.zeros(n_samples)
        if self.jitter is not None:
            jitter_seeds = rng.integers(0, 2 ** 63, size=n_samples)
        else:
            jitter_seeds = np.zeros(n_samples, dtype=np.int64)
        corners = (draw_corners(self.corners, rng, n_samples, nominal_vdd)
                   if self.corners is not None else None)

        samples = []
        for i in range(n_samples):
            row = {
                "index": i,
                "variant": int(assignment[i]),
                "gain": float(gains[i]),
                "offset": float(offsets[i]),
                "jitter_seed": int(jitter_seeds[i]),
            }
            if corners is not None:
                row["corner"] = corners[i].to_dict()
            samples.append(row)
        return {"n_samples": int(n_samples), "n_variants": int(n_variants),
                "variants": variants, "samples": samples}

    @staticmethod
    def _dither_draw(rng: np.random.Generator, n: int, max_lsbs: int,
                     probability: float) -> list:
        """Per-coefficient LSB shifts: gate draw first, then magnitude."""
        gates = rng.random(n) < probability
        magnitudes = rng.integers(-max_lsbs, max_lsbs + 1, size=n)
        return [int(m) if g else 0 for g, m in zip(gates, magnitudes)]


def default_model() -> PerturbationModel:
    """The default all-axes-enabled model (conservative magnitudes).

    This is what ``python -m repro robustness run`` uses unless axes are
    disabled on the command line, and the model behind the committed
    ``robustness-lte-20`` golden record.
    """
    return PerturbationModel(
        dither=CoefficientDither(),
        csd_dropout=CSDDropout(),
        mismatch=InputMismatch(),
        jitter=ClockJitter(),
        corners=CornerModel(),
        chain_variants=4,
    )
