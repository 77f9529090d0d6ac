"""Design methodology: choosing the chain architecture from the specification.

The paper's flow fixes the architecture (three Sinc stages + halfband +
equalizer) for its 20 MHz/OSR-16 target, but the methodology behind those
choices generalizes — this module encodes it so the same library re-targets
other standards (the SDR/multi-standard motivation of the introduction):

* the number of decimate-by-2 stages follows from the OSR,
* the final stage is always a halfband (sharp transition at low cost),
* the Sinc orders are the smallest that push the *modulator-shaped*
  quantization noise aliasing into the band below the output noise floor,
  which for an Nth-order modulator needs roughly ``K = N + 1`` (the classic
  sinc-decimator rule) — the paper uses K = 6 ≥ 5 + 1 for the last Sinc
  stage and relaxes the earlier stages to K = 4 because their alias bands
  sit where the noise is still small.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (flow imports core)
    from repro.flow.artifacts import ArtifactStore

from repro.core.spec import ChainSpec, derived_hash
from repro.filters.sinc import SincCascade, SincCascadeSpec, SincFilter, SincFilterSpec


def choose_sinc_orders(spec: ChainSpec, max_order: int = 8) -> Tuple[int, ...]:
    """Pick the Sinc order for each decimate-by-2 stage.

    The last Sinc stage (whose alias band folds directly next to the signal
    band, where the shaped noise is largest) gets ``modulator_order + 1``;
    earlier stages may use smaller orders as long as each stage alone keeps
    the noise that folds into the band during *its* decimation below the
    requirement.  The heuristic reproduces the paper's 4, 4, 6 split for the
    Table I spec.
    """
    n_sinc = spec.num_halving_stages - 1
    if n_sinc < 1:
        raise ValueError("the architecture needs at least one Sinc stage")
    last_order = min(max_order, spec.modulator.order + 1)
    early_order = max(2, last_order - 2)
    orders = [early_order] * (n_sinc - 1) + [last_order]
    return tuple(orders)


@dataclass
class SincOrderEvaluation:
    """Figures of merit of one candidate Sinc order split (ablation support)."""

    orders: Tuple[int, ...]
    alias_attenuation_db: float
    passband_droop_db: float
    total_adder_bits: int
    output_bits: int


def evaluate_sinc_orders(orders: Sequence[int], spec: ChainSpec) -> SincOrderEvaluation:
    """Measure alias protection, droop and hardware cost of a Sinc order split."""
    cascade = SincCascade(SincCascadeSpec(
        orders=tuple(orders),
        input_bits=spec.decimator.input_bits,
        input_rate_hz=spec.modulator.sample_rate_hz,
    ))
    bandwidth = spec.modulator.bandwidth_hz
    alias = cascade.worst_alias_attenuation_db(bandwidth)
    droop = cascade.passband_droop_db(bandwidth)
    adder_bits = 0
    for stage in cascade.stages:
        # 2K adders of register width, weighted by the clock they run at
        # relative to the chain input (faster adders cost more energy).
        weight = stage.spec.input_rate_hz / spec.modulator.sample_rate_hz
        adder_bits += int(2 * stage.spec.order * stage.spec.register_bits * weight * 100)
    return SincOrderEvaluation(
        orders=tuple(orders),
        alias_attenuation_db=alias,
        passband_droop_db=droop,
        total_adder_bits=adder_bits,
        output_bits=cascade.output_bits,
    )


def enumerate_sinc_splits(spec: ChainSpec,
                          candidate_orders: Sequence[int] = (3, 4, 5, 6),
                          ) -> List[Tuple[int, ...]]:
    """Enumerate every candidate Sinc order split for a specification.

    A split assigns one order from ``candidate_orders`` to each of the
    spec's ``num_halving_stages - 1`` Sinc stages; the enumeration is in
    deterministic lexicographic order (first stage varies slowest).  This is
    the sweep primitive behind both :func:`sweep_sinc_order_splits` and the
    ``sinc_orders="auto"`` axis of :class:`repro.explore.SweepSpec`.
    """
    n_sinc = spec.num_halving_stages - 1
    if n_sinc < 1:
        raise ValueError("the architecture needs at least one Sinc stage")
    splits: List[Tuple[int, ...]] = []

    def recurse(prefix: List[int]) -> None:
        if len(prefix) == n_sinc:
            splits.append(tuple(prefix))
            return
        for order in candidate_orders:
            recurse(prefix + [order])

    recurse([])
    return splits


def sweep_sinc_order_splits(spec: ChainSpec, candidate_orders: Sequence[int] = (3, 4, 5, 6),
                            ) -> List[SincOrderEvaluation]:
    """Evaluate every combination of Sinc orders (the ablation benchmark data)."""
    return [evaluate_sinc_orders(split, spec)
            for split in enumerate_sinc_splits(spec, candidate_orders)]


def predicted_snr_after_decimation(spec: ChainSpec, sinc_orders: Sequence[int],
                                   n_points: int = 4096,
                                   artifacts: Optional["ArtifactStore"] = None,
                                   ) -> float:
    """Linear-model estimate of the SNR after decimation.

    Integrates the modulator's shaped noise density multiplied by the Sinc
    cascade's squared magnitude over the bands that alias onto the signal
    band, adds the in-band noise, and reports the resulting SNR for an
    MSA-amplitude tone.  Used by the designer to confirm that a candidate
    Sinc split does not cost more than ~1 dB of SNR, and by the tests as a
    sanity bound for the simulated SNR.  The estimate is a stage of
    ``artifacts`` (a fresh store when ``None``), keyed by the spec fields
    and the arguments it reads.
    """
    from repro.flow.artifacts import ArtifactStore

    if artifacts is None:
        artifacts = ArtifactStore()
    key = ("predicted-snr", derived_hash(
        ("predicted-snr", spec.modulator, spec.decimator.input_bits,
         tuple(sinc_orders), n_points), lambda: {
            "modulator": {name: getattr(spec.modulator, name) for name in (
                "order", "osr", "out_of_band_gain", "sample_rate_hz",
                "bandwidth_hz", "quantizer_bits", "msa")},
            "input_bits": spec.decimator.input_bits,
            "sinc_orders": [int(order) for order in sinc_orders],
            "n_points": n_points,
        }))
    return artifacts.get_or_compute(
        key, lambda: _predicted_snr(spec, sinc_orders, n_points))


def _predicted_snr(spec: ChainSpec, sinc_orders: Sequence[int],
                   n_points: int) -> float:
    """The computation behind :func:`predicted_snr_after_decimation`."""
    from repro.dsm.ntf import synthesize_ntf

    ntf = synthesize_ntf(spec.modulator.order, spec.modulator.osr,
                         spec.modulator.out_of_band_gain)
    cascade = SincCascade(SincCascadeSpec(
        orders=tuple(sinc_orders),
        input_bits=spec.decimator.input_bits,
        input_rate_hz=spec.modulator.sample_rate_hz,
    ))
    fs = spec.modulator.sample_rate_hz
    freqs = np.linspace(0.0, 0.5, n_points)
    ntf_mag2 = np.abs(ntf.frequency_response(freqs)) ** 2
    sinc_resp = cascade.cascade_response(freqs * fs)
    sinc_mag2 = np.abs(sinc_resp.magnitude) ** 2

    levels = 1 << spec.modulator.quantizer_bits
    delta = 2.0 / (levels - 1)
    noise_density = (delta ** 2 / 12.0) * 2.0  # one-sided density (per cycle/sample)

    band_edge = spec.modulator.bandwidth_hz / fs
    in_band = freqs <= band_edge
    inband_noise = float(np.trapezoid(noise_density * ntf_mag2[in_band], freqs[in_band]))

    # Noise that folds onto the band during the Sinc-cascade decimation: the
    # bands around multiples of the cascade's output rate, weighted by the
    # cascade attenuation.  The image the final halfband decimation creates
    # (around one output rate) is attenuated by >85 dB by the halfband and is
    # therefore negligible next to the sinc-band contributions.
    sinc_decimation = 2 ** len(sinc_orders)
    sinc_output_rate_norm = (fs / sinc_decimation) / fs
    out_of_band = ~in_band
    alias_weight = np.zeros_like(freqs)
    for m in range(1, sinc_decimation):
        centre = m * sinc_output_rate_norm
        mask = out_of_band & (np.abs(freqs - centre) <= band_edge)
        alias_weight[mask] = 1.0
    folded = float(np.trapezoid(
        noise_density * ntf_mag2 * sinc_mag2 * alias_weight, freqs))

    signal_power = (spec.modulator.msa ** 2) / 2.0
    total_noise = inband_noise + folded
    return float(10.0 * np.log10(signal_power / max(total_noise, 1e-300)))
