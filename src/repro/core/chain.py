"""The decimation filter chain: design container and simulators.

This is the paper's primary contribution assembled from the substrate
packages: the multistage chain ``Sinc4(↓2) → Sinc4(↓2) → Sinc6(↓2) →
Halfband(↓2) → Scaling → FIR equalizer`` (Fig. 5), with

* a frequency-domain model (the curves of Figs. 8–11),
* a floating-point simulator (filter-design verification), and
* a bit-true fixed-point simulator that consumes the modulator's 4-bit code
  stream and produces the 14-bit output words, used for the end-to-end SNR
  measurement and for the switching-activity power estimation.

Bit-true engines
----------------
Every stage of :meth:`DecimationChain.process_fixed` takes its numpy fast
path (cumsum-based Hogenauer evaluation, strided-window matmul FIR stages,
integer constant multiply for the scaler) whenever register widths and
accumulators fit ``int64``, and its arbitrary-precision gold model
otherwise; the Hogenauer stages count the switching-activity traces
consumed by the power model (``collect_trace=True``) on either.  No option
selects the engine: both produce **bit-identical** words, which the test suite
pins stage by stage and for the whole chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Union

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (flow imports core)
    from repro.flow.artifacts import ArtifactStore

from repro.core.spec import ChainSpec, content_hash, paper_chain_spec
from repro.filters.cascade import CascadeStageDescription, MultirateCascade
from repro.filters.equalizer import EqualizerDesign, design_droop_equalizer
from repro.filters.fir import FIRFilterFixedPoint
from repro.filters.halfband import (
    HalfbandDecimator,
    SaramakiHalfband,
    SaramakiHalfbandDesigner,
)
from repro.filters.hogenauer import HogenauerCascade, HogenauerConfig, HogenauerDecimator
from repro.filters.response import FrequencyResponse, default_frequency_grid
from repro.filters.scaling import ScalingStage
from repro.filters.sinc import SincCascade, SincCascadeSpec, SincFilter


@dataclass
class ChainDesignOptions:
    """Knobs of the design methodology (Section III–VI choices)."""

    #: Sinc orders, first stage first.  ``None`` lets the designer choose.
    sinc_orders: Optional[Sequence[int]] = (4, 4, 6)
    #: Halfband tapped-cascade size (n1, n2); (3, 6) is the paper's 110th order.
    halfband_n1: int = 3
    halfband_n2: int = 6
    halfband_coefficient_bits: int = 24
    halfband_target_attenuation_db: float = 90.0
    equalizer_order: int = 64
    equalizer_coefficient_bits: int = 16
    equalizer_max_boost_db: float = 10.0
    scaling_coefficient_bits: int = 12
    scaling_headroom: float = 0.99
    #: Extra LSBs carried through the scaler and equalizer and rounded away
    #: only at the final output register, so that intermediate rounding does
    #: not erode the 14-bit output SNR (the paper's 24-bit halfband
    #: coefficients serve the same purpose of keeping requantization noise
    #: well below the signal-band noise floor).
    guard_bits: int = 4
    #: Hardware options of the Hogenauer stages.
    retimed: bool = True
    pipelined: bool = True

    def to_dict(self) -> dict:
        """JSON-serializable dictionary of the design options."""
        from dataclasses import asdict

        data = asdict(self)
        if data["sinc_orders"] is not None:
            data["sinc_orders"] = list(data["sinc_orders"])
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ChainDesignOptions":
        """Rebuild :class:`ChainDesignOptions` from :meth:`to_dict` output."""
        data = dict(data)
        if data.get("sinc_orders") is not None:
            data["sinc_orders"] = tuple(data["sinc_orders"])
        return cls(**data)


@dataclass
class StageInfo:
    """Summary of one chain stage for reports, RTL generation and power."""

    name: str
    kind: str
    input_rate_hz: float
    output_rate_hz: float
    decimation: int
    input_bits: int
    output_bits: int
    details: dict = field(default_factory=dict)


class DecimationChain:
    """A fully designed decimation filter chain.

    Use :meth:`design` (or :func:`design_paper_chain`) to construct one from
    a :class:`~repro.core.spec.ChainSpec`; the instance then exposes the
    frequency responses, the simulators and the per-stage information that
    the hardware model, the RTL generator and the benchmarks consume.
    """

    def __init__(self, spec: ChainSpec, options: ChainDesignOptions,
                 sinc_cascade: SincCascade, halfband: SaramakiHalfband,
                 scaling: ScalingStage, equalizer: EqualizerDesign) -> None:
        self.spec = spec
        self.options = options
        self.sinc_cascade = sinc_cascade
        self.halfband = halfband
        self.scaling = scaling
        self.equalizer = equalizer

        fs = spec.modulator.sample_rate_hz
        self.halfband_input_rate_hz = fs / sinc_cascade.total_decimation
        self.output_rate_hz = spec.decimator.output_rate_hz

        # Bit-true building blocks.
        self._hogenauer_stages = [
            HogenauerDecimator(stage.spec, HogenauerConfig(options.retimed, options.pipelined))
            for stage in sinc_cascade.stages
        ]
        self._hogenauer = HogenauerCascade(self._hogenauer_stages, rescale=False)
        self._halfband_impl = HalfbandDecimator(
            halfband, data_bits=sinc_cascade.output_bits,
            coefficient_bits=options.halfband_coefficient_bits,
        )
        self._equalizer_impl = FIRFilterFixedPoint(
            taps=equalizer.taps,
            coefficient_bits=options.equalizer_coefficient_bits,
            data_bits=spec.decimator.output_bits + 2,
            label="Equalizer",
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def design(cls, spec: Optional[ChainSpec] = None,
               options: Optional[ChainDesignOptions] = None,
               artifacts: Optional["ArtifactStore"] = None) -> "DecimationChain":
        """Design a chain for the given specification (defaults: Table I).

        The two expensive design sub-stages — the Saramäki halfband CSD
        search and the droop equalizer fit — run through ``artifacts``, an
        :class:`~repro.flow.artifacts.ArtifactStore` (a fresh one when
        ``None``), keyed by their actual inputs, so design calls sharing a
        store reuse them (e.g. sweep points differing only in the output
        word width).  The store returns deep copies, so results are
        identical to a cold design.
        """
        from repro.flow.artifacts import ArtifactStore

        spec = spec or paper_chain_spec()
        options = options or ChainDesignOptions()
        if artifacts is None:
            artifacts = ArtifactStore()

        total_halvings = spec.num_halving_stages
        sinc_orders = options.sinc_orders
        if sinc_orders is None:
            from repro.core.designer import choose_sinc_orders

            sinc_orders = choose_sinc_orders(spec)
        n_sinc = len(sinc_orders)
        if n_sinc + 1 != total_halvings:
            raise ValueError(
                f"spec requires {total_halvings} decimate-by-2 stages but "
                f"{n_sinc} Sinc stages plus one halfband were requested"
            )

        fs = spec.modulator.sample_rate_hz
        sinc_cascade = SincCascade(SincCascadeSpec(
            orders=tuple(sinc_orders),
            input_bits=spec.decimator.input_bits,
            input_rate_hz=fs,
        ))

        halfband_input_rate = fs / sinc_cascade.total_decimation
        # Transition: the halfband stopband must start at the image of the
        # overall stopband edge (fs_out - stopband_edge folded), i.e. its
        # passband edge sits at (output_rate - stopband_edge) from DC.
        passband_edge_norm = (spec.decimator.output_rate_hz
                              - spec.decimator.stopband_edge_hz) / halfband_input_rate
        passband_edge_norm = min(max(passband_edge_norm, 0.05), 0.2450)
        # Size the tapped cascade for the required attenuation: start from
        # the requested (n1, n2) and grow the sub-filter until the designed
        # filter clears the specification (narrower transition bands — e.g.
        # the audio-codec retarget — need a longer sub-filter than the
        # paper's n2 = 6).
        target_att = max(options.halfband_target_attenuation_db,
                         spec.decimator.stopband_attenuation_db)
        halfband = None
        for extra in range(0, 7):
            n2 = options.halfband_n2 + extra

            def design_halfband(n2: int = n2) -> SaramakiHalfband:
                return SaramakiHalfbandDesigner(
                    n1=options.halfband_n1,
                    n2=n2,
                    transition_start=passband_edge_norm,
                    coefficient_bits=options.halfband_coefficient_bits,
                ).design(target_att)

            key = ("halfband-design", content_hash({
                "n1": options.halfband_n1,
                "n2": n2,
                "transition_start": passband_edge_norm,
                "coefficient_bits": options.halfband_coefficient_bits,
                "target_attenuation_db": target_att,
            }))
            halfband = artifacts.get_or_compute(key, design_halfband,
                                                copy=True)
            if (halfband.metadata["achieved_attenuation_db"]
                    >= spec.decimator.stopband_attenuation_db):
                break

        # Composite scaling constant: restore the MSA-limited amplitude to the
        # full scale of the output word, folding in the Sinc cascade DC gain
        # (a power of two) exactly as the paper's S = 10.825 folds in its
        # internal gain alignment.
        levels = 1 << spec.modulator.quantizer_bits
        max_input = (levels - 1) / 2.0
        sinc_dc_gain = float(np.prod([2 ** s.spec.order for s in sinc_cascade.stages]))
        output_full_scale = (1 << (spec.decimator.output_bits - 1)) - 1
        guarded_full_scale = output_full_scale * (1 << options.guard_bits)
        scale = (options.scaling_headroom * guarded_full_scale
                 / (spec.modulator.msa * max_input * sinc_dc_gain))
        scaling = ScalingStage(scale=scale,
                               coefficient_bits=options.scaling_coefficient_bits,
                               data_bits=spec.decimator.output_bits + 2,
                               label="Scaling Stage")

        # Equalizer: invert the droop of everything before it over the band.
        def design_equalizer() -> EqualizerDesign:
            droop_stages = [
                CascadeStageDescription(SincFilter(s.spec).impulse_response(), 2,
                                        s.spec.label)
                for s in sinc_cascade.stages
            ]
            droop_stages.append(
                CascadeStageDescription(halfband.equivalent_fir(), 2, "Halfband"))
            droop_cascade = MultirateCascade(droop_stages, fs)
            droop_freqs = np.linspace(0.0, spec.decimator.passband_edge_hz, 512)
            droop = droop_cascade.overall_response(droop_freqs)
            return design_droop_equalizer(
                droop,
                sample_rate_hz=spec.decimator.output_rate_hz,
                passband_hz=spec.decimator.passband_edge_hz,
                order=options.equalizer_order,
                max_boost_db=options.equalizer_max_boost_db,
            )

        key = ("equalizer-design", content_hash({
            "sinc_orders": [s.spec.order for s in sinc_cascade.stages],
            "halfband_f1": list(halfband.f1),
            "halfband_f2": list(halfband.f2),
            "input_rate_hz": fs,
            "passband_edge_hz": spec.decimator.passband_edge_hz,
            "output_rate_hz": spec.decimator.output_rate_hz,
            "order": options.equalizer_order,
            "max_boost_db": options.equalizer_max_boost_db,
        }))
        equalizer = artifacts.get_or_compute(key, design_equalizer, copy=True)
        return cls(spec, options, sinc_cascade, halfband, scaling, equalizer)

    def with_stages(self, halfband: Optional[SaramakiHalfband] = None,
                    equalizer: Optional[EqualizerDesign] = None,
                    ) -> "DecimationChain":
        """Rebuild this chain with replacement halfband/equalizer designs.

        The construction path of the :mod:`repro.robustness` Monte Carlo
        variants: no design search runs — the replacement filters (e.g. the
        output of :func:`repro.filters.halfband.perturbed_halfband` or
        :meth:`repro.filters.equalizer.EqualizerDesign.with_tap_deltas`)
        are dropped into a new chain instance, which re-derives only the
        cheap bit-true machinery (equivalent-FIR taps, integer tap tables).
        Stages not replaced are shared with this chain.
        """
        return DecimationChain(
            self.spec, self.options, self.sinc_cascade,
            halfband if halfband is not None else self.halfband,
            self.scaling,
            equalizer if equalizer is not None else self.equalizer,
        )

    def coefficient_fingerprint(self) -> dict:
        """JSON-safe identity of every perturbable coefficient in the chain.

        Aggregates the per-stage fingerprints (Hogenauer structure, halfband
        ``f1``/``f2`` values, quantized scaling constant, quantized
        equalizer taps).  Chains with byte-equal fingerprints produce
        bit-identical output words for the same input codes, which is what
        lets the robustness engine key per-variant artifacts on it.
        """
        return {
            "sinc": [s.coefficient_fingerprint() for s in self._hogenauer_stages],
            "halfband": self.halfband.coefficient_fingerprint(),
            "halfband_coefficient_bits": int(self.options.halfband_coefficient_bits),
            "scaling": float(self.scaling.quantized_scale),
            "equalizer_taps": [float(t) for t in self._equalizer_impl.quantized_taps],
            "guard_bits": int(self.options.guard_bits),
            "output_bits": int(self.spec.decimator.output_bits),
        }

    def content_key(self) -> str:
        """Content hash of the spec, the design options and
        :meth:`coefficient_fingerprint`.

        Keys the memoized per-chain stages (the generated RTL, the SNR
        leg): chains with equal keys generate the same RTL and produce
        bit-identical output words.
        """
        return content_hash({"spec": self.spec.to_dict(),
                             "options": self.options.to_dict(),
                             "coefficients": self.coefficient_fingerprint()})

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def total_decimation(self) -> int:
        """Overall decimation factor of the chain (the spec's OSR)."""
        return self.spec.total_decimation

    def stage_infos(self) -> List[StageInfo]:
        """Ordered per-stage summary (used by reports, RTL and power model)."""
        infos: List[StageInfo] = []
        for stage, impl in zip(self.sinc_cascade.stages, self._hogenauer_stages):
            s = stage.spec
            infos.append(StageInfo(
                name=s.label, kind="sinc",
                input_rate_hz=s.input_rate_hz, output_rate_hz=s.output_rate_hz,
                decimation=s.decimation, input_bits=s.input_bits,
                output_bits=s.output_bits,
                details={"order": s.order, "resources": impl.resource_summary()},
            ))
        hb_bits = self.sinc_cascade.output_bits
        infos.append(StageInfo(
            name="Halfband", kind="halfband",
            input_rate_hz=self.halfband_input_rate_hz,
            output_rate_hz=self.halfband_input_rate_hz / 2.0,
            decimation=2, input_bits=hb_bits, output_bits=hb_bits,
            details={
                "equivalent_order": self.halfband.equivalent_order,
                "resources": self._halfband_impl.resource_summary(self.halfband_input_rate_hz),
                "attenuation_db": self.halfband.metadata.get("achieved_attenuation_db"),
            },
        ))
        out_bits = self.spec.decimator.output_bits
        infos.append(StageInfo(
            name="Scaling Stage", kind="scaling",
            input_rate_hz=self.output_rate_hz, output_rate_hz=self.output_rate_hz,
            decimation=1, input_bits=hb_bits, output_bits=out_bits,
            details={"scale": self.scaling.quantized_scale,
                     "resources": self.scaling.resource_summary(self.output_rate_hz)},
        ))
        infos.append(StageInfo(
            name="Equalizer", kind="equalizer",
            input_rate_hz=self.output_rate_hz, output_rate_hz=self.output_rate_hz,
            decimation=1, input_bits=out_bits, output_bits=out_bits,
            details={"order": self.equalizer.order,
                     "resources": self._equalizer_impl.resource_summary(self.output_rate_hz)},
        ))
        return infos

    # ------------------------------------------------------------------
    # Frequency-domain model
    # ------------------------------------------------------------------
    def multirate_cascade(self, include_equalizer: bool = True,
                          quantized: bool = True) -> MultirateCascade:
        """The chain as a :class:`MultirateCascade` for response analysis."""
        stages = [
            CascadeStageDescription(SincFilter(s.spec).impulse_response(), 2, s.spec.label)
            for s in self.sinc_cascade.stages
        ]
        stages.append(CascadeStageDescription(self.halfband.equivalent_fir(), 2, "Halfband"))
        if include_equalizer:
            taps = (self._equalizer_impl.quantized_taps if quantized
                    else self.equalizer.taps)
            stages.append(CascadeStageDescription(taps, 1, "Equalizer"))
        return MultirateCascade(stages, self.spec.modulator.sample_rate_hz)

    def overall_response(self, frequencies_hz: Optional[np.ndarray] = None,
                         n_points: int = 8192) -> FrequencyResponse:
        """Overall chain response with quantized coefficients (Fig. 11)."""
        return self.multirate_cascade().overall_response(frequencies_hz, n_points)

    def droop_response(self, frequencies_hz: Optional[np.ndarray] = None,
                       n_points: int = 2048) -> FrequencyResponse:
        """Response of the stages before the equalizer (Fig. 10's drooped curve)."""
        return self.multirate_cascade(include_equalizer=False).overall_response(
            frequencies_hz, n_points)

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def codes_to_signed(self, codes: np.ndarray) -> np.ndarray:
        """Convert modulator output codes (0 … 2^B−1) to signed integers.

        The resulting two's-complement value is ``code − 2^(B−1)``; the half
        LSB offset this introduces relative to the mid-rise quantizer levels
        appears only at DC and is excluded from all SNR measurements.
        """
        return np.asarray(codes, dtype=np.int64) - self._code_offset

    @property
    def _code_offset(self) -> int:
        """``2^(B−1)``: what :meth:`codes_to_signed` subtracts."""
        return 1 << (self.spec.modulator.quantizer_bits - 1)

    def process_fixed(self, codes: np.ndarray,
                      collect_trace: bool = False) -> np.ndarray:
        """Bit-true simulation: 4-bit codes in, ``output_bits``-bit words out.

        Each stage picks its own engine (see the module docstring), traced
        for the power model (``collect_trace=True``) or not.

        ``codes`` may also be a 2-D ``(batch, n)`` array of independent
        records: every stage then runs batch-vectorized (one cumsum/matmul
        per stage for the whole batch) and row ``b`` of the result is
        bit-exact to ``process_fixed(codes[b])``.  Tracing counts toggles
        along one record and is rejected for batches.
        """
        codes = np.asarray(codes, dtype=np.int64)
        if codes.ndim == 2:
            if collect_trace:
                raise ValueError("switching-activity tracing requires a "
                                 "single record, not a (batch, n) array")
            # The first Hogenauer stage subtracts the code offset as it
            # reads, so a Monte Carlo block is not copied to signed words.
            data = self._hogenauer.process_batch(codes, self._code_offset)
        else:
            self._hogenauer.reset()
            data = self._hogenauer.process(self.codes_to_signed(codes),
                                           collect_trace=collect_trace)
        data = self._halfband_impl.process(data)
        data = self.scaling.process(data)
        data = self._equalizer_impl.process(data)
        return self._finalize_output(data)

    def _finalize_output(self, data: np.ndarray) -> np.ndarray:
        """Round away the guard LSBs and saturate to the output word.

        The scaler's headroom makes overflow rare; saturation mirrors the
        synthesized output register.
        """
        guard = self.options.guard_bits
        out_bits = self.spec.decimator.output_bits
        lo = -(1 << (out_bits - 1))
        hi = (1 << (out_bits - 1)) - 1
        if data.dtype != object:
            data = data.astype(np.int64)
            if guard > 0:
                data = (data + (1 << (guard - 1))) >> guard
            return np.clip(data, lo, hi)
        if data.ndim == 2:
            return np.stack([self._finalize_output(row) for row in data])
        if guard > 0:
            half = 1 << (guard - 1)
            data = np.array([(int(v) + half) >> guard for v in data.tolist()], dtype=object)
        return np.array([min(hi, max(lo, int(v))) for v in data.tolist()], dtype=np.int64)

    def process_float(self, modulator_output: np.ndarray) -> np.ndarray:
        """Floating-point reference simulation on modulator output values (±1)."""
        data = np.asarray(modulator_output, dtype=float)
        for stage in self.sinc_cascade.stages:
            taps = SincFilter(stage.spec).impulse_response(normalized=True)
            filtered = np.convolve(data, taps)[:len(data)]
            data = filtered[1::2]
        data = self._halfband_impl.process_float(data)
        data = data * (self.options.scaling_headroom / self.spec.modulator.msa)
        data = self._equalizer_impl.process_float(data)
        return data

    def output_to_normalized(self, output_words: np.ndarray) -> np.ndarray:
        """Scale integer output words to the ±1 range for spectral analysis."""
        full_scale = 1 << (self.spec.decimator.output_bits - 1)
        return np.asarray(output_words, dtype=float) / full_scale

    def measure_output_snr(self, codes: np.ndarray, tone_hz: float,
                           discard_outputs: Optional[int] = None,
                           analyze_outputs: Optional[int] = None,
                           ) -> Union[float, List[float]]:
        """End-to-end SNR of the decimated output for a tone test (Table I row).

        The one tone-SNR recipe of the repository: bit-true chain, output
        normalization, settle trim and a Blackman-Harris tone analysis
        over the passband.  The nominal SNR leg and every Monte Carlo row
        of the robustness engine measure through it.

        Parameters
        ----------
        codes:
            Modulator output codes (the chain's 4-bit input stream).  As in
            :meth:`process_fixed`, a 2-D ``(batch, n)`` array of independent
            records is measured in one batched pass and returns a list with
            one SNR per row, each bit-exact to the 1-D call on that row.
        tone_hz:
            Frequency of the test tone contained in the stream.
        discard_outputs:
            Output samples dropped while the chain's group delay flushes
            (defaults to an estimate from the filter orders).
        analyze_outputs:
            Length of the analyzed record; defaults to everything after the
            discarded transient.  Pass a length over which the tone is
            coherent for the cleanest measurement.
        """
        from repro.dsm.spectrum import analyze_tone_batch

        output = self.output_to_normalized(self.process_fixed(codes))
        settle = self._settle_samples() if discard_outputs is None else discard_outputs
        trimmed = output[..., settle:]
        if analyze_outputs is not None:
            trimmed = trimmed[..., :analyze_outputs]
        analyses = analyze_tone_batch(
            np.atleast_2d(trimmed), self.output_rate_hz, tone_hz,
            bandwidth_hz=self.spec.decimator.passband_edge_hz,
            window="blackmanharris", signal_bins=8)
        snrs = [analysis.snr_db for analysis in analyses]
        return snrs if output.ndim == 2 else snrs[0]

    def _settle_samples(self) -> int:
        """Output samples to discard while the chain's group delay flushes."""
        group_delay_in = 0.0
        rate_factor = 1
        for stage in self.sinc_cascade.stages:
            taps = stage.spec.order * (stage.spec.decimation - 1)
            group_delay_in += (taps / 2.0) * rate_factor
            rate_factor *= stage.spec.decimation
        group_delay_in += (self.halfband.equivalent_order / 2.0) * rate_factor
        rate_factor *= 2
        group_delay_in += (self.equalizer.order / 2.0) * rate_factor
        settle_input_samples = 2.0 * group_delay_in
        return max(8, int(np.ceil(settle_input_samples / self.total_decimation)))

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """Compact design summary used by the examples and the flow report."""
        return {
            "total_decimation": self.total_decimation,
            "input_rate_hz": self.spec.modulator.sample_rate_hz,
            "output_rate_hz": self.output_rate_hz,
            "sinc_orders": [s.spec.order for s in self.sinc_cascade.stages],
            "sinc_word_lengths": self.sinc_cascade.stage_word_lengths(),
            "halfband_order": self.halfband.equivalent_order,
            "halfband_attenuation_db": self.halfband.metadata.get("achieved_attenuation_db"),
            "halfband_adders": self.halfband.adder_count(
                self.options.halfband_coefficient_bits),
            "equalizer_order": self.equalizer.order,
            "scaling_factor": self.scaling.quantized_scale,
            "output_bits": self.spec.decimator.output_bits,
        }


def design_paper_chain(options: Optional[ChainDesignOptions] = None) -> DecimationChain:
    """Design the paper's exact chain (Table I spec, Fig. 5 architecture)."""
    return DecimationChain.design(paper_chain_spec(), options)
