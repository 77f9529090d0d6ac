"""Specification verification of a designed decimation chain.

Checks a :class:`~repro.core.chain.DecimationChain` against its
:class:`~repro.core.spec.ChainSpec` the same way Section VII of the paper
verifies its design: passband ripple, stopband/alias attenuation, halfband
attenuation, equalized ripple and (optionally) the simulated end-to-end SNR.
The result object is consumed by the tests, the examples and EXPERIMENTS.md
generation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.spec import content_hash
from repro.filters.response import band_limited_grid, default_frequency_grid
from repro.obs import trace

#: Fewest decimated output samples the tone analysis accepts
#: (:func:`repro.dsm.spectrum.periodogram` rejects shorter records).
MIN_SPECTRUM_OUTPUTS = 8


def check_snr_record_length(name: str, n_samples: int, decimation: int,
                            min_outputs: int = MIN_SPECTRUM_OUTPUTS,
                            context: str = "") -> None:
    """Reject an SNR stimulus too short to analyze, before any work.

    ``n_samples`` modulator samples decimate to ``n_samples // decimation``
    output samples; fewer than ``min_outputs`` raises :class:`ValueError`
    naming ``name`` (the flag or parameter) and the floor.  The one check
    behind the ``--snr-samples`` flags and the robustness
    ``stimulus_samples`` floor.
    """
    floor = min_outputs * decimation
    if n_samples < floor:
        raise ValueError(
            f"{name} {n_samples} is too short{context}: it yields fewer "
            f"than {min_outputs} output samples at decimation {decimation}; "
            f"the SNR analysis needs at least {floor}")


@dataclass(frozen=True)
class CheckResult:
    """One verification check."""

    name: str
    measured: float
    limit: float
    comparison: str  # "<=" or ">="
    passed: bool
    unit: str = "dB"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        mark = "PASS" if self.passed else "FAIL"
        return (f"[{mark}] {self.name}: measured {self.measured:.2f} {self.unit} "
                f"(required {self.comparison} {self.limit:g} {self.unit})")


@dataclass
class VerificationReport:
    """Collection of verification checks with an overall verdict."""

    checks: List[CheckResult] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        """Whether every check in the report passed."""
        return all(check.passed for check in self.checks)

    def add(self, name: str, measured: float, limit: float, comparison: str,
            unit: str = "dB") -> CheckResult:
        """Evaluate one check (``measured <= limit`` or ``>=``) and record it."""
        if comparison == "<=":
            ok = measured <= limit
        elif comparison == ">=":
            ok = measured >= limit
        else:
            raise ValueError("comparison must be '<=' or '>='")
        check = CheckResult(name, float(measured), float(limit), comparison, ok, unit)
        self.checks.append(check)
        return check

    def as_dict(self) -> Dict[str, dict]:
        """JSON-serializable view: check name → measured/limit/status fields."""
        return {
            check.name: {
                "measured": check.measured,
                "limit": check.limit,
                "comparison": check.comparison,
                "passed": check.passed,
                "unit": check.unit,
            }
            for check in self.checks
        }

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        lines = [str(check) for check in self.checks]
        lines.append(f"Overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def verify_chain(chain, include_snr: bool = False,
                 snr_samples: int = 65536,
                 passband_fraction: float = 0.95,
                 artifacts=None,
                 snr_tone_hz: Optional[float] = None,
                 snr_amplitude: Optional[float] = None) -> VerificationReport:
    """Verify a designed chain against its specification.

    Parameters
    ----------
    chain:
        A :class:`~repro.core.chain.DecimationChain`.
    include_snr:
        Also run the (slow) modulator + bit-true chain simulation and check
        the end-to-end SNR against the Table I target.
    snr_samples:
        Modulator samples to simulate when ``include_snr`` is set.
    passband_fraction:
        Fraction of the passband over which ripple is evaluated (the extreme
        band edge at the output Nyquist frequency carries the halfband's
        −6 dB point by construction; the paper's equalizer likewise restores
        "the signal band" rather than the exact Nyquist edge).
    artifacts:
        :class:`~repro.flow.artifacts.ArtifactStore` the mask stage and the
        SNR check (see :func:`simulated_output_snr`) run through (a fresh
        one when ``None``).  The frequency-mask checks depend only on the
        designed filters and the spec mask — not on the output word
        width — so chains sharing a store and those inputs reuse one mask
        evaluation (a tuple of frozen checks).
    snr_tone_hz, snr_amplitude:
        Optional explicit SNR stimulus (tone frequency / amplitude); the
        defaults are the paper's bandwidth/4 tone at 0.95 x MSA.  Scenario
        definitions (:mod:`repro.scenarios`) pin these explicitly so their
        golden records are self-describing.
    """
    from repro.flow.artifacts import ArtifactStore

    if artifacts is None:
        artifacts = ArtifactStore()
    with trace.span("flow.verify.mask"):
        key = ("verify-mask", _mask_fingerprint(chain, passband_fraction))
        checks = artifacts.get_or_compute(
            key, lambda: _verify_mask(chain, passband_fraction))
    report = VerificationReport(list(checks),
                                {"passband_fraction": passband_fraction})

    if include_snr:
        dec = chain.spec.decimator
        with trace.span("flow.verify.snr", n_samples=snr_samples):
            snr = simulated_output_snr(chain, n_samples=snr_samples,
                                       tone_hz=snr_tone_hz,
                                       amplitude=snr_amplitude,
                                       artifacts=artifacts)
        report.add("end-to-end SNR (bit-true chain)", snr, dec.target_snr_db - 3.0, ">=")
        report.metadata["simulated_snr_db"] = snr

    return report


def distribution_pass_fraction(values, limit: float, comparison: str) -> float:
    """Fraction of a metric distribution that passes a spec-mask limit.

    ``values`` is a sequence of per-sample measurements (e.g. the SNR of
    every Monte Carlo sample); the returned fraction is the *yield* of the
    population against ``measured <comparison> limit``.
    """
    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        return 0.0
    if comparison == "<=":
        passed = data <= limit
    elif comparison == ">=":
        passed = data >= limit
    else:
        raise ValueError("comparison must be '<=' or '>='")
    return float(np.count_nonzero(passed)) / float(data.size)


def robust_percentile(values, comparison: str,
                      percentile: float = 99.0) -> float:
    """The value a metric distribution clears with ``percentile`` confidence.

    For a ``">="`` mask (bigger is better, e.g. SNR) this is the value
    exceeded by ``percentile`` % of the samples — the low tail.  For a
    ``"<="`` mask (smaller is better, e.g. power) it is the value that
    ``percentile`` % of samples stay below — the high tail.  Percentiles
    use NumPy's linear interpolation, so equal populations give bit-equal
    results regardless of executor or sharding.
    """
    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        raise ValueError("cannot take a percentile of an empty distribution")
    if comparison == ">=":
        return float(np.percentile(data, 100.0 - percentile))
    if comparison == "<=":
        return float(np.percentile(data, percentile))
    raise ValueError("comparison must be '<=' or '>='")


def verify_distribution(name: str, values, limit: float, comparison: str,
                        min_pass_fraction: float = 0.95,
                        percentile: float = 99.0,
                        unit: str = "dB",
                        report: Optional[VerificationReport] = None,
                        ) -> VerificationReport:
    """Spec-mask pass/fail over a Monte Carlo metric distribution.

    Extends the scalar checks of :func:`verify_chain` to populations: a
    distribution passes a mask when (a) its *yield* — the fraction of
    samples meeting ``measured <comparison> limit`` — reaches
    ``min_pass_fraction``, and (b) its ``percentile``-confidence value
    (:func:`robust_percentile`) itself meets the limit.  Two
    :class:`CheckResult` rows are appended per metric, so a
    :class:`VerificationReport` built this way renders and serializes
    exactly like the nominal flow's report.  This is the verification layer
    of the :mod:`repro.robustness` subsystem's :class:`YieldReport`.

    ``values`` must be non-empty: the empty case is rejected before any
    check row is appended, so a shared ``report`` is never left
    half-mutated.
    """
    values = list(values)
    if not values:
        raise ValueError("cannot verify an empty metric distribution")
    if report is None:
        report = VerificationReport()
    report.add(f"{name} yield",
               distribution_pass_fraction(values, limit, comparison),
               min_pass_fraction, ">=", unit="")
    report.add(f"{name} P{percentile:g}",
               robust_percentile(values, comparison, percentile),
               limit, comparison, unit=unit)
    return report


def _verify_mask(chain, passband_fraction: float) -> Tuple[CheckResult, ...]:
    """The frequency-mask verification checks (everything except the SNR).

    The ripple is read on a 1024-point passband grid.  The first-alias
    check reads the 32768-point overall response only at DC and inside the
    band, so the cascade is evaluated on just those points of the grid
    (:func:`~repro.filters.response.band_limited_grid`); the Sinc check
    does the same inside
    :meth:`~repro.filters.sinc.SincCascade.worst_alias_attenuation_db`.
    Every value and verdict equals the full-grid evaluation's.
    """
    spec = chain.spec
    report = VerificationReport()

    dec = spec.decimator
    passband_eval_hz = dec.passband_edge_hz * passband_fraction
    cascade = chain.multirate_cascade()

    ripple = cascade.passband_ripple_db(passband_eval_hz)
    report.add("passband ripple", ripple, dec.passband_ripple_db, "<=")

    # First alias band: the frequencies that fold onto the protected part of
    # the signal band in the final decimation to the output rate.  This is
    # the region the halfband filter is responsible for and the one the
    # >85 dB Table I requirement targets.
    protected_edge = dec.output_rate_hz - dec.stopband_edge_hz
    first_alias = (dec.stopband_edge_hz, dec.output_rate_hz + protected_edge)
    grid = default_frequency_grid(cascade.input_rate_hz, 32768)
    response = cascade.overall_response(band_limited_grid(grid, [first_alias]))
    first_alias_att = response.stopband_attenuation_db(*first_alias)
    report.add("first alias band attenuation "
               f"({first_alias[0]/1e6:.0f}-{first_alias[1]/1e6:.0f} MHz)",
               first_alias_att, dec.stopband_attenuation_db, ">=")

    hbf_att = chain.halfband.metadata.get("achieved_attenuation_db", 0.0)
    report.add("halfband stopband attenuation", hbf_att,
               dec.stopband_attenuation_db, ">=")

    # Sinc cascade protection around the centres of its alias bands (the
    # deep CIC nulls at multiples of the sinc-cascade output rate); the
    # paper quotes >100 dB here, the spec requires >85 dB.
    sinc_alias = chain.sinc_cascade.worst_alias_attenuation_db(
        spec.modulator.bandwidth_hz / 8.0)
    report.add("sinc cascade attenuation at alias-band centres", sinc_alias,
               dec.stopband_attenuation_db, ">=")

    return tuple(report.checks)


def _mask_fingerprint(chain, passband_fraction: float) -> str:
    """Content hash of every input the mask checks can depend on.

    Deliberately excludes the output word width (and anything else the
    checks never read), so sweep points that differ only in those reuse the
    memoized mask report.  Derived once per chain.
    """
    spec = chain.spec
    return chain.derived_hash(("verify-mask", passband_fraction), lambda: {
        "sinc_orders": [s.spec.order for s in chain.sinc_cascade.stages],
        "halfband_f1": [float(v) for v in chain.halfband.f1],
        "halfband_f2": [float(v) for v in chain.halfband.f2],
        "halfband_attenuation_db": float(
            chain.halfband.metadata.get("achieved_attenuation_db", 0.0)),
        "equalizer_taps": [float(t) for t in chain._equalizer_impl.quantized_taps],
        "sample_rate_hz": spec.modulator.sample_rate_hz,
        "bandwidth_hz": spec.modulator.bandwidth_hz,
        "decimator": {
            "passband_edge_hz": spec.decimator.passband_edge_hz,
            "passband_ripple_db": spec.decimator.passband_ripple_db,
            "stopband_edge_hz": spec.decimator.stopband_edge_hz,
            "stopband_attenuation_db": spec.decimator.stopband_attenuation_db,
            "output_rate_hz": spec.decimator.output_rate_hz,
        },
        "passband_fraction": passband_fraction,
    })


def simulated_output_snr(chain, n_samples: int = 65536,
                         tone_hz: Optional[float] = None,
                         amplitude: Optional[float] = None,
                         seed_phase: float = 0.0,
                         artifacts=None) -> float:
    """Modulator → bit-true chain → SNR measurement (the Table I bottom row).

    Parameters
    ----------
    artifacts:
        :class:`~repro.flow.artifacts.ArtifactStore` (a fresh one when
        ``None``) holding two stages.  The measured SNR is keyed by the
        chain (:meth:`~repro.core.chain.DecimationChain.content_key`) and
        the stimulus, so a repeated request for the same chain and
        stimulus runs nothing.  The modulator bit-stream depends only on
        the modulator spec and the stimulus — not on the chain — so every
        chain sharing a store and those inputs simulates the modulator
        once (see :func:`modulator_tone_codes`).
    """
    from repro.flow.artifacts import ArtifactStore

    if artifacts is None:
        artifacts = ArtifactStore()
    spec = chain.spec
    exact_tone_hz, amplitude, total, settle_outputs = snr_stimulus_parameters(
        chain, n_samples, tone_hz=tone_hz, amplitude=amplitude)

    def measure() -> float:
        codes = modulator_tone_codes(spec.modulator, exact_tone_hz, amplitude,
                                     total, seed_phase=seed_phase,
                                     artifacts=artifacts)
        return chain.measure_output_snr(
            codes, exact_tone_hz, discard_outputs=settle_outputs,
            analyze_outputs=n_samples // chain.total_decimation)

    key = ("snr-leg", chain.derived_hash(
        ("snr-leg", n_samples, exact_tone_hz, amplitude, total,
         settle_outputs, seed_phase),
        lambda: {"chain": chain.content_key(),
                 "n_samples": n_samples,
                 "tone_hz": exact_tone_hz,
                 "amplitude": amplitude,
                 "total_samples": total,
                 "settle_outputs": settle_outputs,
                 "seed_phase": seed_phase}))
    return artifacts.get_or_compute(key, measure)


def snr_stimulus_parameters(chain, n_samples: int,
                            tone_hz: Optional[float] = None,
                            amplitude: Optional[float] = None):
    """The SNR-leg stimulus derived from a chain: ``(exact_tone_hz,
    amplitude, total_samples, settle_outputs)``.

    Single source of truth shared by :func:`simulated_output_snr` and the
    sweep runner's process-pool warming
    (:func:`repro.flow.pipeline.warm_flow_artifacts`) — both must key the
    memoized modulator bit-stream identically, or warming silently stops
    matching.  The stimulus is padded with enough extra samples to flush
    the chain's group delay, so the analyzed output record stays coherent
    with the tone.
    """
    exact_tone_hz, amplitude = snr_tone(chain.spec.modulator, n_samples,
                                        tone_hz, amplitude)
    settle_outputs = chain._settle_samples()
    total = n_samples + settle_outputs * chain.total_decimation
    return exact_tone_hz, amplitude, total, settle_outputs


def snr_tone(modulator_spec, n_samples: int,
             tone_hz: Optional[float] = None,
             amplitude: Optional[float] = None) -> Tuple[float, float]:
    """The SNR-leg tone of :func:`snr_stimulus_parameters`:
    ``(exact_tone_hz, amplitude)``, the frequency coherent over
    ``n_samples`` (default: a quarter of the signal band) and the
    amplitude (default: 95% of the MSA).  It needs only the modulator."""
    from repro.dsm.signals import ToneSpec

    if tone_hz is None:
        tone_hz = modulator_spec.bandwidth_hz / 4.0
    if amplitude is None:
        amplitude = modulator_spec.msa * 0.95
    tone_spec = ToneSpec(tone_hz, amplitude, modulator_spec.sample_rate_hz,
                         n_samples)
    return tone_spec.coherent_frequency_hz, amplitude


def modulator_tone_codes(modulator_spec, tone_hz: float, amplitude: float,
                         n_total: int, seed_phase: float = 0.0,
                         artifacts=None) -> np.ndarray:
    """Modulator output codes for a sine stimulus, memoized per spec + tone.

    The delta-sigma loop is causal, so a record simulated for ``N`` samples
    is the exact prefix of the record simulated for ``M > N`` samples of the
    same stimulus.  The store therefore keeps one entry per
    ``(modulator spec, stimulus)`` holding the longest record computed so
    far: shorter requests slice it (bit-identical to a dedicated
    simulation), longer requests re-simulate and replace it.  This is what
    lets every sweep point sharing a modulator spec pay for exactly one
    modulator simulation even when their decimation chains need slightly
    different settle padding.  ``artifacts`` is that store (a fresh one
    when ``None``); the record and the returned slice are read-only.
    """
    from repro.flow.artifacts import ArtifactStore

    if artifacts is None:
        artifacts = ArtifactStore()

    def simulate() -> np.ndarray:
        from repro.dsm.modulator import DeltaSigmaModulator
        from repro.dsm.signals import tone_argument

        modulator = DeltaSigmaModulator.from_spec(modulator_spec)
        stimulus = amplitude * np.sin(tone_argument(
            tone_hz, modulator_spec.sample_rate_hz, n_total, seed_phase))
        codes = modulator.fast_simulator.simulate(stimulus,
                                                  codes_only=True).codes
        codes.flags.writeable = False
        return codes

    codes = artifacts.get_or_compute(
        modulator_codes_key(modulator_spec, tone_hz, amplitude, seed_phase),
        simulate, reuse=lambda stored: len(stored) >= n_total)
    return codes[:n_total]


def modulator_codes_key(modulator_spec, tone_hz: float, amplitude: float,
                        seed_phase: float = 0.0) -> Tuple[str, str]:
    """The store key of :func:`modulator_tone_codes`: the modulator fields
    the loop reads and the stimulus, but not the record length (one entry
    holds the longest record of its stimulus)."""
    return ("modulator-codes", content_hash({
        "order": modulator_spec.order,
        "osr": modulator_spec.osr,
        "quantizer_bits": modulator_spec.quantizer_bits,
        "sample_rate_hz": modulator_spec.sample_rate_hz,
        "out_of_band_gain": modulator_spec.out_of_band_gain,
        "tone_hz": tone_hz,
        "amplitude": amplitude,
        "seed_phase": seed_phase,
    }))
