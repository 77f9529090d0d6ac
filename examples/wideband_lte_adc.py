"""The full paper flow on the wideband (LTE-class, 20 MHz) delta-sigma ADC.

Reproduces the complete Section II–VIII story in one script, driven by the
registered ``lte-20`` scenario (the paper's own Table I profile — see
``docs/SCENARIOS.md``):

1. synthesize the 5th-order NTF and simulate the continuous-time-equivalent
   modulator (Fig. 4's spectrum and SQNR),
2. design the decimation chain and verify the Table I mask,
3. run the bit-true chain on the modulator bit-stream and measure the
   end-to-end SNR (the 86 dB / 14-bit row of Table I),
4. estimate power and area from the synthesis model (Table II, Figs. 12–13).

Run with::

    python examples/wideband_lte_adc.py

The same workload from the shell::

    python -m repro scenario run lte-20
"""

from repro.dsm import DeltaSigmaModulator, analyze_tone, coherent_tone
from repro.flow import flow_report_text, run_design_flow
from repro.scenarios import get_scenario


def main() -> None:
    scenario = get_scenario("lte-20")
    mod_spec = scenario.spec.modulator
    stimulus = scenario.stimulus

    # ------------------------------------------------------------------
    # 1. Modulator: 5th order, OSR 16, 4-bit, 640 MHz (Fig. 4)
    # ------------------------------------------------------------------
    modulator = DeltaSigmaModulator.from_spec(mod_spec)
    tone = coherent_tone(stimulus.tone_hz, 0.73,
                         modulator.sample_rate_hz, 65536)
    result = modulator.simulate(tone)
    spectrum = analyze_tone(result.output, modulator.sample_rate_hz,
                            stimulus.tone_hz,
                            bandwidth_hz=modulator.signal_bandwidth_hz)
    print("Modulator (Fig. 4 reproduction)")
    print(f"  stable:            {result.stable}")
    print(f"  SQNR over 20 MHz:  {spectrum.snr_db:.1f} dB "
          f"({spectrum.enob:.1f} bits)   [paper: 102 dB / 16.7 bits]")

    # ------------------------------------------------------------------
    # 2–4. Chain design, verification, power/area (Tables I, II),
    # then the end-to-end bit-true SNR with the scenario's stimulus.
    # The SNR leg runs the chain's fast paths and the fast modulator
    # engine — bit-exact words, ~30x faster than the gold models.
    # ------------------------------------------------------------------
    flow = run_design_flow(
        spec=scenario.spec,
        options=scenario.options,
        include_snr_simulation=True,
        snr_samples=stimulus.n_samples,
        snr_tone_hz=stimulus.tone_hz,
        snr_amplitude=stimulus.amplitude,
        measure_activity=True,
    )
    print()
    print(flow_report_text(flow))
    print(f"End-to-end bit-true SNR (0.95·MSA tone): "
          f"{flow.simulated_snr_db:.1f} dB  [paper: 86 dB / 14 bits]")


if __name__ == "__main__":
    main()
