"""Quickstart: design the paper's decimation filter in a few lines.

Designs the Table I chain (Sinc4 → Sinc4 → Sinc6 → Saramäki halfband →
scaler → 64th-order equalizer) from the registered ``lte-20`` scenario —
the paper's own profile, shared with the tests, the CLI and the golden
records — verifies it against the specification, prints the design summary
and verification report, and runs a short bit-true simulation (every stage
takes its vectorized fast path; the sample-by-sample gold models produce
bit-identical words, 10–100× slower; see docs/ARCHITECTURE.md).

Run with::

    python examples/quickstart.py
"""

import numpy as np

from repro.core import DecimationChain, verify_chain
from repro.dsm import DeltaSigmaModulator, coherent_tone
from repro.scenarios import get_scenario


def main() -> None:
    scenario = get_scenario("lte-20")
    chain = DecimationChain.design(scenario.spec, scenario.options)

    print("Designed decimation filter chain (paper Table I specification)")
    print("-" * 64)
    for key, value in chain.summary().items():
        print(f"  {key:<28} {value}")

    print()
    print("Per-stage structure (Fig. 5 architecture)")
    print("-" * 64)
    for info in chain.stage_infos():
        print(f"  {info.name:<16} {info.input_rate_hz/1e6:7.1f} MHz -> "
              f"{info.output_rate_hz/1e6:7.1f} MHz   "
              f"{info.input_bits:>2}b -> {info.output_bits:>2}b   (÷{info.decimation})")

    print()
    print("Specification verification (Table I mask)")
    print("-" * 64)
    report = verify_chain(chain)
    print(report)

    print()
    print("Bit-true simulation")
    print("-" * 64)
    modulator = DeltaSigmaModulator()
    tone = coherent_tone(2.5e6, 0.7, modulator.sample_rate_hz, 16384)
    codes = modulator.simulate(tone, engine="fast").codes
    words = chain.process_fixed(codes)
    print(f"  {len(codes)} modulator codes -> {len(words)} output words "
          f"({chain.spec.decimator.output_bits}-bit, peak |word| = "
          f"{int(np.max(np.abs(words)))})")


if __name__ == "__main__":
    main()
