"""Table I (bottom row) — end-to-end SNR of the decimated output.

Regenerates the 86 dB / 14-bit figure: the modulator is driven with a
near-MSA tone, its 4-bit code stream runs through the bit-true decimation
chain and the SNR of the 14-bit output is measured over the 20 MHz band.

The benchmark runs ``process_fixed``, whose stages take their fast paths;
a second test compares its sample throughput with the stage gold models
composed on the same record (typically a 50–100× speed-up) and asserts a
conservative 5× floor that stays robust on loaded CI runners.
"""

import time

import pytest

from benchutils import emit_json, print_series


def _gold_model(chain, codes):
    """The bit-true chain through every stage's gold model (1-D codes)."""
    from repro.filters import HogenauerDecimator

    data = chain.codes_to_signed(codes)
    for stage in chain._hogenauer_stages:
        data = HogenauerDecimator(stage.spec, stage.config)._process_reference(data)
    data = chain._halfband_impl._process_reference(data)
    data = chain.scaling._process_reference(data)
    data = chain._equalizer_impl._process_reference(data)
    return chain._finalize_output(data)


def _end_to_end(paper_chain, n_samples):
    from repro.core.verification import simulated_output_snr

    return simulated_output_snr(paper_chain, n_samples=n_samples)


@pytest.mark.benchmark(group="snr")
def test_end_to_end_snr(benchmark, paper_chain):
    t0 = time.perf_counter()
    snr = benchmark.pedantic(_end_to_end, args=(paper_chain, 65536),
                             rounds=1, iterations=1)
    elapsed_s = time.perf_counter() - t0
    enob = (snr - 1.76) / 6.02
    rows = [
        ("measured SNR (0.95*MSA tone, 20 MHz band)", f"{snr:.1f} dB"),
        ("paper", "86 dB"),
        ("measured ENOB", f"{enob:.1f} bits"),
        ("paper resolution", "14 bits"),
    ]
    print_series("End-to-end SNR (Table I, decimated output)", ["quantity", "value"], rows)
    emit_json("end_to_end_snr", {
        "snr_db": snr,
        "enob": enob,
        "n_samples": 65536,
        "elapsed_s": elapsed_s,
    })
    assert snr > 80.0
    assert enob > 13.0


@pytest.mark.benchmark(group="snr")
def test_backend_throughput(paper_chain):
    """Gold-model vs ``process_fixed`` sample throughput on the same code stream."""
    import numpy as np

    from repro.dsm import DeltaSigmaModulator, coherent_tone

    n = 32768
    modulator = DeltaSigmaModulator()
    result = modulator.simulate(coherent_tone(2.5e6, 0.7, 640e6, n))

    start = time.perf_counter()
    ref = _gold_model(paper_chain, result.codes)
    t_ref = time.perf_counter() - start
    start = time.perf_counter()
    vec = paper_chain.process_fixed(result.codes)
    t_vec = time.perf_counter() - start
    assert np.array_equal(ref, vec)

    speedup = t_ref / t_vec
    rows = [
        ("stage gold models", f"{n / t_ref / 1e6:.2f} Msamples/s"),
        ("process_fixed (fast paths)", f"{n / t_vec / 1e6:.2f} Msamples/s"),
        ("speed-up", f"{speedup:.0f}x"),
    ]
    print_series("Bit-true chain throughput (gold models vs fast paths)",
                 ["engine", "throughput"], rows)
    # Typical speed-up is 50-100x; the floor is deliberately conservative so
    # the assertion stays robust on loaded CI runners (single un-warmed
    # timing pair), while still catching a regression that loses the fast
    # path entirely.
    assert speedup > 5.0
