"""Monte Carlo robustness engine: batched vs per-sample-loop speedup.

Runs the same 256-sample perturbation population over the paper's LTE-20
chain twice: once through the robustness engine's batched hot path (each
chain variant's samples in blocks of ``ROW_BLOCK`` rows; per block, one
``simulate_batch`` and one batched Hogenauer pass per group of
``LOCKSTEP_ROWS`` rows, then one batched pass of the rest of the chain
and one batched periodogram) and once as the naive per-sample Python
loop (simulate → process → analyze, one record at a time).  The two paths are
bit-exact per sample — every SNR must match to the last bit — so the
speedup is pure batching, not a numerics change.

It also records the shard's memory scaling, as the ratio of the
``tracemalloc`` peak of the 256-sample payload to that of a small
population that fills one ``ROW_BLOCK`` block per chain variant (bounded
by the row block, so well under 2), and, on the same
population, how much faster the compiled kernels run the modulator batch
and the Hogenauer batch than the Python fallback a host without a C
compiler runs.
"""

import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from benchutils import emit_json, print_series

N_SAMPLES = 256
STIMULUS_SAMPLES = 2048
SEED = 2011


def _build_payload():
    from repro.core.chain import DecimationChain
    from repro.flow.artifacts import ArtifactStore
    from repro.hardware.stdcell import library_by_name
    from repro.robustness import default_model
    from repro.scenarios import get_scenario

    scenario = get_scenario("lte-20")
    model = default_model()
    store = ArtifactStore()
    chain = DecimationChain.design(scenario.spec, scenario.options,
                                   artifacts=store)
    library = library_by_name(scenario.library)
    table = model.draw_table(
        np.random.default_rng(SEED), N_SAMPLES,
        n_halfband_f1=chain.halfband.n1, n_halfband_f2=chain.halfband.n2,
        n_equalizer_taps=chain.equalizer.order + 1,
        nominal_vdd=library.nominal_vdd)
    payload = {
        "spec": scenario.spec.to_dict(),
        "options": scenario.options.to_dict(),
        "flow": {
            "library": scenario.library,
            "snr_samples": STIMULUS_SAMPLES,
            "snr_tone_hz": scenario.stimulus.tone_hz,
            "snr_amplitude": scenario.stimulus.amplitude,
        },
        "model": model.to_dict(),
        "variants": table["variants"],
        "samples": table["samples"],
        "nominal": {"dynamic_mw": 8.0, "leakage_uw": 900.0,
                    "area_mm2": 0.12},
        "nominal_vdd": library.nominal_vdd,
    }
    return scenario, model, chain, store, payload


def _population(scenario, model, chain, payload):
    """The modulator and one stimulus row per Monte Carlo sample, drawn as
    the robustness engine draws them; also the stimulus timing."""
    from repro.core.verification import snr_stimulus_parameters
    from repro.dsm.modulator import DeltaSigmaModulator
    from repro.dsm.signals import jittered_tone

    spec = scenario.spec
    flow = payload["flow"]
    exact_tone_hz, amplitude, total, settle = snr_stimulus_parameters(
        chain, flow["snr_samples"], tone_hz=flow["snr_tone_hz"],
        amplitude=flow["snr_amplitude"])
    fs = spec.modulator.sample_rate_hz
    jitter_rms = model.jitter.rms_s if model.jitter is not None else 0.0
    modulator = DeltaSigmaModulator.from_spec(spec.modulator)
    rows = []
    for sample in payload["samples"]:
        rng = np.random.default_rng(sample["jitter_seed"])
        rows.append(jittered_tone(exact_tone_hz, amplitude * sample["gain"],
                                  fs, total, jitter_rms, rng)
                    + sample["offset"])
    return modulator, rows, exact_tone_hz, settle


def _per_sample_loop(scenario, model, chain, store, payload):
    """The naive reference: one full simulation chain per Monte Carlo sample."""
    from repro.robustness.engine import _variant_chain

    flow = payload["flow"]
    modulator, rows, exact_tone_hz, settle = _population(scenario, model,
                                                         chain, payload)
    n_out = flow["snr_samples"] // chain.total_decimation
    snrs = []
    for sample, stimulus in zip(payload["samples"], rows):
        result = modulator.simulate(stimulus)
        chain_v, _ = _variant_chain(chain, model,
                                    payload["variants"][sample["variant"]],
                                    sample["variant"], store)
        snrs.append(chain_v.measure_output_snr(
            result.codes, exact_tone_hz, discard_outputs=settle,
            analyze_outputs=n_out))
    return snrs


def _best_time(function, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


def _kernel_speedups(scenario, model, chain, payload):
    """Same-run ratios of fallback to compiled-kernel time for the two
    kernel-backed batch layers, on the population's own inputs.

    The fallback is what a host without a C compiler runs: the Python
    modulator loop row by row, and the vectorized Hogenauer engine row by
    row.  The Hogenauer batch runs the chain's ``sinc_words`` on the
    codes.  Best of five runs per side, so one
    slow run does not set the ratio.
    """
    from repro import _native

    modulator, rows, _, _ = _population(scenario, model, chain, payload)
    stimulus = np.stack(rows[:64])
    codes = modulator.simulate_batch(np.stack(rows)).codes
    timings = {}
    for engine in ("kernel", "fallback"):
        with mock.patch.object(_native, "load",
                               _native.load if engine == "kernel"
                               else lambda: None):
            timings[engine] = (
                _best_time(lambda: modulator.simulate_batch(stimulus)),
                _best_time(lambda: chain.sinc_words(codes)))
    return {
        "kernel_loaded": _native.load() is not None,
        "simulate_batch_kernel_speedup":
            timings["fallback"][0] / timings["kernel"][0],
        "hogenauer_batch_kernel_speedup":
            timings["fallback"][1] / timings["kernel"][1],
    }


def _one_block_per_variant(samples):
    """The first ``ROW_BLOCK`` samples of every chain variant.

    Each variant group of this population fills one full block, as the
    full payload's groups do, so the two shards run blocks of the same
    size and their peak ratio shows how memory grows with the population.
    """
    from repro.robustness.engine import ROW_BLOCK

    taken = {}
    small = []
    for sample in samples:
        count = taken.get(sample["variant"], 0)
        if count < ROW_BLOCK:
            taken[sample["variant"]] = count + 1
            small.append(sample)
    return small


def _payload_peak_ratio(payload, store):
    """``tracemalloc`` peak of the full payload over that of
    :func:`_one_block_per_variant` of it, on the warm ``store``; also the
    small population's size."""
    from repro.robustness.engine import execute_robustness_payload

    small = _one_block_per_variant(payload["samples"])
    peaks = []
    for shard in (payload, dict(payload, samples=small)):
        tracemalloc.start()
        try:
            execute_robustness_payload(shard, store)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks[0] / peaks[1], len(small)


@pytest.mark.benchmark(group="robustness")
def test_robustness_batched_vs_loop(benchmark):
    from repro.robustness.engine import ROW_BLOCK, execute_robustness_payload

    scenario, model, chain, store, payload = _build_payload()
    # Warm the variant chains and mask verifications once, so both timed
    # paths measure pure simulation work rather than one-off design cost.
    execute_robustness_payload(payload, store)

    t0 = time.perf_counter()
    batched = benchmark.pedantic(execute_robustness_payload,
                                 args=(payload, store),
                                 rounds=1, iterations=1)
    batched_s = time.perf_counter() - t0

    t1 = time.perf_counter()
    loop_snrs = _per_sample_loop(scenario, model, chain, store, payload)
    loop_s = time.perf_counter() - t1

    batched_snrs = [row["snr_db"] for row in batched["rows"]]
    snr_match = batched_snrs == loop_snrs
    speedup = loop_s / max(batched_s, 1e-9)
    kernels = _kernel_speedups(scenario, model, chain, payload)
    peak_ratio, small_samples = _payload_peak_ratio(payload, store)
    print_series("Monte Carlo robustness — batched vs per-sample loop",
                 ["quantity", "value", ""],
                 [("samples", N_SAMPLES, f"{STIMULUS_SAMPLES}-sample stimulus"),
                  ("chain variants", len(payload["variants"]), ""),
                  ("batched (s)", round(batched_s, 3),
                   f"per-variant blocks of {ROW_BLOCK} rows, batched"),
                  ("per-sample loop (s)", round(loop_s, 3),
                   "simulate/process/analyze one record at a time"),
                  ("speedup", f"{speedup:.1f}x", ""),
                  ("SNRs bit-exact", snr_match, "batched == loop per sample"),
                  ("payload peak ratio", f"{peak_ratio:.2f}",
                   f"tracemalloc peak, {N_SAMPLES} / {small_samples} samples "
                   f"(one {ROW_BLOCK}-row block per variant)"),
                  ("simulate_batch kernel speedup",
                   f"{kernels['simulate_batch_kernel_speedup']:.1f}x",
                   "Python fallback / compiled kernel, 64 rows"),
                  ("Hogenauer batch kernel speedup",
                   f"{kernels['hogenauer_batch_kernel_speedup']:.1f}x",
                   "vectorized fallback / compiled kernel, 256 rows")])
    emit_json("robustness_yield", {
        "n_samples": N_SAMPLES,
        "stimulus_samples": STIMULUS_SAMPLES,
        "chain_variants": len(payload["variants"]),
        "batched_s": batched_s,
        "loop_s": loop_s,
        "speedup": speedup,
        "snr_match": snr_match,
        "snr_min_db": min(batched_snrs),
        "snr_max_db": max(batched_snrs),
        "payload_peak_ratio": peak_ratio,
        "payload_peak_small_samples": small_samples,
        **kernels,
    })

    assert snr_match, "batched hot path must be bit-exact to the loop"
    assert speedup > 1.0
