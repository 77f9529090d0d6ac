"""Design-space sweep throughput and cache speedup.

Times a 4-point sweep (two output widths × two halfband attenuation
targets) cold — every point runs the full design → verify → synthesis
flow — and then warm, where every point reloads from the on-disk cache,
and reports the speedup plus the byte-identity of the two reports.
"""

import time

import pytest

from benchutils import emit_json, print_series


def _run(sweep, cache_dir, jobs):
    from repro.explore import run_sweep, sweep_report_json

    result = run_sweep(sweep, jobs=jobs, cache_dir=cache_dir)
    return result, sweep_report_json(result)


@pytest.mark.benchmark(group="sweep")
def test_sweep_cache_speedup(benchmark, tmp_path):
    from repro.explore import SweepSpec

    sweep = SweepSpec(output_bits=(12, 14),
                      halfband_attenuation_db=(80.0, 85.0))
    cache_dir = tmp_path / "cache"

    t0 = time.perf_counter()
    cold, cold_json = _run(sweep, cache_dir, jobs=2)
    cold_s = time.perf_counter() - t0

    warm, warm_json = benchmark.pedantic(
        _run, args=(sweep, cache_dir, 2), rounds=1, iterations=1)
    warm_s = warm.elapsed_s

    speedup = cold_s / max(warm_s, 1e-9)
    store = cold.metadata.get("artifact_store", {})
    print_series("Design-space sweep — cache speedup",
                 ["quantity", "value", ""],
                 [("points", len(cold), ""),
                  ("cold run (s)", round(cold_s, 3), "all points executed"),
                  ("shared-stage reuses", store.get("hits", 0),
                   "memoized artifact hits during the cold run"),
                  ("warm run (s)", round(warm_s, 4), "all points cached"),
                  ("speedup", f"{speedup:.0f}x", ""),
                  ("reports identical", cold_json == warm_json, "bit-exact")])
    emit_json("sweep_cache", {
        "points": len(cold),
        "cold_s": cold_s,
        "warm_s": warm_s,
        "warm_speedup": speedup,
        "executor": cold.metadata.get("executor"),
        "artifact_store": store,
        "reports_identical": cold_json == warm_json,
    })

    assert cold.cache_misses == len(cold)
    assert warm.cache_hits == len(warm)
    assert warm_s < cold_s
    assert cold_json == warm_json

