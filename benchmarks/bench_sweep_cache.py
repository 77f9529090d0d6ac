"""Design-space sweep throughput and cache speedup.

Times a 4-point sweep (two output widths × two halfband attenuation
targets) cold — every point runs the full design → verify → synthesis
flow — and then warm, where every point reloads from the on-disk cache,
and reports the speedup plus the byte-identity of the two reports.

Also benchmarks the batched-probe contract on a simulated high-latency
object store: diffing a grid through ``probe_many`` (paginated LIST)
against per-key HEAD probes, emitting ``BENCH_cache_probe.json`` for
the floor gate.
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


@pytest.mark.benchmark(group="sweep")
def test_object_store_probe_batching(tmp_path):
    """Grid diff on a high-latency object store: batched vs per-key.

    128 keys (half published) against a FakeObjectStore with 0.5 ms of
    injected per-call latency: the per-key path pays one HEAD round trip
    per key, the batched ``diff``/``probe_many`` path pays one paginated
    LIST sweep — O(pages) round trips for the whole grid.
    """
    from repro.explore.store import (ArtifactCAS, FakeObjectStore,
                                     ObjectStoreBackend)

    latency_s = 0.0005
    page_size = 64
    client = FakeObjectStore(latency_s=latency_s, page_size=page_size)
    cas = ArtifactCAS(backend=ObjectStoreBackend(client, label="mem://bench"))
    keys = [f"{i:04x}{'a' * 60}" for i in range(128)]
    for key in keys[::2]:
        cas.put(key, {"key": key})

    client.calls.clear()
    t0 = time.perf_counter()
    per_key_missing = [key for key in keys if not cas.contains(key)]
    per_key_s = time.perf_counter() - t0
    per_key_calls = sum(client.calls.values())

    client.calls.clear()
    t0 = time.perf_counter()
    batched_missing = cas.diff(keys)
    batched_s = time.perf_counter() - t0
    batched_calls = sum(client.calls.values())
    expected_pages = -(-len(keys[::2]) // page_size)  # ceil division

    speedup = per_key_s / max(batched_s, 1e-9)
    identical = batched_missing == per_key_missing
    print_series("Object-store grid diff — probe batching",
                 ["quantity", "value", ""],
                 [("keys probed", len(keys), "64 published, 64 missing"),
                  ("injected latency (ms)", latency_s * 1e3, "per call"),
                  ("per-key probes (s)", round(per_key_s, 4),
                   f"{per_key_calls} round trips"),
                  ("batched diff (s)", round(batched_s, 4),
                   f"{batched_calls} round trips"),
                  ("speedup", f"{speedup:.0f}x", ""),
                  ("results identical", identical, "")])
    emit_json("cache_probe", {
        "keys": len(keys),
        "latency_ms": latency_s * 1e3,
        "per_key_s": per_key_s,
        "per_key_calls": per_key_calls,
        "batched_s": batched_s,
        "batched_calls": batched_calls,
        "expected_pages": expected_pages,
        "speedup": speedup,
        "results_identical": identical,
    })

    assert identical
    assert batched_calls <= expected_pages
    assert speedup >= 5.0
