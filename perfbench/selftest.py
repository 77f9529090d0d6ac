"""Tests of the benchmark itself (not part of the repository's tier-1 suite).

Run from the repository root::

    python3 -m pytest perfbench/selftest.py -q

The layer-coverage test runs every workload traced for one short pass
(about a minute in all).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import threading
import types

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import harness  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402


def _stub_context(seed: int, tmp_path) -> types.SimpleNamespace:
    base = tempfile.mkdtemp(dir=tmp_path)
    counter = iter(range(10**6))

    def path(stem):
        return os.path.join(base, f"{stem}-{next(counter)}")

    return types.SimpleNamespace(seed=seed, path=path)


# ----------------------------------------------------------------------
# Seed determinism of the generated inputs
# ----------------------------------------------------------------------
def test_serve_requests_repeat_per_seed():
    assert workloads.serve_requests(7) == workloads.serve_requests(7)
    assert workloads.serve_requests(7) != workloads.serve_requests(8)


def test_serve_requests_fix_length_quotas_and_first_occurrences():
    quotas = workloads.serve_quotas()
    assert sum(quotas) == workloads.SERVE_REQUESTS
    assert quotas == sorted(quotas, reverse=True) and min(quotas) >= 1
    for seed in range(5):
        requests = workloads.serve_requests(seed)
        assert len(requests) == workloads.SERVE_REQUESTS
        counts = {}
        for argv in requests:
            counts[tuple(argv)] = counts.get(tuple(argv), 0) + 1
        assert len(counts) == len(workloads.serve_catalog())
        assert sorted(counts.values(), reverse=True) == quotas


def test_robustness_seed_is_derived_from_the_run_seed(tmp_path):
    mc = [workloads.RobustnessMC(_stub_context(seed, tmp_path))
          for seed in (5, 5, 6)]
    assert mc[0].mc_seed == mc[1].mc_seed != mc[2].mc_seed
    argv = mc[0].next_args()
    assert argv[argv.index("--seed") + 1] == str(mc[0].mc_seed)


# ----------------------------------------------------------------------
# Nearest-rank percentile
# ----------------------------------------------------------------------
def test_nearest_rank_percentile():
    values = list(range(1, 11))
    assert harness.percentile(values, 0.5) == 5
    assert harness.percentile(values, 0.9) == 9
    assert harness.percentile(reversed(list(range(1, 21))), 0.9) == 18
    assert harness.percentile([4.2], 0.9) == 4.2
    assert harness.percentile([1, 2, 3, 4], 0.5) == 2
    with pytest.raises(ValueError):
        harness.percentile([], 0.5)


# ----------------------------------------------------------------------
# Self-time arithmetic
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_on_a_synthetic_call_tree():
    clock = FakeClock()
    recorder = layers.Recorder(clock=clock)

    def leaf():
        clock.advance(1.0)

    def inner_a():
        clock.advance(0.5)
        leaf_w()
        clock.advance(1.5)

    def inner_b():
        clock.advance(2.0)

    def outer():
        clock.advance(1.0)
        inner_a_w()
        inner_b_w()
        clock.advance(4.0)

    leaf_w = recorder.wrap("leaf", leaf)
    inner_a_w = recorder.wrap("inner_a", inner_a)
    inner_b_w = recorder.wrap("inner_b", inner_b)
    recorder.wrap("outer", outer)()

    self_s = {name: entry["self_s"] for name, entry in recorder.layers.items()}
    assert self_s == {"leaf": 1.0, "inner_a": 2.0, "inner_b": 2.0,
                      "outer": 5.0}
    assert recorder.roots_s == 10.0
    assert recorder.self_total_s() == recorder.roots_s


def test_self_time_survives_exceptions_and_counts_calls():
    clock = FakeClock()
    recorder = layers.Recorder(clock=clock)

    def fails():
        clock.advance(1.0)
        raise RuntimeError("boom")

    fails_w = recorder.wrap("fails", fails)

    def outer():
        clock.advance(1.0)
        for _ in range(2):
            with pytest.raises(RuntimeError):
                fails_w()

    recorder.wrap("outer", outer)()
    assert recorder.layers["fails"]["calls"] == 2
    assert recorder.layers["fails"]["self_s"] == 2.0
    assert recorder.layers["outer"]["self_s"] == 1.0
    assert recorder.roots_s == 3.0


def test_roots_that_reach_a_kernel_count_as_computing():
    recorder = layers.Recorder(clock=FakeClock())
    kernel = recorder.wrap("dsm.ntf.synthesize_ntf", lambda: None)
    lookup = recorder.wrap("explore.store.ArtifactCAS.get", lambda: None)

    def computes():
        lookup()
        kernel()

    recorder.wrap(layers.MAIN, computes)()
    recorder.wrap(layers.MAIN, lookup)()
    assert (recorder.roots, recorder.computing_roots) == (2, 1)


def test_roots_are_per_thread():
    recorder = layers.Recorder()
    barrier = threading.Barrier(2)

    def work():
        barrier.wait()
        sum(range(20000))

    wrapped = recorder.wrap("work", work)
    threads = [threading.Thread(target=wrapped) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert recorder.layers["work"]["calls"] == 2
    assert recorder.self_total_s() == pytest.approx(recorder.roots_s)


def test_scipy_signal_import_sums_top_level_entries():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |     scipy.signal._a",
        "import time:        20 |         30 |   scipy.signal._b",
        "import time:        40 |         40 |     other",
        "import time:         5 |         45 |   scipy.signal._c",
        "import time:         1 |        100 | repro.filters",
    ])
    assert workloads.scipy_signal_import_s(log) == pytest.approx(75e-6)


# ----------------------------------------------------------------------
# Binding sites and layer coverage
# ----------------------------------------------------------------------
def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def test_traced_child_wraps_names_imported_by_name(tmp_path):
    dump = tmp_path / "layers.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "layers.py"), str(dump),
         "scenario", "run", "lte-5", "--quiet"],
        cwd=tmp_path, env=_child_env(), capture_output=True, text=True,
        timeout=170)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(dump.read_text())
    calls = {name: entry["calls"] for name, entry in data["layers"].items()}
    # run_scenario_suite calls execute_payloads, which it imported by name.
    assert calls["explore.runner.execute_payloads"] == 1
    assert calls["scenarios.runner.execute_scenario_payload"] == 1
    assert calls["dsm.ntf.synthesize_ntf"] >= 1
    total = sum(entry["self_s"] for entry in data["layers"].values())
    assert total == pytest.approx(data["roots_s"])
    # The wall is timed apart from the recorder; only wrapper cost differs.
    assert total == pytest.approx(data["wall_s"], rel=0.01)


@pytest.mark.parametrize("workload", sorted(workloads.COVERAGE))
def test_every_listed_layer_records_a_call(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    metrics = result["metrics"]
    for layer in workloads.COVERAGE[workload]:
        measured = [value["value"] for name, value in metrics.items()
                    if name.startswith(layer + ".")]
        assert measured and max(measured) > 0, layer


# ----------------------------------------------------------------------
# BENCHMARK.json agrees with the code
# ----------------------------------------------------------------------
def test_benchmark_json_names_every_metric_and_workload():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    # scenario-suite runs by hand only (see README.md): too unsteady to gate.
    assert {w["name"] for w in spec["workloads"]} == \
        set(workloads.WORKLOADS) - {"scenario-suite"}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        workloads.PER_LAYER
