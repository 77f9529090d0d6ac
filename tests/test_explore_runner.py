"""Integration tests for the batch sweep runner (repro.explore.runner)."""

import re

import pytest

from repro.explore import (
    SweepSpec,
    run_sweep,
    sweep_report_json,
    sweep_report_markdown,
    sweep_table_markdown,
)
from repro.explore.runner import warm_shared_stages
from repro.explore.store import ArtifactCAS
from repro.flow import ArtifactStore


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("sweep-cache")


@pytest.fixture(scope="module")
def two_point_sweep():
    return SweepSpec(output_bits=(12, 14))


@pytest.fixture(scope="module")
def cold_store():
    return ArtifactStore()


@pytest.fixture(scope="module")
def cold_result(two_point_sweep, cache_dir, cold_store):
    return run_sweep(two_point_sweep, jobs=1, cache_dir=cache_dir,
                     store=cold_store)


class TestRunSweep:
    def test_results_in_expansion_order(self, cold_result):
        assert [p.label for p in cold_result.points] == ["w12", "w14"]

    def test_cold_run_misses_everything(self, cold_result):
        assert cold_result.cache_hits == 0
        assert cold_result.cache_misses == 2
        assert all(not p.from_cache for p in cold_result.points)

    def test_record_metrics(self, cold_result):
        for point in cold_result.points:
            assert point.meets_spec
            assert point.power_mw > 0
            assert point.area_mm2 > 0
            assert point.gate_count > 0
            assert point.snr_db > 60.0  # linear-model estimate
            assert point.record["simulated_snr_db"] is None

    def test_output_bits_axis_changes_the_design(self, cold_result):
        w12, w14 = cold_result.points
        assert w12.record["spec"]["decimator"]["output_bits"] == 12
        assert w14.record["spec"]["decimator"]["output_bits"] == 14
        assert w12.gate_count < w14.gate_count

    def test_warm_run_hits_cache_and_is_identical(self, two_point_sweep,
                                                  cache_dir, cold_result):
        warm = run_sweep(two_point_sweep, jobs=1, cache_dir=cache_dir)
        assert warm.cache_hits == 2
        assert warm.cache_misses == 0
        assert all(p.from_cache for p in warm.points)
        assert sweep_report_json(warm) == sweep_report_json(cold_result)
        assert sweep_report_markdown(warm) == sweep_report_markdown(cold_result)

    def test_changed_flow_settings_miss_the_cache(self, two_point_sweep,
                                                  cache_dir, cold_result):
        changed = run_sweep(two_point_sweep, jobs=1, cache_dir=cache_dir,
                            snr_samples=8192, include_snr=False)
        # include_snr is False either way, but snr_samples is part of the
        # key, so the conservative behaviour is a miss.
        assert changed.cache_hits == 0
        assert changed.cache_misses == 2

    def test_no_cache_dir_disables_caching(self, two_point_sweep):
        result = run_sweep(SweepSpec(), jobs=1, cache_dir=None)
        assert result.cache_hits == 0
        assert len(result) == 1

    def test_parallel_workers_match_serial(self, two_point_sweep, tmp_path):
        parallel = run_sweep(two_point_sweep, jobs=2,
                             cache_dir=tmp_path / "par")
        serial = run_sweep(two_point_sweep, jobs=1,
                           cache_dir=tmp_path / "ser")
        assert sweep_report_json(parallel) == sweep_report_json(serial)

    @pytest.mark.parametrize("jobs", [1, 2, 4],
                             ids=["inline", "process", "process-4"])
    def test_every_executor_matches_inline(self, two_point_sweep, tmp_path,
                                           jobs, cold_result, cold_store):
        store = ArtifactStore()
        result = run_sweep(two_point_sweep, jobs=jobs,
                           cache_dir=tmp_path / f"jobs{jobs}", store=store)
        assert result.metadata["executor"] == ("inline" if jobs == 1
                                               else "process")
        assert sweep_report_json(result) == sweep_report_json(cold_result)
        # Stage-reuse telemetry does not change with the executor either:
        # the warm phase's lookups are not counted twice.
        stats = result.metadata["artifact_store"]
        inline_stats = cold_result.metadata["artifact_store"]
        assert ((stats["hits"], stats["misses"])
                == (inline_stats["hits"], inline_stats["misses"]))
        # The parent holds every artifact the inline run holds, except the
        # per-chain stages the pool workers compute in their own copies of
        # the store (here the two chains' RTL).
        worker_stages = () if jobs == 1 else ("chain-rtl", "snr-leg",
                                              "hogenauer-activity")
        expected = {key for key in cold_store._data
                    if key[0] not in worker_stages}
        assert set(store._data) == expected
        assert stats["entries"] == len(expected)
        assert inline_stats["entries"] - len(expected) == (0 if jobs == 1
                                                           else 2)

    def test_jobs_one_never_creates_a_pool(self, two_point_sweep, monkeypatch):
        import repro.explore.runner as runner_module

        def boom(*args, **kwargs):
            raise AssertionError("jobs=1 must run inline, without a pool")

        monkeypatch.setattr(runner_module, "ProcessPoolExecutor", boom)
        result = run_sweep(two_point_sweep, jobs=1)
        assert result.metadata["executor"] == "inline"
        assert len(result) == 2

    def test_single_miss_runs_inline_even_with_many_jobs(
            self, two_point_sweep, cache_dir, cold_result, monkeypatch):
        import repro.explore.runner as runner_module

        def boom(*args, **kwargs):
            raise AssertionError("at most one pending point must run inline")

        monkeypatch.setattr(runner_module, "ProcessPoolExecutor", boom)
        result = run_sweep(SweepSpec(), jobs=8)
        assert result.metadata["executor"] == "inline"
        cached = run_sweep(two_point_sweep, jobs=8, cache_dir=cache_dir)
        assert cached.cache_misses == 0
        assert cached.metadata["executor"] == "inline"

    def test_jobs_below_one_rejected(self, two_point_sweep):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            run_sweep(two_point_sweep, jobs=0)

    def test_shared_stages_are_reused_across_points(self, two_point_sweep):
        result = run_sweep(two_point_sweep, jobs=1)
        store = result.metadata["artifact_store"]
        # The two points differ only in output word width, so the halfband,
        # equalizer and mask-verification artifacts are all shared.
        assert store["hits"] >= 3

    def test_run_progress_lines_count_misses(self, two_point_sweep):
        lines = []
        run_sweep(two_point_sweep, jobs=1, progress=lines.append)
        # "[run i/N] label (elapsed Xs, eta ~Ys)" — timing varies, the
        # prefix and the shape of the timing suffix do not.
        pattern = re.compile(
            r"^\[run (\d)/2\] (w1[24]) "
            r"\(elapsed \d+\.\ds, eta ~\d+\.\ds\)$")
        matches = [pattern.match(line) for line in lines]
        assert all(matches)
        assert [(m.group(1), m.group(2)) for m in matches] == [
            ("1", "w12"), ("2", "w14")]

    def test_unknown_library_rejected_before_running(self, two_point_sweep):
        with pytest.raises(ValueError, match="unknown standard-cell library"):
            run_sweep(two_point_sweep, library="generic-7nm")

    def test_progress_callback_sees_every_point(self, two_point_sweep,
                                                cache_dir, cold_result):
        lines = []
        run_sweep(two_point_sweep, jobs=1, cache_dir=cache_dir,
                  progress=lines.append)
        assert len(lines) == 2
        assert all(line.startswith("[cache]") for line in lines)


    def test_cache_hits_count_this_run_only(self, two_point_sweep, tmp_path):
        cache = ArtifactCAS(tmp_path / "shared")
        hits = [run_sweep(two_point_sweep, jobs=1, cache_dir=cache).cache_hits
                for _ in range(3)]
        assert hits == [0, 2, 2]


class TestResume:
    def test_resume_completes_a_partial_grid(self, tmp_path):
        small = SweepSpec(output_bits=(12,))
        run_sweep(small, jobs=1, cache_dir=tmp_path)
        # Growing the grid re-runs only the new points.
        grown = run_sweep(SweepSpec(output_bits=(12, 14)), jobs=1,
                          cache_dir=tmp_path)
        assert grown.cache_hits == 1
        assert grown.cache_misses == 1

    def test_resume_false_recomputes_everything(self, tmp_path):
        small = SweepSpec(output_bits=(12,))
        run_sweep(small, jobs=1, cache_dir=tmp_path)
        cold = run_sweep(small, jobs=1, cache_dir=tmp_path, resume=False)
        assert cold.cache_hits == 0
        assert cold.cache_misses == 1
        # The recomputation republishes identical content: a subsequent
        # resumed run is a pure hit with a byte-identical report.
        warm = run_sweep(small, jobs=1, cache_dir=tmp_path)
        assert warm.cache_hits == 1
        assert sweep_report_json(warm) == sweep_report_json(cold)


#: Stage keys the two earlier warm policies (one for sweeps, one for
#: scenario suites) left in a fresh store, recorded once before they were
#: merged into :func:`warm_shared_stages`.
SCENARIO_WARM_KEYS = [
    ("equalizer-design",
     "bc6e3a59a50df4d10fa5f1dc6fa8ffc2a834fa2f1976f2d9632b8d650f409b87"),
    ("halfband-design",
     "5bd7df49d822d8cb1e4e7de867e887e41d5e8e52684735e7ef6fb83e6af5111d"),
    ("verify-mask",
     "bdc201637e90022be98e0186a1286a7b52fe6b6c9fddefc92707edc95095bfb9"),
]
SNR_GRID_WARM_KEYS = [
    ("equalizer-design",
     "2e4b2c1a2347f1d7ebbc11f209ab89a726b667ceb1531e6789d35f477919d4d1"),
    ("equalizer-design",
     "67feccb086cbcd76c69022bbb1ac48a214ef7ca02a1d7b0e72a29e5767c159f7"),
    ("equalizer-design",
     "70abc149b69d65b233a47f7fa7b875a610ff96e120aba3180d10450b91eb82df"),
    ("equalizer-design",
     "85666177f8cbffc227c33e51b276d64f95daef5d646fbe3acd77ae933bc495fe"),
    ("equalizer-design",
     "a9deccf41ec91bae6e046b7c2659e845b26f1abf40530c8924924feb061d7461"),
    ("equalizer-design",
     "f05cf28f95c727784ff369117d2997ba3868e197962fe0ae9f3bdbbb57101d79"),
    ("halfband-design",
     "188e99883db85498ad32d6a9ba73d6ee69250a09e838dd357f09e85ff80d1d8e"),
    ("halfband-design",
     "1d6bca1fa161b0bcd787fbbbf6c8608ed2bc56104df02c5ab3207c8895947ae8"),
    ("halfband-design",
     "305569677c60e83b7d6ff0c8e2c81ba1535102a804f05250a8bf0bad7b64df06"),
    ("halfband-design",
     "bc138d4fda7315aadb1ce1a6d59af919ae4e25829a7d6f424ea2049a43e54e01"),
    ("halfband-design",
     "c469dbb93c4487bad9abdb580dc6a058a16eb367727502e04f40cedfd099ffd6"),
    ("halfband-design",
     "c8da4a1eb2c019b03e20ee86eb893c630a57526ff65ee9f305d496d01b6c9a56"),
    ("halfband-design",
     "ce14269aada136dca0f3fd8df1e415d3c02bbeb35d70a5f467c5fad7e5424fc7"),
    ("halfband-design",
     "d5ce60768569b821fcde18a1e0ec605a4434d3a9dd5f237872d1d683b8bda10c"),
    ("modulator-codes",
     "026c3c0c788ebbe59a24dad897be861cefed9e5fe1667cb0972b5fb76b75baee"),
    ("verify-mask",
     "23cf10eada291ac5d91c3eef4ba2fb137fcb8144fc9f04a2cc481224313994d2"),
    ("verify-mask",
     "65cf7b80e5d6886b41d9b33df30703363140f94da78c515c104ba23ce9ef9dc3"),
    ("verify-mask",
     "6bb72233c990212c3e9d94d2e5b4b00a96023eb073ddde3595999111679e9764"),
    ("verify-mask",
     "b32a3977a470d9bb9ff14aa866d8bd78b5f0358cce2c59c133a670b61523a076"),
    ("verify-mask",
     "b686c4027e15b754b395160628c35680951fd8be6e27afe7a8ab37c804fed07b"),
    ("verify-mask",
     "f782b62af31bf79a8665c018340232fbca19b9e807c38ce06cc37e7a35852892"),
]


class TestWarmPolicy:
    @staticmethod
    def _warmed_keys(payloads):
        store = ArtifactStore()
        warm_shared_stages(payloads, store)
        return sorted(store._data)

    def test_registered_scenarios(self):
        from repro.scenarios import all_scenarios

        payloads = [s.payload() for s in all_scenarios()]
        assert len(payloads) == 10
        assert self._warmed_keys(payloads) == SCENARIO_WARM_KEYS

    def test_eighteen_point_snr_grid(self):
        # sweep --snr --output-bits 12 14 16 --halfband-att 80 85 90
        #       --halfband-coeff-bits 16 18
        sweep = SweepSpec(output_bits=(12, 14, 16),
                          halfband_attenuation_db=(80.0, 85.0, 90.0),
                          halfband_coefficient_bits=(16, 18))
        flow = {"include_snr": True, "snr_samples": 16384}
        payloads = [{**p.payload(), "flow": flow} for p in sweep.expand()]
        assert len(payloads) == 18
        assert self._warmed_keys(payloads) == SNR_GRID_WARM_KEYS

    @pytest.mark.parametrize("measure_activity", [True, False])
    def test_activity_is_warmed_for_design_groups(self, measure_activity):
        sweep = SweepSpec(output_bits=(12, 14))
        flow = {"include_snr": False, "snr_samples": 16384,
                "measure_activity": measure_activity}
        keys = self._warmed_keys(
            [{**p.payload(), "flow": flow} for p in sweep.expand()])
        activity = [key for key in keys if key[0] == "hogenauer-activity"]
        assert len(activity) == (1 if measure_activity else 0)

    @pytest.mark.parametrize("sweep,include_snr", [
        (SweepSpec(output_bits=(12, 14)), False),             # design group
        (SweepSpec(halfband_attenuation_db=(80.0, 85.0)), True),  # stimulus
    ], ids=["design-group", "stimulus-group"])
    def test_pooled_activity_sweep_reuses_as_much_as_inline(
            self, sweep, include_snr):
        # The CLI's "shared-stage reuses" count at --jobs 1 and --jobs 2.
        stats = {}
        for jobs in (1, 2):
            result = run_sweep(sweep, jobs=jobs, measure_activity=True,
                               include_snr=include_snr, snr_samples=4096,
                               store=ArtifactStore())
            assert result.metadata["executor"] == ("inline" if jobs == 1
                                                   else "process")
            store_stats = result.metadata["artifact_store"]
            stats[jobs] = (store_stats["hits"], store_stats["misses"])
        assert stats[1] == stats[2]

    def test_singletons_are_not_warmed(self):
        sweep = SweepSpec(halfband_attenuation_db=(80.0, 85.0))
        flow = {"include_snr": False, "snr_samples": 16384}
        assert self._warmed_keys(
            [{**p.payload(), "flow": flow} for p in sweep.expand()]) == []


class TestSweepReports:
    def test_table_has_one_row_per_point(self, cold_result):
        table = sweep_table_markdown(cold_result)
        rows = [line for line in table.splitlines() if line.startswith("| ")]
        assert len(rows) == 1 + len(cold_result)  # header + points

    def test_report_lists_axes_and_front(self, cold_result):
        report = sweep_report_markdown(cold_result)
        assert "Axis `output_bits`: 12, 14" in report
        assert "Pareto front" in report
        assert "w12" in report

    def test_json_report_is_canonical(self, cold_result):
        import json

        text = sweep_report_json(cold_result)
        payload = json.loads(text)
        assert payload["num_points"] == 2
        assert [p["pareto_rank"] for p in payload["points"]] == [1, 2]
        # Canonical: re-encoding the parsed payload reproduces the text.
        from repro.core import canonical_json
        assert canonical_json(payload) == text

    def test_ranked_orders_by_rank_then_power(self, cold_result):
        ranked = cold_result.ranked()
        assert [p.label for p in ranked] == ["w12", "w14"]
