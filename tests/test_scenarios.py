"""Tests for the scenario suite subsystem (registry, runner, goldens)."""

import json

import pytest

from repro.core.spec import paper_chain_spec
from repro.core.chain import ChainDesignOptions
from repro.scenarios import (
    DEFAULT_TOLERANCE,
    Scenario,
    Stimulus,
    TolerancePolicy,
    all_scenarios,
    check_record,
    diff_records,
    get_scenario,
    golden_path,
    load_golden,
    run_scenario,
    run_scenario_suite,
    scenario_names,
    scenarios_by_standard,
    write_golden,
)
from repro.scenarios.golden import FieldDiff
from repro.scenarios.registry import register_scenario, resolve_scenarios
from repro.explore.report import render_report_from_json
from repro.scenarios.report import (
    scenario_catalog_markdown,
    scenario_list_markdown,
    scenario_report_json,
    scenario_report_markdown,
    scenario_table_markdown,
)

#: A cheap scenario used by the execution tests (kHz-range chain).
CHEAP = "voice-8k"


class TestRegistry:
    def test_builtins_registered(self):
        names = scenario_names()
        assert len(names) == len(set(names))
        for expected in ["lte-20", "lte-10", "lte-5", "wcdma", "nb-iot",
                         "audio-48k", "audio-96k", "voice-8k",
                         "instrumentation-1m", "sdr-lte-30p72"]:
            assert expected in names

    def test_get_scenario_unknown_name(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("definitely-not-registered")

    def test_duplicate_registration_rejected(self):
        scenario = get_scenario("lte-20")
        with pytest.raises(ValueError, match="already registered"):
            register_scenario(scenario)

    def test_scenarios_by_standard(self):
        lte = scenarios_by_standard("lte")
        assert [s.name for s in lte] == ["lte-20", "lte-10", "lte-5"]

    def test_resolve_scenarios_forms(self):
        assert [s.name for s in resolve_scenarios(None)] == scenario_names()
        assert [s.name for s in resolve_scenarios("lte-20")] == ["lte-20"]
        mixed = resolve_scenarios(["lte-20", get_scenario("wcdma")])
        assert [s.name for s in mixed] == ["lte-20", "wcdma"]

    def test_specs_are_self_consistent(self):
        for scenario in all_scenarios():
            # ChainSpec validates in __post_init__; exercising the derived
            # properties catches inconsistent rates / non-power-of-two OSR.
            assert scenario.spec.total_decimation == scenario.spec.modulator.osr
            assert scenario.spec.num_halving_stages >= 2

    def test_cache_key_covers_stimulus(self):
        scenario = get_scenario(CHEAP)
        from dataclasses import replace

        modified = replace(scenario, name="tmp", stimulus=Stimulus(
            tone_hz=scenario.stimulus.tone_hz * 2.0,
            amplitude=scenario.stimulus.amplitude,
            n_samples=scenario.stimulus.n_samples))
        assert modified.cache_key() != scenario.cache_key()

    def test_payload_is_json_safe(self):
        payload = get_scenario("sdr-lte-30p72").payload()
        text = json.dumps(payload)
        assert json.loads(text) == payload
        assert payload["scenario"]["resample_rates_hz"] == [30.72e6]

    def test_summary_row(self):
        row = get_scenario("lte-20").summary_row()
        assert row["osr"] == 16
        assert row["output_bits"] == 14
        assert row["sample_rate_hz"] == pytest.approx(640e6)


class TestGoldenDiff:
    def test_equal_records_no_diffs(self):
        record = {"a": 1, "b": [1.0, {"c": True, "d": "x"}]}
        assert diff_records(record, json.loads(json.dumps(record))) == []

    def test_float_within_tolerance(self):
        assert diff_records({"x": 1.0}, {"x": 1.0 + 1e-9}) == []
        diffs = diff_records({"x": 1.0}, {"x": 1.0 + 1e-4})
        assert len(diffs) == 1 and diffs[0].path == "x"

    def test_int_float_equal_values_match(self):
        assert diff_records({"x": 2}, {"x": 2.0}) == []

    def test_integers_compare_exactly(self):
        # A one-gate regression on a million-gate design must not hide
        # inside the float tolerance.
        diffs = diff_records({"gate_count": 1500000}, {"gate_count": 1500001})
        assert len(diffs) == 1 and diffs[0].path == "gate_count"
        assert diff_records({"x": 3, "y": 2.5}, {"x": 3.0, "y": 2.5}) == []

    def test_bool_vs_number_is_type_diff(self):
        diffs = diff_records({"x": True}, {"x": 1})
        assert diffs and diffs[0].kind == "type"

    def test_missing_and_added_keys(self):
        diffs = diff_records({"a": 1, "b": 2}, {"a": 1, "c": 3})
        kinds = {d.path: d.kind for d in diffs}
        assert kinds == {"b": "missing", "c": "added"}

    def test_list_length_mismatch(self):
        diffs = diff_records({"v": [1, 2, 3]}, {"v": [1, 2]})
        assert [d.path for d in diffs] == ["v.2"]
        assert diffs[0].kind == "missing"

    def test_nested_paths(self):
        diffs = diff_records({"a": {"b": [{"c": 1}]}},
                             {"a": {"b": [{"c": 2}]}})
        assert [d.path for d in diffs] == ["a.b.0.c"]

    def test_tolerance_overrides_by_pattern(self):
        policy = TolerancePolicy(overrides={"summary.*_mw": (0.5, 0.0)})
        loose = diff_records({"summary": {"total_power_mw": 1.0}},
                             {"summary": {"total_power_mw": 1.2}}, policy)
        assert loose == []
        tight = diff_records({"summary": {"area": 1.0}},
                             {"summary": {"area": 1.2}}, policy)
        assert len(tight) == 1

    def test_field_diff_str(self):
        assert "golden" in str(FieldDiff("a.b", 1, 2))
        assert "no committed golden" in str(FieldDiff("", None, None,
                                                      "no-golden"))


class TestGoldenFiles:
    def test_every_scenario_has_committed_golden(self):
        for scenario in all_scenarios():
            assert golden_path(scenario.name).exists(), (
                f"scenario {scenario.name!r} has no committed golden record; "
                f"run 'python -m repro scenario run --all --write-goldens'")

    def test_load_golden_layout(self):
        record = load_golden("lte-20")
        assert record["summary"]["meets_spec"] is True
        assert record["scenario"] == "lte-20"
        assert record["stimulus"]["n_samples"] == 65536

    def test_missing_golden_returns_none_and_fails_check(self):
        assert load_golden("not-a-scenario") is None
        diffs = check_record("not-a-scenario", {})
        assert len(diffs) == 1 and diffs[0].kind == "no-golden"

    def test_write_golden_round_trip_and_determinism(self, tmp_path,
                                                     monkeypatch):
        import repro.scenarios.golden as golden_mod

        monkeypatch.setattr(golden_mod, "golden_dir", lambda: tmp_path)
        record = {"summary": {"meets_spec": True}, "value": 1.25}
        path = golden_mod.write_golden("unit", record)
        first = path.read_bytes()
        assert golden_mod.load_golden("unit") == record
        golden_mod.write_golden("unit", record)
        assert path.read_bytes() == first

    def test_sdr_golden_has_rate_converter_leg(self):
        record = load_golden("sdr-lte-30p72")
        legs = record["rate_converter"]
        assert len(legs) == 1
        leg = legs[0]
        assert leg["output_rate_hz"] == pytest.approx(30.72e6)
        assert leg["conversion_ratio"] == pytest.approx(40.0 / 30.72)
        assert leg["tone_peak_hz"] == pytest.approx(5e6, rel=0.02)
        assert leg["resources"]["multipliers"] == 12


class TestRateConverterLeg:
    """The Farrow leg is memoized: a repeated request runs nothing."""

    def test_repeat_is_a_store_hit_with_identical_bytes(self, monkeypatch):
        from repro.core.chain import DecimationChain
        from repro.flow import ArtifactStore
        from repro.scenarios.runner import execute_scenario_payload

        payload = get_scenario("sdr-lte-30p72").payload()
        fresh = json.dumps(execute_scenario_payload(payload), sort_keys=True)

        calls = []
        real = DecimationChain.process_fixed

        def counting(self, *args, **kwargs):
            calls.append(1)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(DecimationChain, "process_fixed", counting)
        store = ArtifactStore()
        first = execute_scenario_payload(payload, store)
        runs = len(calls)
        second = execute_scenario_payload(payload, store)
        assert len(calls) == runs
        assert json.dumps(first, sort_keys=True) == fresh
        assert json.dumps(second, sort_keys=True) == fresh
        assert len([key for key in store._data
                    if key[0] == "rate-converter-leg"]) == 1
        # Each caller gets its own copy.
        first["rate_converter"][0]["resources"]["multipliers"] = -1
        third = execute_scenario_payload(payload, store)
        assert json.dumps(third, sort_keys=True) == fresh


class TestRunner:
    def test_run_scenario_matches_golden(self):
        result = run_scenario(CHEAP)
        assert result.name == CHEAP
        assert result.meets_spec
        assert check_record(result.name, result.record) == []

    def test_suite_selection_order_and_results(self):
        suite = run_scenario_suite([CHEAP, "audio-48k"])
        assert [r.name for r in suite] == [CHEAP, "audio-48k"]
        assert len(suite) == 2
        assert set(suite.by_name()) == {CHEAP, "audio-48k"}
        for row in suite.metrics_rows():
            assert row["meets_spec"] is True

    def test_executors_byte_identical(self):
        inline = run_scenario_suite([CHEAP, "audio-48k", "audio-96k"],
                                    jobs=1)
        pooled = run_scenario_suite([CHEAP, "audio-48k", "audio-96k"],
                                    jobs=3)
        assert scenario_report_json(inline) == scenario_report_json(pooled)
        assert inline.metadata["executor"] == "inline"
        assert pooled.metadata["executor"] == "process"

    def test_cache_round_trip_byte_identical(self, tmp_path):
        cache_dir = tmp_path / "cache"
        lines = []
        cold = run_scenario_suite([CHEAP], cache_dir=cache_dir,
                                  progress=lines.append)
        warm = run_scenario_suite([CHEAP], cache_dir=cache_dir,
                                  progress=lines.append)
        assert cold.cache_misses == 1 and warm.cache_hits == 1
        assert warm.results[0].from_cache
        assert scenario_report_json(cold) == scenario_report_json(warm)
        assert lines[0].startswith(f"[run 1/1] {CHEAP} (elapsed ")
        assert lines[1] == f"[cache] {CHEAP}"
        assert len(lines) == 2

    def test_cache_hits_count_this_run_only(self, tmp_path):
        from repro.explore.store import ArtifactCAS

        cache = ArtifactCAS(tmp_path / "shared")
        hits = [run_scenario_suite([CHEAP, "audio-48k"],
                                   cache_dir=cache).cache_hits
                for _ in range(3)]
        assert hits == [0, 2, 2]

    def test_scheme_cache_dir_is_rejected_before_any_work(self, tmp_path,
                                                          monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ValueError, match="unknown store scheme 'mem'"):
            run_scenario_suite([CHEAP], cache_dir="mem://scenario-store-spec")
        assert not list(tmp_path.iterdir())  # no local "mem:" directory

    def test_shared_design_reuses_stages(self):
        # lte-20 and sdr-lte-30p72 share spec+options: the suite's shared
        # store must design/verify the chain once.
        suite = run_scenario_suite(["sdr-lte-30p72"])
        store = suite.metadata["artifact_store"]
        assert store["misses"] > 0

    def test_full_registry_matches_goldens(self):
        # The acceptance gate: every registered scenario reproduces its
        # committed golden record exactly on this machine.
        suite = run_scenario_suite()
        for result in suite:
            diffs = check_record(result.name, result.record,
                                 DEFAULT_TOLERANCE)
            assert diffs == [], (
                f"{result.name}: {[str(d) for d in diffs[:5]]}")


class TestReports:
    def test_report_json_round_trip(self):
        suite = run_scenario_suite([CHEAP])
        text = scenario_report_json(suite)
        assert render_report_from_json(text, "json") == text
        markdown = render_report_from_json(text, "markdown")
        assert markdown == scenario_report_markdown(suite)
        assert CHEAP in markdown

    def test_report_rejects_unknown_schema_and_format(self):
        with pytest.raises(ValueError, match="schema"):
            render_report_from_json('{"schema": 99}')
        suite = run_scenario_suite([CHEAP])
        with pytest.raises(ValueError, match="format"):
            render_report_from_json(scenario_report_json(suite), "yaml")

    def test_table_lists_all_rows(self):
        suite = run_scenario_suite([CHEAP, "audio-48k"])
        table = scenario_table_markdown(suite)
        assert CHEAP in table and "audio-48k" in table

    def test_list_markdown_covers_registry(self):
        listing = scenario_list_markdown()
        for name in scenario_names():
            assert name in listing

    def test_catalog_covers_registry_and_goldens(self):
        catalog = scenario_catalog_markdown()
        for scenario in all_scenarios():
            assert f"`{scenario.name}`" in catalog
        assert "Golden record" in catalog
        assert "scenario run lte-20" in catalog


class TestScenarioFlowIntegration:
    def test_explicit_stimulus_threads_through_flow(self):
        # The scenario stimulus must reach the SNR leg: a different
        # amplitude produces a different simulated SNR.
        from repro.flow import run_design_flow

        scenario = get_scenario(CHEAP)
        base = run_design_flow(
            spec=scenario.spec, options=scenario.options,
            include_snr_simulation=True, snr_samples=8192,
            measure_activity=False,
            snr_tone_hz=scenario.stimulus.tone_hz,
            snr_amplitude=scenario.stimulus.amplitude)
        quiet = run_design_flow(
            spec=scenario.spec, options=scenario.options,
            include_snr_simulation=True, snr_samples=8192,
            measure_activity=False,
            snr_tone_hz=scenario.stimulus.tone_hz,
            snr_amplitude=scenario.stimulus.amplitude * 0.25)
        assert base.simulated_snr_db != quiet.simulated_snr_db

    def test_custom_scenario_runs_without_golden(self):
        scenario = Scenario(
            name="unit-custom",
            title="unit test scenario",
            standard="test",
            description="paper chain, no SNR leg",
            spec=paper_chain_spec(),
            options=ChainDesignOptions(),
            stimulus=Stimulus(tone_hz=5e6, amplitude=0.5, n_samples=4096),
            include_snr=False,
        )
        result = run_scenario(scenario)
        assert result.record["simulated_snr_db"] is None
        assert result.record["rate_converter"] == []
        assert result.record["stimulus"]["tone_hz"] == pytest.approx(5e6)
        assert result.snr_db == pytest.approx(
            result.record["predicted_snr_db"])
