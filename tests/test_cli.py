"""Smoke tests for the ``python -m repro`` command-line interface."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import run_command

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_cli(*args, cwd=None, check=True):
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, env=env,
        cwd=str(cwd or REPO_ROOT), timeout=300,
    )
    if check and proc.returncode != 0:
        raise AssertionError(
            f"CLI {' '.join(args)} exited {proc.returncode}:\n"
            f"stdout:\n{proc.stdout}\nstderr:\n{proc.stderr}")
    return proc


def run_inproc(*args):
    """Run one CLI invocation in this process; ``(exit code, stdout,
    stderr)``."""
    out, err = io.StringIO(), io.StringIO()
    code = run_command(list(args), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


#: One run per report kind, saved by the ``saved_reports`` fixture.
SAVED_RUNS = {
    "sweep": ("sweep", "--output-bits", "12", "14", "--no-cache",
              "--jobs", "1"),
    "scenario": ("scenario", "run", "voice-8k"),
    "robustness": ("robustness", "run", "lte-20", "--samples", "8",
                   "--stimulus-samples", "2048"),
}


@pytest.fixture(scope="module")
def saved_reports(tmp_path_factory):
    """The ``--json`` and ``--markdown`` files of each run kind, keyed by
    kind and then by ``report --format`` value."""
    directory = tmp_path_factory.mktemp("saved-reports")
    saved = {}
    for kind, argv in SAVED_RUNS.items():
        paths = {"json": directory / f"{kind}.json",
                 "markdown": directory / f"{kind}.md"}
        code, _, err = run_inproc(*argv, "--quiet",
                                  "--json", str(paths["json"]),
                                  "--markdown", str(paths["markdown"]))
        assert code == 0, err
        saved[kind] = paths
    return saved


def assert_report_rerenders_to_file(saved, tmp_path, fmt):
    """``report FILE --format FMT --out OUT`` writes exactly the bytes of
    the run's own report file in that format."""
    out = tmp_path / "rerendered"
    code, stdout, stderr = run_inproc("report", str(saved["json"]),
                                      "--format", fmt, "--out", str(out))
    assert (code, stdout, stderr) == (0, "", "")
    assert out.read_bytes() == saved[fmt].read_bytes()


class TestHelp:
    def test_top_level_help(self):
        proc = run_cli("--help")
        assert "design" in proc.stdout
        assert "sweep" in proc.stdout

    @pytest.mark.parametrize("command",
                             ["design", "verify", "sweep", "scenario",
                              "report", "cache"])
    def test_subcommand_help(self, command):
        proc = run_cli(command, "--help")
        assert command in proc.stdout or "usage" in proc.stdout

    def test_missing_command_errors(self):
        proc = run_cli(check=False)
        assert proc.returncode != 0


class TestDesignAndVerify:
    def test_design_prints_report_and_writes_record(self, tmp_path):
        record_path = tmp_path / "flow.json"
        proc = run_cli("design", "--no-activity", "--json", str(record_path))
        assert "Design summary" in proc.stdout
        assert "PASS" in proc.stdout
        record = json.loads(record_path.read_text(encoding="utf-8"))
        assert record["summary"]["meets_spec"] is True
        assert record["gate_count"] > 0

    def test_verify_passes_on_paper_spec(self):
        proc = run_cli("verify")
        assert "| Check |" in proc.stdout
        assert "Overall: PASS" in proc.stdout

    def test_verify_snr_counts_toward_the_verdict(self):
        proc = run_cli("verify", "--snr", "--snr-samples", "16384")
        assert "end-to-end SNR" in proc.stdout  # the SNR check is a table row
        assert "Overall: PASS" in proc.stdout

    def test_design_accepts_spec_json(self, tmp_path):
        from repro.core import paper_chain_spec

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(paper_chain_spec().to_dict()),
                             encoding="utf-8")
        proc = run_cli("design", "--no-activity", "--spec-json", str(spec_path))
        assert "Design summary" in proc.stdout

    def test_invalid_sinc_split_is_a_clean_error(self):
        proc = run_cli("design", "--sinc-orders-base", "four", check=False)
        assert proc.returncode != 0
        assert "invalid sinc order split" in proc.stderr


class TestSweepAndReport:
    def test_two_point_sweep_and_cached_rerun(self, tmp_path):
        cache = tmp_path / "cache"
        json_out = tmp_path / "report.json"
        args = ("sweep", "--output-bits", "12", "14", "--jobs", "2",
                "--cache-dir", str(cache), "--quiet",
                "--json", str(json_out))
        first = run_cli(*args, cwd=tmp_path)
        assert "2 cached" not in first.stderr
        payload = json.loads(json_out.read_text(encoding="utf-8"))
        assert payload["num_points"] == 2
        assert {p["label"] for p in payload["points"]} == {"w12", "w14"}

        rerun_out = tmp_path / "report2.json"
        second = run_cli("sweep", "--output-bits", "12", "14", "--jobs", "2",
                         "--cache-dir", str(cache), "--quiet",
                         "--json", str(rerun_out), cwd=tmp_path)
        assert "2 cached, 0 executed" in second.stderr
        assert rerun_out.read_bytes() == json_out.read_bytes()

    def test_report_rerenders_saved_json(self, saved_reports, tmp_path):
        assert_report_rerenders_to_file(saved_reports["sweep"], tmp_path,
                                        "markdown")

    def test_report_rejects_unknown_schema(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": 999}', encoding="utf-8")
        code, _, stderr = run_inproc("report", str(bad))
        assert code == 2
        assert stderr == (f"error: invalid report file {bad}: unsupported "
                          f"report schema 999 (expected 1)\n")

    def test_jobs_and_executor_flags(self, tmp_path):
        json_a = tmp_path / "a.json"
        json_b = tmp_path / "b.json"
        pooled = run_cli("sweep", "--output-bits", "12", "14", "--jobs", "2",
                         "--no-cache", "--quiet", "--json", str(json_a),
                         cwd=tmp_path)
        serial = run_cli("sweep", "--output-bits", "12", "14", "--jobs", "1",
                         "--no-cache", "--quiet", "--json", str(json_b),
                         cwd=tmp_path)
        assert json_a.read_bytes() == json_b.read_bytes()
        # --jobs alone picks the executor.
        assert "(process executor, 2 jobs," in pooled.stderr
        assert "(inline executor, 1 jobs," in serial.stderr

    def test_progress_lines_show_point_counts(self, tmp_path):
        proc = run_cli("sweep", "--output-bits", "12", "14", "--jobs", "1",
                       "--no-cache", cwd=tmp_path)
        assert "[run 1/2]" in proc.stderr
        assert "[run 2/2]" in proc.stderr


class TestScenarioCommand:
    def test_list_shows_registry(self):
        proc = run_cli("scenario", "list")
        assert "lte-20" in proc.stdout
        assert "sdr-lte-30p72" in proc.stdout

    def test_run_writes_reports_and_caches(self, tmp_path):
        cache = tmp_path / "cache"
        json_out = tmp_path / "suite.json"
        md_out = tmp_path / "suite.md"
        first = run_cli("scenario", "run", "voice-8k", "--quiet",
                        "--cache-dir", str(cache),
                        "--json", str(json_out), "--markdown", str(md_out),
                        cwd=tmp_path)
        assert "1 scenarios" in first.stderr
        payload = json.loads(json_out.read_text(encoding="utf-8"))
        assert payload["num_scenarios"] == 1
        assert payload["scenarios"][0]["name"] == "voice-8k"
        assert "voice-8k" in md_out.read_text(encoding="utf-8")

        rerun_out = tmp_path / "suite2.json"
        second = run_cli("scenario", "run", "voice-8k", "--quiet",
                         "--cache-dir", str(cache),
                         "--json", str(rerun_out), cwd=tmp_path)
        assert "1 cached, 0 executed" in second.stderr
        assert rerun_out.read_bytes() == json_out.read_bytes()

    def test_report_rerenders_saved_json(self, saved_reports, tmp_path):
        assert_report_rerenders_to_file(saved_reports["scenario"], tmp_path,
                                        "markdown")

    def test_check_passes_against_goldens(self, tmp_path):
        proc = run_cli("scenario", "check", "voice-8k", "audio-48k",
                       "--quiet", cwd=tmp_path)
        assert "[ok]   voice-8k" in proc.stdout
        assert "OK: 2 scenario(s) match their golden records" in proc.stdout

    def test_check_fails_cleanly_on_unknown_scenario(self):
        proc = run_cli("scenario", "check", "no-such-scenario", check=False)
        assert proc.returncode != 0
        assert "unknown scenario(s): no-such-scenario" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestCacheCommand:
    def test_stats_and_prune(self, tmp_path):
        cache = tmp_path / "cache"
        run_cli("sweep", "--output-bits", "12", "14", "--jobs", "1",
                "--cache-dir", str(cache), "--quiet", cwd=tmp_path)
        stats = run_cli("cache", "stats", "--cache-dir", str(cache))
        assert "Entries         : 2" in stats.stdout
        assert "Stale entries   : 0" in stats.stdout

        # A corrupt entry is stale and gets pruned; valid entries survive.
        (cache / "corrupt.json").write_text("not json", encoding="utf-8")
        prune = run_cli("cache", "prune", "--cache-dir", str(cache))
        assert "Removed 1 cache entries" in prune.stdout
        stats = run_cli("cache", "stats", "--cache-dir", str(cache))
        assert "Entries         : 2" in stats.stdout

        wipe = run_cli("cache", "prune", "--all", "--cache-dir", str(cache))
        assert "Removed 2 cache entries" in wipe.stdout


class TestCachePushPullCLI:
    """``repro cache push/pull``: store-to-store record exchange."""

    @staticmethod
    def _seed_store(root, keys):
        from repro.explore.store import ArtifactCAS

        cas = ArtifactCAS(root)
        for key in keys:
            cas.put(key, {"key": key, "payload": key[::-1]})
        return cas

    def test_push_transfers_and_repush_is_idempotent(self, tmp_path):
        src, dst = tmp_path / "src", tmp_path / "dst"
        self._seed_store(src, [f"{i:02x}{'a' * 62}" for i in range(3)])
        first = run_cli("cache", "push", str(src), str(dst), "--quiet")
        assert f"Pushed 3 record(s)" in first.stdout
        assert "0 already present, 0 filtered out" in first.stdout
        stats = run_cli("cache", "stats", "--cache-dir", str(dst))
        assert "Entries         : 3" in stats.stdout
        again = run_cli("cache", "push", str(src), str(dst), "--quiet")
        assert "Pushed 0 record(s) (0 bytes)" in again.stdout
        assert "3 already present" in again.stdout

    def test_pull_round_trip_is_byte_identical(self, tmp_path):
        src, dst = tmp_path / "src", tmp_path / "dst"
        keys = [f"{i:02x}{'b' * 62}" for i in range(2)]
        cas = self._seed_store(src, keys)
        proc = run_cli("cache", "pull", str(src), str(dst))
        assert "Pulled 2 record(s)" in proc.stdout
        assert proc.stderr.count("copied") == 2  # per-record progress
        from repro.explore.store import ArtifactCAS

        pulled = ArtifactCAS(dst)
        for key in keys:
            assert pulled.get_raw(key) == cas.get_raw(key)

    def test_dry_run_mutates_nothing(self, tmp_path):
        src, dst = tmp_path / "src", tmp_path / "dst"
        self._seed_store(src, ["ab" + "1" * 62, "cd" + "2" * 62])
        dst.mkdir()
        proc = run_cli("cache", "push", str(src), str(dst),
                       "--dry-run", "--quiet")
        assert "Would push 2 record(s)" in proc.stdout
        assert list(dst.iterdir()) == []  # nothing written
        stats = run_cli("cache", "stats", "--cache-dir", str(dst))
        assert "Entries         : 0" in stats.stdout

    def test_match_filters_keys(self, tmp_path):
        src, dst = tmp_path / "src", tmp_path / "dst"
        self._seed_store(src, ["ab" + "1" * 62, "ab" + "2" * 62,
                               "cd" + "3" * 62])
        proc = run_cli("cache", "push", str(src), str(dst),
                       "--match", "ab*", "--quiet")
        assert "Pushed 2 record(s)" in proc.stdout
        assert "1 filtered out" in proc.stdout

    def test_summary_line_format_is_pinned(self, tmp_path):
        import re

        src, dst = tmp_path / "src", tmp_path / "dst"
        self._seed_store(src, ["ab" + "9" * 62])
        proc = run_cli("cache", "push", str(src), str(dst), "--quiet")
        assert re.fullmatch(
            rf"Pushed 1 record\(s\) \(\d+ bytes\) from {re.escape(str(src))} "
            rf"to {re.escape(str(dst))}; 0 already present, 0 filtered out",
            proc.stdout.strip())

    def test_missing_source_is_a_clean_error(self, tmp_path):
        proc = run_cli("cache", "push", str(tmp_path / "nope"),
                       str(tmp_path / "dst"), "--quiet", check=False)
        assert proc.returncode == 2
        assert "error: store not found" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "dst").exists()  # failure wrote nothing

    def test_unknown_scheme_is_a_clean_error(self, tmp_path):
        proc = run_cli("cache", "push", "bogus://x",
                       str(tmp_path / "dst"), "--quiet", check=False)
        assert proc.returncode == 2
        assert "error: unknown store scheme 'bogus'" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_stats_and_prune_work_on_object_store_specs(self):
        """The maintenance verbs route through the backend scan, so a
        non-directory (mem://) store spec works end to end."""
        stats = run_cli("cache", "stats", "--cache-dir", "mem://cli-empty")
        assert "Cache directory : mem://cli-empty" in stats.stdout
        assert "Entries         : 0" in stats.stdout
        prune = run_cli("cache", "prune", "--cache-dir", "mem://cli-empty")
        assert "Removed 0 cache entries from mem://cli-empty" in prune.stdout


class TestRobustnessCLI:
    def test_run_writes_reports_and_caches(self, tmp_path):
        json_path = tmp_path / "robustness.json"
        cache = tmp_path / "cache"
        args = ("robustness", "run", "lte-20", "--samples", "4",
                "--stimulus-samples", "2048", "--variants", "2",
                "--seed", "5", "--quiet", "--cache-dir", str(cache),
                "--json", str(json_path))
        proc = run_cli(*args)
        assert "| lte-20 |" in proc.stdout
        payload = json.loads(json_path.read_text(encoding="utf-8"))
        assert payload["num_runs"] == 1
        record = payload["runs"][0]["record"]
        assert len(record["samples"]) == 4
        assert "0 cached, 1 executed" in proc.stderr

        # Cached rerun reproduces the JSON report byte-identically.
        json2 = tmp_path / "robustness2.json"
        rerun = run_cli(*args[:-1], str(json2))
        assert "1 cached, 0 executed" in rerun.stderr
        assert json_path.read_bytes() == json2.read_bytes()

    def test_report_rerenders_saved_json(self, saved_reports, tmp_path):
        assert "| Scenario |" in \
            saved_reports["robustness"]["markdown"].read_text(encoding="utf-8")
        assert_report_rerenders_to_file(saved_reports["robustness"],
                                        tmp_path, "json")

    def test_disable_axes_flags(self, tmp_path):
        json_path = tmp_path / "robustness.json"
        run_cli("robustness", "run", "lte-20", "--samples", "3",
                "--stimulus-samples", "2048", "--quiet",
                "--disable", "dropout", "--disable", "corners",
                "--json", str(json_path))
        record = json.loads(
            json_path.read_text(encoding="utf-8"))["runs"][0]["record"]
        assert record["model"]["csd_dropout"] is None
        assert record["model"]["corners"] is None
        assert record["model"]["dither"] is not None

    def test_check_passes_against_committed_golden(self):
        proc = run_cli("robustness", "check")
        assert "matches its golden record" in proc.stdout


class TestArgumentValidation:
    """Bad inputs exit with code 2 and a one-line error (no tracebacks)."""

    @pytest.mark.parametrize("args", [
        ("sweep", "--jobs", "0", "--output-bits", "12"),
        ("sweep", "--jobs", "-1", "--output-bits", "12"),
        ("scenario", "run", "lte-20", "--jobs", "0"),
        ("scenario", "check", "lte-20", "--jobs", "-2"),
        ("robustness", "run", "lte-20", "--samples", "0"),
        ("robustness", "run", "lte-20", "--jobs", "0"),
        ("robustness", "run", "lte-20", "--variants", "0"),
        ("robustness", "check", "--jobs", "0"),
    ])
    def test_nonpositive_counts_are_clean_errors(self, args):
        proc = run_cli(*args, check=False)
        assert proc.returncode == 2
        assert proc.stderr.count("\n") <= 2
        assert "error:" in proc.stderr
        assert "must be at least 1" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("args, message", [
        (("report", "missing.json"), "report file not found"),
        (("report", "missing.json", "--format", "json"),
         "report file not found"),
        (("report", "missing.json", "--out", "out.md"),
         "report file not found"),
        (("design", "--spec-json", "missing.json"),
         "spec JSON file not found"),
        (("robustness", "run", "nope-20", "--samples", "2"),
         "unknown scenario(s): nope-20"),
        (("robustness", "run"), "name one or more scenarios"),
        (("scenario", "run", "lte-20", "--cache-dir", "foo://x"),
         "unknown store scheme 'foo'"),
    ])
    def test_missing_inputs_are_clean_errors(self, args, message):
        code, _, stderr = run_inproc(*args)
        assert code == 2
        lines = stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ")
        assert message in lines[0]

    @pytest.mark.parametrize("args, message", [
        (("robustness", "run", "lte-20", "--seed", "-1"),
         "--seed must be a non-negative integer"),
        (("robustness", "run", "lte-20", "--min-yield", "1.5"),
         "--min-yield must lie in (0, 1]"),
        (("robustness", "run", "lte-20", "--min-yield", "0"),
         "--min-yield must lie in (0, 1]"),
    ])
    def test_robustness_run_parameter_ranges(self, args, message):
        proc = run_cli(*args, check=False)
        assert proc.returncode == 2
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_too_short_stimulus_is_a_clean_error(self):
        proc = run_cli("robustness", "run", "lte-20", "--samples", "2",
                       "--stimulus-samples", "64", check=False)
        assert proc.returncode == 2
        assert "--stimulus-samples 64 is too short" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("args", [
        ("verify", "--snr", "--snr-samples", "0"),
        ("verify", "--snr", "--snr-samples", "-5"),
        ("verify", "--snr", "--snr-samples", "100"),
        ("design", "--snr", "--snr-samples", "127", "--no-activity"),
        ("design", "--spec", "audio", "--snr", "--snr-samples", "511"),
        ("sweep", "--snr", "--snr-samples", "0", "--output-bits", "12",
         "--no-cache"),
    ])
    def test_too_short_snr_record_is_a_clean_error(self, args):
        # In-process: the check runs before any design work.
        out, err = io.StringIO(), io.StringIO()
        assert run_command(list(args), stdout=out, stderr=err) == 2
        lines = err.getvalue().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: --snr-samples ")
        assert "is too short" in lines[0]

    def test_shortest_analyzable_snr_record_still_runs(self):
        # 128 samples = 8 outputs at the paper's decimation of 16: the
        # floor itself runs (it reports a meaningless SNR, but no error).
        out, err = io.StringIO(), io.StringIO()
        code = run_command(["verify", "--snr", "--snr-samples", "128",
                            "--no-activity"], stdout=out, stderr=err)
        assert code in (0, 1)
        assert "end-to-end SNR" in out.getvalue()

    def test_engine_flag_is_gone(self):
        out, err = io.StringIO(), io.StringIO()
        assert run_command(["verify", "--backend", "reference"],
                           stdout=out, stderr=err) == 2
        assert "unrecognized arguments: --backend" in err.getvalue()

    @pytest.mark.parametrize("verb", ["design", "verify", "sweep"])
    @pytest.mark.parametrize("content, detail", [
        (b"not json at all", "JSONDecodeError: Expecting value"),
        (b"\xff\xfe{}", "UnicodeDecodeError"),
        (b'{"bad": 1}', "KeyError: 'modulator'"),
        (b"[1]", "TypeError: list indices must be integers"),
        (b'{"modulator": {"order": 5}, "decimator": 1}',
         "must be a mapping"),
    ])
    def test_malformed_spec_json_is_a_clean_error(self, tmp_path, verb,
                                                  content, detail):
        bad = tmp_path / "spec.json"
        bad.write_bytes(content)
        out, err = io.StringIO(), io.StringIO()
        assert run_command([verb, "--spec-json", str(bad)],
                           stdout=out, stderr=err) == 2
        lines = err.getvalue().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: invalid spec JSON file {bad}: ")
        assert detail in lines[0]

    @pytest.mark.parametrize("flag, value", [
        ("--older-than-days", "-1"),
        ("--older-than-days", "nan"),
        ("--older-than-days", "inf"),
        ("--tmp-grace-s", "-5"),
        ("--tmp-grace-s", "nan"),
    ])
    def test_bad_prune_ages_leave_the_store_untouched(self, tmp_path, flag,
                                                      value):
        cache = tmp_path / "cache"
        out, err = io.StringIO(), io.StringIO()
        assert run_command(["sweep", "--output-bits", "12", "14", "--jobs",
                            "1", "--cache-dir", str(cache), "--quiet"],
                           stdout=out, stderr=err) == 0
        before = sorted(str(p) for p in cache.rglob("*"))
        assert before
        out, err = io.StringIO(), io.StringIO()
        assert run_command(["cache", "prune", "--cache-dir", str(cache),
                            flag, value], stdout=out, stderr=err) == 2
        lines = err.getvalue().splitlines()
        assert lines == [f"error: {flag} must be non-negative and finite "
                         f"(got {float(value)})"]
        assert sorted(str(p) for p in cache.rglob("*")) == before

    @pytest.mark.parametrize("content, message", [
        ('{"schema": 99}', "invalid report file"),
        ("not json at all", "invalid report file"),
        ('{"schema": 1, "num_points": 1, "points": [{}], "objectives": []}',
         "KeyError: 'pareto_rank'"),
        ('{"schema": 1}', "not a run report"),
        ('{"schema": 1, "points": [], "runs": []}', "not a run report"),
        ("[1]", "unsupported report schema None"),
        ('{"schema": 1, "num_points": 0, "points": [], "objectives": [], '
         '"flow_settings": [1]}', "AttributeError"),
        (b"\xff\xfe{}", "'utf-8' codec can't decode"),
        ("saved sweep", "KeyError: 'pareto_rank'"),
        ("saved scenario", "KeyError: 'record'"),
        ("saved robustness", "KeyError: 'name'"),
    ])
    def test_corrupt_report_files_are_clean_errors(self, tmp_path, request,
                                                   content, message):
        if content in ("saved sweep", "saved scenario", "saved robustness"):
            # A real saved report whose list entries lost every field.
            saved = request.getfixturevalue("saved_reports")
            payload = json.loads(saved[content.split()[1]]["json"]
                                 .read_text(encoding="utf-8"))
            key = next(k for k in ("points", "scenarios", "runs")
                       if k in payload)
            payload[key] = [{} for _ in payload[key]]
            content = json.dumps(payload)
        bad = tmp_path / "bad.json"
        bad.write_bytes(content if isinstance(content, bytes)
                        else content.encode("utf-8"))
        for fmt in ("markdown", "json"):
            code, stdout, stderr = run_inproc("report", str(bad),
                                              "--format", fmt)
            assert (code, stdout) == (2, "")
            lines = stderr.splitlines()
            assert len(lines) == 1
            assert lines[0].startswith(f"error: invalid report file {bad}: ")
            assert message in lines[0]
            assert "Traceback" not in stderr

    @pytest.mark.parametrize("verb", ["scenario", "robustness"])
    def test_per_kind_report_verbs_are_gone(self, verb):
        code, _, stderr = run_inproc(verb, "report", "x.json")
        assert code == 2
        assert "invalid choice: 'report'" in stderr


class TestSavedReports:
    """``report`` reads every run kind from its saved JSON report."""

    @pytest.mark.parametrize("fmt", ["markdown", "json"])
    @pytest.mark.parametrize("kind", sorted(SAVED_RUNS))
    def test_report_reproduces_the_run_outputs(self, saved_reports, kind,
                                               fmt):
        code, stdout, stderr = run_inproc(
            "report", str(saved_reports[kind]["json"]), "--format", fmt)
        assert (code, stderr) == (0, "")
        assert stdout == saved_reports[kind][fmt].read_text(encoding="utf-8")


class TestShardedSweepCLI:
    def test_shard_merge_round_trip_is_byte_identical(self, tmp_path):
        cache = tmp_path / "cache"
        full = tmp_path / "full.json"
        run_cli("sweep", "--output-bits", "12", "14", "--jobs", "1",
                "--cache-dir", str(cache), "--quiet", "--json", str(full),
                cwd=tmp_path)
        fragments = []
        for i in (1, 2):
            frag = tmp_path / f"shard{i}.json"
            run_cli("sweep", "--output-bits", "12", "14", "--jobs", "1",
                    "--cache-dir", str(cache), "--quiet",
                    "--shard", f"{i}/2", "--json", str(frag), cwd=tmp_path)
            fragments.append(frag)
        merged = tmp_path / "merged.json"
        proc = run_cli("sweep", "merge", *map(str, fragments),
                       "--json", str(merged), cwd=tmp_path)
        assert "Merged JSON report written" in proc.stdout
        assert merged.read_bytes() == full.read_bytes()

    def test_merge_renders_markdown(self, tmp_path):
        cache = tmp_path / "cache"
        frag = tmp_path / "shard.json"
        run_cli("sweep", "--output-bits", "12", "--jobs", "1",
                "--cache-dir", str(cache), "--quiet",
                "--shard", "1/1", "--json", str(frag), cwd=tmp_path)
        md = tmp_path / "merged.md"
        run_cli("sweep", "merge", str(frag), "--markdown", str(md),
                cwd=tmp_path)
        assert "w12" in md.read_text(encoding="utf-8")

    def test_shard_requires_json(self, tmp_path):
        proc = run_cli("sweep", "--output-bits", "12", "--shard", "1/2",
                       "--no-cache", "--quiet", cwd=tmp_path, check=False)
        assert proc.returncode == 2
        assert "--shard needs --json" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("value", ["2", "0/2", "3/2", "a/b", "1/2/3x"])
    def test_bad_shard_values_are_clean_errors(self, tmp_path, value):
        proc = run_cli("sweep", "--output-bits", "12", "--shard", value,
                       "--no-cache", "--quiet", "--json",
                       str(tmp_path / "out.json"), cwd=tmp_path, check=False)
        assert proc.returncode == 2
        assert "invalid --shard" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_merge_rejects_incomplete_shard_set(self, tmp_path):
        cache = tmp_path / "cache"
        frag = tmp_path / "shard1.json"
        run_cli("sweep", "--output-bits", "12", "14", "--jobs", "1",
                "--cache-dir", str(cache), "--quiet",
                "--shard", "1/2", "--json", str(frag), cwd=tmp_path)
        proc = run_cli("sweep", "merge", str(frag), cwd=tmp_path,
                       check=False)
        assert proc.returncode == 2
        assert "cannot merge shard reports" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestCacheTmpMaintenanceCLI:
    def test_stats_reports_orphaned_tmp(self, tmp_path):
        cache = tmp_path / "cache"
        run_cli("sweep", "--output-bits", "12", "--jobs", "1",
                "--cache-dir", str(cache), "--quiet", cwd=tmp_path)
        shard_dirs = [p for p in cache.iterdir() if p.is_dir()]
        (shard_dirs[0] / "orphan.json.999.0.tmp").write_bytes(b"partial")
        stats = run_cli("cache", "stats", "--cache-dir", str(cache))
        assert "Orphaned tmp    : 1 (7 bytes)" in stats.stdout

        # Default grace spares the young orphan; --tmp-grace-s 0 reclaims.
        keep = run_cli("cache", "prune", "--cache-dir", str(cache))
        assert "Removed 0 cache entries" in keep.stdout
        wipe = run_cli("cache", "prune", "--cache-dir", str(cache),
                       "--tmp-grace-s", "0")
        assert "Removed 1 cache entries" in wipe.stdout
        stats = run_cli("cache", "stats", "--cache-dir", str(cache))
        assert "Orphaned tmp    : 0 (0 bytes)" in stats.stdout
        assert "Entries         : 1" in stats.stdout

    def test_negative_tmp_grace_is_a_clean_error(self, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        proc = run_cli("cache", "prune", "--cache-dir", str(cache),
                       "--tmp-grace-s", "-5", check=False)
        assert proc.returncode == 2
        assert "--tmp-grace-s must be non-negative" in proc.stderr

    def test_stats_on_missing_directory_mentions_tmp(self, tmp_path):
        stats = run_cli("cache", "stats", "--cache-dir",
                        str(tmp_path / "nope"))
        assert "Orphaned tmp    : 0" in stats.stdout


@pytest.fixture(scope="module")
def serve_daemon(tmp_path_factory):
    """One ``repro serve`` subprocess shared by the byte-identity tests.

    Yields the daemon's ``HOST:PORT`` address.  The server runs with the
    repo root as cwd (like every other ``run_cli`` invocation) and its
    own cache directory, so served sweep requests that name an explicit
    ``--cache-dir`` behave exactly like the direct CLI.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + \
        env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--jobs", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env, cwd=str(REPO_ROOT))
    try:
        line = proc.stdout.readline()
        assert "repro-serve listening on " in line, line
        address = line.rsplit(" ", 1)[-1].strip()
        yield address
    finally:
        run_cli("client", "--connect", address, "shutdown", check=False)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)


def run_client(address, *args, check=True):
    """``repro client --connect <daemon> <verb> <args...>`` helper."""
    return run_cli("client", "--connect", address, *args, check=check)


class TestServeCLI:
    """The served-response contract: byte-identical to the direct CLI."""

    def test_ping_and_stats(self, serve_daemon):
        ping = run_client(serve_daemon, "ping")
        assert ping.stdout == "pong\n"
        stats = run_client(serve_daemon, "stats")
        payload = json.loads(stats.stdout)
        assert payload["requests"]["total"] >= 1
        assert payload["server"]["jobs"] == 2

    def test_design_byte_identical_cold_and_warm(self, serve_daemon):
        direct = run_cli("design", "--no-activity")
        cold = run_client(serve_daemon, "design", "--no-activity")
        warm = run_client(serve_daemon, "design", "--no-activity")
        assert cold.stdout == direct.stdout
        assert warm.stdout == direct.stdout
        assert cold.returncode == warm.returncode == direct.returncode == 0
        # The warm pass fed on the hot store: nonzero cache hit rate.
        stats = json.loads(run_client(serve_daemon, "stats").stdout)
        assert stats["cache_hit_rate"] > 0.0

    def test_verify_byte_identical(self, serve_daemon):
        direct = run_cli("verify", "--no-activity")
        served = run_client(serve_daemon, "verify", "--no-activity")
        assert served.stdout == direct.stdout
        assert served.returncode == direct.returncode

    def test_sweep_byte_identical_inline_and_pooled(self, serve_daemon,
                                                    tmp_path):
        base = ("sweep", "--output-bits", "12", "14", "--quiet")
        direct = run_cli(*base, "--cache-dir", str(tmp_path / "cli-cache"))
        inline = run_client(serve_daemon, *base, "--jobs", "1",
                            "--cache-dir", str(tmp_path / "inline-cache"))
        pooled = run_client(serve_daemon, *base, "--jobs", "2",
                            "--cache-dir", str(tmp_path / "pooled-cache"))
        warm = run_client(serve_daemon, *base, "--jobs", "1",
                          "--cache-dir", str(tmp_path / "inline-cache"))
        assert inline.stdout == direct.stdout
        assert pooled.stdout == direct.stdout
        assert warm.stdout == direct.stdout
        assert direct.returncode == inline.returncode == 0
        assert pooled.returncode == warm.returncode == 0
        # Served requests never fork a pool from the daemon: --jobs 2
        # still runs inline against the hot store.
        assert "(inline executor, 1 jobs," in pooled.stderr

    def test_served_cli_error_matches_direct(self, serve_daemon):
        direct = run_cli("design", "--sinc-orders-base", "four", check=False)
        served = run_client(serve_daemon, "design", "--sinc-orders-base",
                            "four", check=False)
        assert direct.returncode == served.returncode == 2
        assert served.stdout == direct.stdout
        assert served.stderr == direct.stderr
        assert "invalid sinc order split" in served.stderr

    def test_health_verb(self, serve_daemon):
        health = run_client(serve_daemon, "health")
        payload = json.loads(health.stdout)
        assert payload["status"] == "ok"
        assert payload["uptime_s"] >= 0.0
        assert payload["inflight"] == 0

    def test_deadline_ms_flag_reaches_the_server(self, serve_daemon):
        # A generous deadline changes nothing about a fast request.
        ping = run_client(serve_daemon, "--deadline-ms", "60000", "ping")
        assert ping.stdout == "pong\n"


class TestServeDrainCLI:
    """Satellite 3: SIGTERM drains a real daemon end to end."""

    def test_sigterm_finishes_inflight_refuses_new_and_exits_zero(
            self, tmp_path):
        import faultutils
        from repro.serve.protocol import encode_line

        held = faultutils.HeldReport(tmp_path)
        with faultutils.ServeDaemon(cache_dir=tmp_path / "cache", jobs=1,
                                    drain_grace_s=60.0) as daemon:
            # One request held in flight (it blocks writing its report
            # into a named pipe until released), one idle surviving
            # connection.
            inflight = daemon.client(timeout=120)
            inflight.send_raw(encode_line(
                {"id": "inflight", "verb": "sweep",
                 "args": ["--output-bits", "12", "--snr", "--snr-samples",
                          "2048", "--quiet", "--json", str(held.path)]}
            ).encode("utf-8"))
            survivor = daemon.client(timeout=120)
            # Wait until the computation is provably in flight (health is
            # a control verb: answered on the loop, never queued).
            import time as _time
            deadline = _time.monotonic() + 30
            while _time.monotonic() < deadline:
                if survivor.request("health")["health"]["inflight"] >= 1:
                    break
                _time.sleep(0.02)

            daemon.sigterm()
            # Signal delivery is asynchronous: wait for the daemon to
            # acknowledge the drain before asserting the refusal.
            while _time.monotonic() < deadline:
                health = survivor.request("health")["health"]
                if health["status"] == "draining":
                    break
                _time.sleep(0.02)

            # A new command on the surviving connection: `draining`.
            response = survivor.request("design", ["--no-activity"])
            assert response["exit_code"] == 2
            assert response["error"]["kind"] == "draining"
            assert response["stderr"].startswith("error: ")

            # The in-flight request still completes in full...
            assert json.loads(held.release())["points"]
            done = json.loads(inflight.read_response_line())
            assert done["id"] == "inflight"
            assert done["exit_code"] == 0
            assert done["stdout"]
            inflight.close()
            survivor.close()

            # ...the daemon exits 0 within the grace window, and a fresh
            # `repro client` connect is a clean one-line exit-2 error.
            assert daemon.wait(60) == 0
            late = run_client(str(daemon.address), "ping", check=False)
            assert late.returncode == 2
            assert late.stderr.startswith("error: cannot reach server at ")
            assert "Traceback" not in late.stderr


class TestClientFailureMapping:
    """Connection-level failures surface as one-line exit-2 errors."""

    def test_mid_response_eof_is_a_clean_error(self):
        import socket
        import threading

        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]

        def half_answer():
            conn, _ = listener.accept()
            with conn:
                reader = conn.makefile("rb")
                reader.readline()             # consume the request
                conn.sendall(b'{"ok": tru')   # truncated response, no \n
        server = threading.Thread(target=half_answer, daemon=True)
        server.start()
        try:
            proc = run_cli("client", "--connect", f"127.0.0.1:{port}",
                           "ping", check=False)
        finally:
            server.join(timeout=30)
            listener.close()
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith(
            f"error: connection to 127.0.0.1:{port} failed: ")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr

    def test_eof_without_response_is_a_clean_error(self):
        import socket
        import threading

        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]

        def close_without_answer():
            conn, _ = listener.accept()
            with conn:
                conn.makefile("rb").readline()
        server = threading.Thread(target=close_without_answer, daemon=True)
        server.start()
        try:
            proc = run_cli("client", "--connect", f"127.0.0.1:{port}",
                           "ping", check=False)
        finally:
            server.join(timeout=30)
            listener.close()
        assert proc.returncode == 2
        assert "without responding" in proc.stderr
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr


class TestServeClientValidation:
    """Argument/connection errors of the serve/client pair (exit 2)."""

    def test_serve_rejects_bad_jobs(self):
        proc = run_cli("serve", "--jobs", "0", check=False)
        assert proc.returncode == 2
        assert "--jobs must be at least 1" in proc.stderr

    def test_serve_rejects_bad_port(self):
        proc = run_cli("serve", "--port", "70000", check=False)
        assert proc.returncode == 2
        assert "--port must lie in [0, 65535]" in proc.stderr

    def test_serve_rejects_bad_max_artifacts(self):
        proc = run_cli("serve", "--max-artifacts", "0", check=False)
        assert proc.returncode == 2
        assert "--max-artifacts must be at least 1" in proc.stderr

    def test_client_rejects_malformed_address(self):
        proc = run_cli("client", "--connect", "not-an-address", "ping",
                       check=False)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")
        assert "invalid address" in proc.stderr

    def test_client_connection_refused_is_clean(self):
        # Port 1 on localhost is essentially never listening.
        proc = run_cli("client", "--connect", "127.0.0.1:1", "ping",
                       check=False)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: cannot reach server at ")

    def test_client_rejects_connect_and_socket_together(self):
        proc = run_cli("client", "--connect", "127.0.0.1:7411",
                       "--socket", "/tmp/x.sock", "ping", check=False)
        assert proc.returncode == 2
        assert "mutually exclusive" in proc.stderr

    def test_client_rejects_bad_timeout(self):
        proc = run_cli("client", "--timeout", "0", "ping", check=False)
        assert proc.returncode == 2
        assert "--timeout must be positive" in proc.stderr

    def test_client_rejects_negative_retries(self):
        proc = run_cli("client", "--retries", "-1", "ping", check=False)
        assert proc.returncode == 2
        assert "--retries must be non-negative" in proc.stderr

    def test_client_rejects_bad_deadline(self):
        proc = run_cli("client", "--deadline-ms", "0", "ping", check=False)
        assert proc.returncode == 2
        assert "--deadline-ms must be a positive integer" in proc.stderr

    def test_serve_rejects_bad_max_queue(self):
        proc = run_cli("serve", "--max-queue", "-2", check=False)
        assert proc.returncode == 2
        assert "--max-queue must be -1 (unbounded) or non-negative" \
            in proc.stderr

    def test_serve_rejects_negative_drain_grace(self):
        proc = run_cli("serve", "--drain-grace-s", "-1", check=False)
        assert proc.returncode == 2
        assert "--drain-grace-s must be non-negative" in proc.stderr

    def test_serve_rejects_bad_write_timeout(self):
        proc = run_cli("serve", "--write-timeout-s", "0", check=False)
        assert proc.returncode == 2
        assert "--write-timeout-s must be positive" in proc.stderr
