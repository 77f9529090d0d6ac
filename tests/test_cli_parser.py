"""The CLI parser is built once per process and shared by every invocation.

:func:`repro.cli.run_command` parses with one process-wide parser instead
of rebuilding ~20 subparsers per call.  These tests pin what sharing must
keep: exactly one build per process (direct calls and a served daemon
alike, counted, not timed), per-thread output streams under concurrent
parses, and no state leaking from one invocation into the next through a
shared list default.
"""

import argparse
import copy
import sys
import threading

import pytest

import serveutils
from repro import cli
from test_cli import run_cli, run_inproc as run


@pytest.fixture
def parser_builds(monkeypatch):
    """Drop the cached parser and record every ``build_parser`` call."""
    builds = []
    real_build_parser = cli.build_parser

    def counting_build_parser():
        builds.append(threading.get_ident())
        return real_build_parser()

    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    return builds


def parser_defaults(parser, path=()):
    """``{(subcommand path, dest): deep copy of the default}`` over the
    whole parser tree."""
    defaults = {}
    for action in parser._actions:
        defaults[path + (action.dest,)] = copy.deepcopy(action.default)
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                defaults.update(parser_defaults(sub, path + (name,)))
    return defaults


class TestOneBuildPerProcess:
    def test_direct_invocations_share_one_parser(self, parser_builds):
        codes = [run(*argv)[0] for argv in (
            ("design", "--no-activity"),
            ("scenario", "list"),
            ("design", "--spec", "nope"),
            ("--help",),
        )]
        assert codes == [0, 0, 2, 0]
        assert len(parser_builds) == 1

    def test_served_requests_share_one_parser(self, parser_builds, tmp_path):
        # The first burst races two worker threads to the lazy build.
        burst = [("design", ["--spec", f"nope{i}"]) for i in range(4)]
        later = [("scenario", ["list"]), ("cache", ["stats"]),
                 ("design", ["--spec", "nope"]), ("scenario", ["list"])]
        with serveutils.ServerHarness(jobs=2,
                                      cache_dir=str(tmp_path)) as harness:
            replies = [None] * len(burst)
            barrier = threading.Barrier(len(burst))

            def send(index):
                barrier.wait(timeout=30)
                replies[index] = harness.request(*burst[index])

            threads = [threading.Thread(target=send, args=(i,))
                       for i in range(len(burst))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            replies += [harness.request(verb, args) for verb, args in later]
        assert [reply["exit_code"] for reply in replies] == \
            [2, 2, 2, 2, 0, 0, 2, 0]
        assert len(parser_builds) == 1


class TestConcurrentParses:
    ARGVS = [
        ("scenario", "list"),
        ("design", "--spec", "nope"),
        ("--help",),
        ("design", "--help"),
        ("sweep", "--jobs"),
        ("robustness", "run", "--disable", "bogus"),
        ("report", "missing.json"),
        ("design", "--no-activity"),
    ]

    def test_threads_keep_their_own_streams(self, parser_builds):
        rounds = 3
        results = [[] for _ in self.ARGVS]
        barrier = threading.Barrier(len(self.ARGVS))

        def worker(index):
            barrier.wait(timeout=30)
            for _ in range(rounds):
                results[index].append(run(*self.ARGVS[index]))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(len(self.ARGVS))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(previous)
        assert len(parser_builds) == 1
        for argv, concurrent in zip(self.ARGVS, results):
            assert concurrent == [run(*argv)] * rounds, argv
        assert [rounds_of_argv[0][0] for rounds_of_argv in results] == \
            [0, 2, 0, 0, 2, 2, 2, 0]


class TestNoStateLeaks:
    """List defaults (``default=[]``) are shared by every invocation: a
    run that leaves a list option out must behave as in a fresh process,
    whatever ran before it."""

    def assert_second_run_is_fresh(self, first, second, tmp_path,
                                   monkeypatch):
        here, fresh = tmp_path / "in-process", tmp_path / "fresh"
        here.mkdir()
        fresh.mkdir()
        monkeypatch.chdir(here)
        assert run(*first, "--json", "first.json")[0] == 0
        code, stdout, _ = run(*second, "--json", "second.json")
        proc = run_cli(*second, "--json", "second.json", cwd=fresh)
        assert (code, stdout) == (0, proc.stdout)
        assert (here / "second.json").read_bytes() == \
            (fresh / "second.json").read_bytes()

    def test_sweep_axes_do_not_leak(self, tmp_path, monkeypatch):
        defaults = parser_defaults(cli._shared_parser())
        common = ("sweep", "--no-cache", "--jobs", "1", "--quiet")
        self.assert_second_run_is_fresh(
            (*common, "--osr", "16", "32", "--output-bits", "12", "14"),
            (*common, "--halfband-att", "80"), tmp_path, monkeypatch)
        assert parser_defaults(cli._shared_parser()) == defaults

    def test_robustness_disabled_axes_do_not_leak(self, tmp_path,
                                                  monkeypatch):
        defaults = parser_defaults(cli._shared_parser())
        common = ("robustness", "run", "lte-20", "--samples", "4",
                  "--stimulus-samples", "2048", "--quiet")
        self.assert_second_run_is_fresh(
            (*common, "--disable", "jitter", "--disable", "dither"),
            common, tmp_path, monkeypatch)
        assert parser_defaults(cli._shared_parser()) == defaults
