"""Command-line interface: ``python -m repro <design|verify|sweep|...>``.

Every workload in ``examples/`` is reproducible from the shell:

* ``design`` — run the one-shot rapid design flow and print the full report.
* ``verify`` — design + print the Table I compliance table; exit 1 on FAIL.
* ``sweep``  — expand a design-space grid, run it on the staged, memoized
  sweep engine (``--jobs`` sets the concurrency: ``1`` runs inline, more
  use a process pool) over the shared content-addressed store, and
  print/write the Pareto-ranked report; ``--no-resume`` forces
  recomputation of already-published points.
* ``scenario`` — the multi-standard scenario suite: ``list`` the registry,
  ``run`` named scenarios (or ``--all``) on the same memoized engine, and
  ``check`` fresh runs against the committed golden records (exit 1 on
  any regression).
* ``robustness`` — the Monte Carlo yield subsystem: ``run`` seeded
  perturbation populations over scenarios (batched through the vectorized
  engines), and ``check`` the pinned small run against its committed
  golden record (exit 1 on drift).
* ``report`` — re-render a saved sweep, scenario or robustness JSON report
  without re-running (the kind is read from the file).
* ``cache``  — ``stats`` / ``prune`` for the on-disk result directory
  (entry/staleness counts include orphaned writer temp files; see
  ``docs/CACHING.md`` for the store layout and contract).
* ``serve``  — run the long-lived design service daemon: a JSON-lines
  protocol over TCP or a UNIX socket, a hot in-memory artifact store
  shared across requests, and in-flight coalescing of identical requests
  (see ``docs/SERVING.md``).
* ``client`` — send one request to a running daemon and relay its
  stdout/stderr/exit code, byte-identical to running the same subcommand
  directly.
* ``trace``  — ``summarize`` a JSON-lines span trace written by the
  ``--trace FILE`` flag of ``sweep``/``scenario``/``robustness``/``serve``
  into a per-stage time/hit-rate breakdown table (see
  ``docs/OBSERVABILITY.md``).  Tracing is strictly out-of-band: reports
  are byte-identical with or without it.

Argument errors (bad ``--jobs``, unknown scenarios, missing report files)
print a one-line ``error: ...`` message and exit with code 2; only
genuinely unexpected failures surface as tracebacks.

Every command handler writes through a :class:`CommandIO` stream pair
instead of the process-global ``sys.stdout``/``sys.stderr``: the plain CLI
binds them to the real streams, while the serve daemon binds per-request
buffers, so a served response carries exactly the bytes the CLI would have
printed (:func:`run_command` is the shared entry point).  The argument
parser is built once per process and shared by every invocation,
including the daemon's concurrent worker threads; :func:`build_parser`
stays the public constructor.

See ``docs/GUIDE.md`` for a task-oriented walkthrough,
``docs/SCENARIOS.md`` for the scenario catalog,
``docs/ROBUSTNESS.md`` for the perturbation-axis model,
``docs/SERVING.md`` for the service protocol,
``docs/OBSERVABILITY.md`` for the tracing/metrics layer and
``docs/PERFORMANCE.md`` for the engine and ``--jobs`` guide.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import threading
from typing import IO, List, Optional, Sequence

#: Default on-disk cache directory of the ``sweep`` subcommand.
DEFAULT_CACHE_DIR = ".repro-sweep-cache"

#: Default TCP endpoint of the ``serve``/``client`` pair.
DEFAULT_SERVE_HOST = "127.0.0.1"
DEFAULT_SERVE_PORT = 7411


class CLIError(Exception):
    """A user-input error: printed as one ``error: ...`` line, exit code 2."""


class CommandIO:
    """The output streams of one command invocation.

    The plain CLI binds the process streams; the serve daemon binds
    per-request ``StringIO`` buffers so concurrent requests never
    interleave and responses reproduce the CLI's bytes exactly.
    """

    def __init__(self, stdout: Optional[IO[str]] = None,
                 stderr: Optional[IO[str]] = None) -> None:
        self.stdout = stdout if stdout is not None else sys.stdout
        self.stderr = stderr if stderr is not None else sys.stderr

    def out(self, text: str = "") -> None:
        """Print one line to the command's stdout (flushing eagerly, so
        daemon announce lines are visible through pipes)."""
        print(text, file=self.stdout, flush=True)

    def err(self, text: str = "") -> None:
        """Print one line to the command's stderr."""
        print(text, file=self.stderr, flush=True)


#: Per-thread :class:`CommandIO` installed by :func:`run_command` for the
#: duration of one invocation, so argparse usage/help output follows the
#: command's streams even inside the daemon's worker threads.
_COMMAND_IO = threading.local()


def _current_io() -> Optional[CommandIO]:
    return getattr(_COMMAND_IO, "io", None)


class _StreamParser(argparse.ArgumentParser):
    """``ArgumentParser`` that routes help/usage text through the active
    :class:`CommandIO` (``add_subparsers`` inherits this class, so every
    nested parser follows the same streams)."""

    def _print_message(self, message: str,
                       file: Optional[IO[str]] = None) -> None:
        if not message:
            return
        io = _current_io()
        if io is None:
            super()._print_message(message, file)
            return
        target = io.stdout if file is sys.stdout else io.stderr
        target.write(message)


def _require_positive(value: Optional[int], flag: str) -> None:
    """Reject non-positive integer flags with a clean one-line error."""
    if value is not None and value < 1:
        raise CLIError(f"{flag} must be at least 1 (got {value})")


def _require_snr_record(flag: str, n_samples: int, decimations,
                        min_outputs: Optional[int] = None) -> None:
    """Reject an SNR record too short to analyze with a clean one-line
    error.  ``decimations`` holds ``(decimation, context)`` pairs, one per
    design the record feeds; ``min_outputs`` defaults to the spectral
    analysis floor (see
    :func:`repro.core.verification.check_snr_record_length`)."""
    from repro.core.verification import (MIN_SPECTRUM_OUTPUTS,
                                         check_snr_record_length)

    try:
        for decimation, context in decimations:
            check_snr_record_length(flag, n_samples, decimation,
                                    min_outputs or MIN_SPECTRUM_OUTPUTS,
                                    context=context)
    except ValueError as exc:
        raise CLIError(str(exc))


def _require_file(path: str, what: str) -> None:
    """Reject nonexistent input file paths with a clean one-line error."""
    if not os.path.isfile(path):
        raise CLIError(f"{what} not found: {path}")


def _add_execution_arguments(parser: argparse.ArgumentParser,
                             what: str) -> None:
    """The shared ``--jobs``/``--cache-dir`` pair plus ``--trace``.

    Used by every subcommand that fans work out on the
    :func:`repro.explore.runner.execute_payloads` harness (scenario and
    robustness runs/checks); the sweep subcommand keeps its own variants
    with a default of 4 jobs and a default cache directory.
    """
    parser.add_argument("--jobs", type=int, default=1,
                        help=f"maximum concurrent {what}: 1 runs inline, "
                             f"more use a process pool (default: 1)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="result cache directory (default: no cache)")
    _add_trace_argument(parser)


def _add_trace_argument(parser: argparse.ArgumentParser) -> None:
    """The ``--trace FILE`` span-export flag (sweep/scenario/robustness
    runs and the serve daemon)."""
    parser.add_argument("--trace", default=None, metavar="FILE",
                        help="append JSON-lines spans of this run to FILE "
                             "(out-of-band — reports are byte-identical "
                             "with or without it; inspect with "
                             "'trace summarize FILE')")


def _library_choices() -> List[str]:
    from repro.hardware.stdcell import LIBRARIES

    return sorted(LIBRARIES)


def build_parser() -> argparse.ArgumentParser:
    """Build the ``python -m repro`` argument parser."""
    parser = _StreamParser(
        prog="python -m repro",
        description="Rapid design, verification and synthesis estimation of "
                    "delta-sigma ADC decimation filters (SOCC 2011 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    design = sub.add_parser(
        "design", help="run the one-shot design flow and print the report")
    _add_spec_arguments(design)
    _add_flow_arguments(design)
    design.add_argument("--json", metavar="FILE",
                        help="also write the machine-readable flow record to FILE")

    verify = sub.add_parser(
        "verify", help="design and verify against the spec mask (exit 1 on FAIL)")
    _add_spec_arguments(verify)
    _add_flow_arguments(verify)

    sweep = sub.add_parser(
        "sweep", help="run a design-space sweep with parallel workers and "
                      "caching")
    _add_spec_arguments(sweep)
    sweep.add_argument("--osr", type=int, nargs="+", default=[],
                       help="oversampling-ratio axis (powers of two)")
    sweep.add_argument("--bandwidth-hz", type=float, nargs="+", default=[],
                       help="signal-bandwidth axis in Hz")
    sweep.add_argument("--sinc-orders", nargs="+", default=[], metavar="SPLIT",
                       help="sinc order-split axis: comma lists like 4,4,6 "
                            "and/or the word 'auto'")
    sweep.add_argument("--output-bits", type=int, nargs="+", default=[],
                       help="output word-width axis")
    sweep.add_argument("--halfband-att", type=float, nargs="+", default=[],
                       dest="halfband_att", metavar="DB",
                       help="stopband-attenuation (halfband ripple) axis in dB")
    sweep.add_argument("--halfband-coeff-bits", type=int, nargs="+", default=[],
                       dest="halfband_coeff_bits",
                       help="halfband coefficient word-width axis")
    sweep.add_argument("--jobs", type=int, default=4,
                       help="maximum concurrent point executions: 1 runs "
                            "inline with no pool, more use a process pool "
                            "with a pre-warmed store (default: 4)")
    sweep.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR, metavar="DIR",
                       help=f"result cache directory (default: {DEFAULT_CACHE_DIR})")
    sweep.add_argument("--no-cache", action="store_true",
                       help="disable the on-disk result cache")
    sweep.add_argument("--no-resume", action="store_true",
                       help="recompute every point even when the store "
                            "already holds it (entries are overwritten)")
    sweep.add_argument("--snr", action="store_true",
                       help="simulate the end-to-end SNR per point (slower)")
    sweep.add_argument("--snr-samples", type=int, default=16384,
                       help="modulator samples for the per-point SNR simulation")
    sweep.add_argument("--measure-activity", action="store_true",
                       help="measure toggle activity for the power model (slower)")
    sweep.add_argument("--library", default="generic-45nm",
                       choices=_library_choices(),
                       help="standard-cell library for power/area estimation")
    sweep.add_argument("--json", metavar="FILE",
                       help="write the canonical JSON report to FILE")
    sweep.add_argument("--markdown", metavar="FILE",
                       help="write the markdown report to FILE")
    sweep.add_argument("--quiet", action="store_true",
                       help="suppress per-point progress lines")
    _add_trace_argument(sweep)

    scenario = sub.add_parser(
        "scenario", help="run or check the multi-standard scenario suite")
    scenario_sub = scenario.add_subparsers(dest="scenario_command",
                                           required=True)
    scenario_sub.add_parser(
        "list", help="list every registered scenario")
    scenario_run = scenario_sub.add_parser(
        "run", help="run scenarios through the design flow")
    scenario_check = scenario_sub.add_parser(
        "check", help="diff fresh scenario runs against the golden records "
                      "(exit 1 on any mismatch)")
    for sub_parser in (scenario_run, scenario_check):
        sub_parser.add_argument("names", nargs="*", metavar="NAME",
                                help="scenario names (see 'scenario list')")
        sub_parser.add_argument("--all", action="store_true", dest="run_all",
                                help="select every registered scenario")
        _add_execution_arguments(sub_parser, "scenario executions")
        sub_parser.add_argument("--quiet", action="store_true",
                                help="suppress per-scenario progress lines")
    scenario_run.add_argument("--json", metavar="FILE",
                              help="write the canonical JSON report to FILE")
    scenario_run.add_argument("--markdown", metavar="FILE",
                              help="write the markdown report to FILE")
    scenario_run.add_argument("--write-goldens", action="store_true",
                              help="(re)write the committed golden records "
                                   "from this run")

    robustness = sub.add_parser(
        "robustness", help="Monte Carlo robustness & yield analysis")
    robustness_sub = robustness.add_subparsers(dest="robustness_command",
                                               required=True)
    robustness_run = robustness_sub.add_parser(
        "run", help="run a seeded Monte Carlo yield analysis over scenarios")
    robustness_run.add_argument("names", nargs="*", metavar="NAME",
                                help="scenario names (see 'scenario list')")
    robustness_run.add_argument("--all", action="store_true", dest="run_all",
                                help="select every registered scenario")
    robustness_run.add_argument("--samples", type=int, default=256,
                                help="Monte Carlo samples per scenario "
                                     "(default: 256)")
    robustness_run.add_argument("--seed", type=int, default=2011,
                                help="seed of the perturbation draws "
                                     "(default: 2011)")
    robustness_run.add_argument("--stimulus-samples", type=int, default=None,
                                help="override the scenario's stimulus "
                                     "record length (shorter = faster)")
    robustness_run.add_argument("--variants", type=int, default=4,
                                help="perturbed chain variants drawn by the "
                                     "coefficient axes (default: 4)")
    robustness_run.add_argument("--disable", action="append", default=[],
                                choices=["dither", "dropout", "mismatch",
                                         "jitter", "corners"],
                                metavar="AXIS",
                                help="disable a perturbation axis (repeat "
                                     "for several; choices: dither, dropout, "
                                     "mismatch, jitter, corners)")
    robustness_run.add_argument("--min-yield", type=float, default=0.9,
                                help="yield target of the distribution "
                                     "checks (default: 0.9)")
    _add_execution_arguments(robustness_run, "population shards")
    robustness_run.add_argument("--json", metavar="FILE",
                                help="write the canonical JSON report to FILE")
    robustness_run.add_argument("--markdown", metavar="FILE",
                                help="write the markdown report to FILE")
    robustness_run.add_argument("--quiet", action="store_true",
                                help="suppress per-scenario progress lines")
    robustness_check = robustness_sub.add_parser(
        "check", help="run the pinned small Monte Carlo and diff it against "
                      "the committed golden record (exit 1 on drift)")
    _add_execution_arguments(robustness_check, "population shards")
    robustness_check.add_argument("--write-golden", action="store_true",
                                  help="(re)write the committed golden "
                                       "record from this run")

    report = sub.add_parser(
        "report", help="re-render a saved sweep, scenario or robustness "
                       "JSON report")
    report.add_argument("results", metavar="RESULTS.json",
                        help="JSON report written by 'sweep --json', "
                             "'scenario run --json' or 'robustness run --json'")
    report.add_argument("--format", default="markdown",
                        choices=["markdown", "json"],
                        help="output format (default: markdown)")
    report.add_argument("--out", metavar="FILE",
                        help="write to FILE instead of stdout")

    cache = sub.add_parser(
        "cache", help="inspect or prune the result cache directory")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    stats = cache_sub.add_parser("stats", help="print entry/byte/staleness counts")
    prune = cache_sub.add_parser(
        "prune", help="remove stale (corrupt/old-schema) entries")
    prune.add_argument("--older-than-days", type=float, default=None,
                       metavar="DAYS",
                       help="also remove valid entries older than DAYS")
    prune.add_argument("--all", action="store_true",
                       help="remove every entry")
    prune.add_argument("--tmp-grace-s", type=float, default=None,
                       metavar="SECONDS",
                       help="reclaim orphaned *.tmp files older than this "
                            "many seconds (default: 3600; 0 reclaims all)")
    for sub_parser in (stats, prune):
        sub_parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                                metavar="DIR",
                                help="result cache directory "
                                     f"(default: {DEFAULT_CACHE_DIR})")

    serve = sub.add_parser(
        "serve", help="run the long-lived design service daemon "
                      "(JSON-lines protocol, request coalescing)")
    serve.add_argument("--host", default=DEFAULT_SERVE_HOST,
                       help=f"TCP bind address (default: {DEFAULT_SERVE_HOST})")
    serve.add_argument("--port", type=int, default=DEFAULT_SERVE_PORT,
                       help=f"TCP port; 0 picks an ephemeral port "
                            f"(default: {DEFAULT_SERVE_PORT})")
    serve.add_argument("--socket", metavar="PATH", default=None,
                       help="serve on a UNIX socket at PATH instead of TCP")
    serve.add_argument("--jobs", type=int, default=4,
                       help="bounded worker pool size: maximum concurrent "
                            "request executions (default: 4)")
    serve.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="default on-disk result cache injected into "
                            "requests that do not name their own "
                            "(default: per-request)")
    serve.add_argument("--max-artifacts", type=int, default=4096,
                       help="in-memory artifact store entry cap; least-"
                            "recently-used stages are evicted beyond it "
                            "(default: 4096)")
    serve.add_argument("--max-queue", type=int, default=128,
                       help="bounded admission queue: requests beyond "
                            "jobs + MAX_QUEUE in flight are shed with an "
                            "'overloaded' envelope; -1 disables shedding "
                            "(default: 128)")
    serve.add_argument("--drain-grace-s", type=float, default=30.0,
                       help="graceful-drain window: how long SIGTERM/"
                            "SIGINT or the 'drain' verb waits for "
                            "in-flight work before exiting (default: 30)")
    serve.add_argument("--write-timeout-s", type=float, default=30.0,
                       help="per-response write budget; a client that "
                            "stops reading loses its connection, not a "
                            "worker (default: 30)")
    _add_trace_argument(serve)

    client = sub.add_parser(
        "client", help="send one request to a running 'repro serve' daemon")
    client.add_argument("--connect", default=None, metavar="HOST:PORT",
                        help=f"TCP endpoint of the daemon (default: "
                             f"{DEFAULT_SERVE_HOST}:{DEFAULT_SERVE_PORT})")
    client.add_argument("--socket", metavar="PATH", default=None,
                        help="connect to a UNIX socket instead of TCP")
    client.add_argument("--timeout", type=float, default=600.0,
                        help="response timeout in seconds (default: 600)")
    client.add_argument("--retries", type=int, default=0,
                        help="retry idempotent verbs up to N times on "
                             "connection failures and overloaded/draining "
                             "responses, with capped full-jitter backoff "
                             "(default: 0)")
    client.add_argument("--deadline-ms", type=int, default=None,
                        metavar="MS",
                        help="server-side response deadline: the daemon "
                             "answers with a 'deadline' error if the "
                             "request cannot finish in time (default: "
                             "none)")
    client.add_argument("verb", metavar="VERB",
                        help="request verb: a repro subcommand (design, "
                             "verify, sweep, scenario, robustness, report, "
                             "cache) or a service verb (ping, stats, "
                             "health, metrics, drain, shutdown)")
    client.add_argument("args", nargs=argparse.REMAINDER, metavar="ARGS",
                        help="arguments forwarded verbatim to the verb")

    trace_cmd = sub.add_parser(
        "trace", help="inspect JSON-lines span traces written by --trace")
    trace_sub = trace_cmd.add_subparsers(dest="trace_command", required=True)
    trace_summarize = trace_sub.add_parser(
        "summarize", help="per-stage time and cache-hit-rate breakdown "
                          "of one trace file")
    trace_summarize.add_argument("trace_file", metavar="TRACE",
                                 help="trace file written by --trace FILE")
    trace_summarize.add_argument("--format", default="table",
                                 choices=["table", "json"],
                                 help="output format (default: table)")
    return parser


def _add_spec_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--spec", default="paper", choices=["paper", "audio"],
                        help="base chain specification (default: paper Table I)")
    parser.add_argument("--spec-json", metavar="FILE",
                        help="load the base ChainSpec from a JSON file "
                             "(ChainSpec.to_dict layout; overrides --spec)")
    parser.add_argument("--sinc-orders-base", metavar="SPLIT", default=None,
                        help="base sinc order split as a comma list (e.g. 4,4,6); "
                             "'auto' lets the designer choose")


def _add_flow_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--snr", action="store_true",
                        help="also simulate the end-to-end SNR (slower)")
    parser.add_argument("--snr-samples", type=int, default=16384,
                        help="modulator samples for the SNR simulation")
    parser.add_argument("--no-activity", action="store_true",
                        help="skip toggle-activity measurement (faster power model)")
    parser.add_argument("--library", default="generic-45nm",
                        choices=_library_choices(),
                        help="standard-cell library for power/area estimation")


def _load_spec(args: argparse.Namespace):
    from repro.core.spec import ChainSpec, audio_chain_spec, paper_chain_spec

    if getattr(args, "spec_json", None):
        _require_file(args.spec_json, "spec JSON file")
        try:
            with open(args.spec_json, "r", encoding="utf-8") as fh:
                return ChainSpec.from_dict(json.load(fh))
        except (KeyError, TypeError, ValueError) as exc:
            # ValueError covers JSONDecodeError and UnicodeDecodeError.
            raise CLIError(f"invalid spec JSON file {args.spec_json}: "
                           f"{type(exc).__name__}: {exc}")
    return audio_chain_spec() if args.spec == "audio" else paper_chain_spec()


def _load_options(args: argparse.Namespace, spec):
    from repro.core.chain import ChainDesignOptions

    split = getattr(args, "sinc_orders_base", None)
    if split is None:
        # The default (4, 4, 6) only fits the paper's OSR; let the designer
        # choose whenever a different base spec is in play.
        if spec.num_halving_stages - 1 != 3:
            return ChainDesignOptions(sinc_orders=None)
        return ChainDesignOptions()
    if split == "auto":
        return ChainDesignOptions(sinc_orders=None)
    return ChainDesignOptions(sinc_orders=_parse_split(split))


def _parse_split(text: str):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise CLIError(f"invalid sinc order split {text!r}: expected a "
                       f"comma-separated list of integers like 4,4,6")


def _write_or_print(text: str, path: Optional[str], io: CommandIO) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        io.out(text)


def _write_run_reports(args: argparse.Namespace, io: CommandIO, result,
                       markdown, json_report) -> None:
    """Write a run's markdown report to ``--markdown`` (or stdout) and its
    canonical JSON report to ``--json``, announcing each file written.

    ``markdown`` and ``json_report`` are the run kind's renderers, called
    on ``result``.
    """
    _write_or_print(markdown(result), args.markdown, io)
    if args.markdown:
        io.out(f"Markdown report written to {args.markdown}")
    if args.json:
        _write_or_print(json_report(result), args.json, io)
        io.out(f"JSON report written to {args.json}")


def _print_run_summary(io: CommandIO, result, noun: str) -> None:
    """The closing ``N <noun> in Xs (...)`` stderr line of a sweep,
    scenario or robustness run: executor, jobs, result-cache hits and
    misses, and the shared-stage reuses of the run's artifact store."""
    store = result.metadata.get("artifact_store", {})
    io.err(f"\n{len(result)} {noun} in {result.elapsed_s:.2f}s "
           f"({result.metadata.get('executor', 'inline')} executor, "
           f"{result.jobs} jobs, {result.cache_hits} cached, "
           f"{result.cache_misses} executed, "
           f"{store.get('hits', 0)} shared-stage reuses)")


def _shared_store(args: argparse.Namespace):
    """The daemon's hot artifact store threaded through :func:`run_command`
    (``None`` for plain CLI invocations: each run owns a fresh store)."""
    return getattr(args, "shared_store", None)


def _open_cache(spec: Optional[str]):
    """Open a ``--cache-dir`` directory (``None`` stays ``None``).

    :func:`repro.explore.store.open_store` rejects a path that names an
    existing file or a ``scheme://`` spec; that becomes a one-line error
    here, before any work, instead of a traceback from the first write.
    """
    from repro.explore.store import open_store

    if spec is None:
        return None
    try:
        return open_store(spec)
    except ValueError as exc:
        raise CLIError(str(exc))


def _jobs(args: argparse.Namespace) -> int:
    """The validated ``--jobs``, or 1 for a served request.

    A served request runs on a daemon worker thread with the hot shared
    store: forking a process pool there could copy a store lock another
    request holds, and worker-computed stages would never reach the hot
    store.  The service's concurrency lives in its own pool instead.
    """
    _require_positive(args.jobs, "--jobs")
    return 1 if _shared_store(args) is not None else args.jobs


@contextlib.contextmanager
def _maybe_trace(args: argparse.Namespace):
    """Install a span tracer for this invocation when ``--trace FILE``
    was given.

    Tracing is strictly out-of-band — the traced command's stdout,
    stderr and report files are byte-identical with or without it.  The
    previous tracer is restored on exit (a served request never clobbers
    the daemon's own tracer), the file is closed, and process-pool
    worker side files are folded into FILE so one file holds the whole
    run.
    """
    path = getattr(args, "trace", None)
    if not path:
        yield
        return
    from repro.obs import trace as obs_trace

    try:
        tracer = obs_trace.Tracer(path)
    except OSError as exc:
        raise CLIError(f"cannot open trace file {path}: {exc}")
    previous = obs_trace.install(tracer)
    try:
        yield
    finally:
        obs_trace.uninstall(previous)
        tracer.close()
        obs_trace.merge_worker_traces(path)


def _cmd_design(args: argparse.Namespace, io: CommandIO) -> int:
    from repro.flow import flow_report_text, run_design_flow
    from repro.hardware.stdcell import library_by_name

    spec = _load_spec(args)
    if args.snr:
        _require_snr_record("--snr-samples", args.snr_samples,
                            [(spec.total_decimation, "")])
    result = run_design_flow(
        spec=spec,
        options=_load_options(args, spec),
        library=library_by_name(args.library),
        include_snr_simulation=args.snr,
        snr_samples=args.snr_samples,
        measure_activity=not args.no_activity,
        artifacts=_shared_store(args),
    )
    io.out(flow_report_text(result))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(result.record(), fh, sort_keys=True, indent=2)
        io.out(f"\nFlow record written to {args.json}")
    return 0


def _cmd_verify(args: argparse.Namespace, io: CommandIO) -> int:
    from repro.flow import run_design_flow, verification_table_markdown
    from repro.hardware.stdcell import library_by_name

    spec = _load_spec(args)
    if args.snr:
        _require_snr_record("--snr-samples", args.snr_samples,
                            [(spec.total_decimation, "")])
    # With --snr the simulated end-to-end SNR becomes a verification row and
    # counts toward the verdict/exit code (run_design_flow folds it in).
    result = run_design_flow(
        spec=spec,
        options=_load_options(args, spec),
        library=library_by_name(args.library),
        include_snr_simulation=args.snr,
        snr_samples=args.snr_samples,
        measure_activity=not args.no_activity,
        artifacts=_shared_store(args),
    )
    io.out(verification_table_markdown(result))
    io.out(f"\nOverall: {'PASS' if result.meets_spec else 'FAIL'}")
    return 0 if result.meets_spec else 1


def _cmd_sweep(args: argparse.Namespace, io: CommandIO) -> int:
    from repro.explore import (
        SweepSpec,
        run_sweep,
        sweep_report_json,
        sweep_report_markdown,
    )

    jobs = _jobs(args)
    splits: List[object] = []
    for entry in args.sinc_orders:
        splits.append("auto" if entry == "auto" else _parse_split(entry))
    spec = _load_spec(args)
    sweep = SweepSpec(
        base=spec,
        options=_load_options(args, spec),
        osr=tuple(args.osr),
        bandwidth_hz=tuple(args.bandwidth_hz),
        sinc_orders=tuple(splits),
        output_bits=tuple(args.output_bits),
        halfband_attenuation_db=tuple(args.halfband_att),
        halfband_coefficient_bits=tuple(args.halfband_coeff_bits),
    )
    try:
        points = sweep.points
    except ValueError as exc:
        raise CLIError(str(exc))
    if args.snr:
        _require_snr_record(
            "--snr-samples", args.snr_samples,
            [(point.spec.total_decimation, f" for point '{point.label}'")
             for point in points])
    progress = None if args.quiet else io.err
    result = run_sweep(
        sweep,
        jobs=jobs,
        cache_dir=_open_cache(None if args.no_cache else args.cache_dir),
        include_snr=args.snr,
        snr_samples=args.snr_samples,
        measure_activity=args.measure_activity,
        library=args.library,
        progress=progress,
        resume=not args.no_resume,
        store=_shared_store(args),
    )
    _write_run_reports(args, io, result, sweep_report_markdown,
                       sweep_report_json)
    _print_run_summary(io, result, "points")
    return 0


def _selected_scenarios(args: argparse.Namespace):
    from repro.scenarios import get_scenario, scenario_names

    if args.run_all or not args.names:
        return [get_scenario(name) for name in scenario_names()]
    unknown = [name for name in args.names if name not in scenario_names()]
    if unknown:
        raise CLIError(
            f"unknown scenario(s): {', '.join(unknown)}; registered: "
            f"{', '.join(scenario_names())}")
    return [get_scenario(name) for name in args.names]


def _run_scenario_selection(args: argparse.Namespace, io: CommandIO):
    from repro.scenarios import run_scenario_suite

    jobs = _jobs(args)
    progress = None if args.quiet else io.err
    return run_scenario_suite(
        _selected_scenarios(args),
        jobs=jobs,
        cache_dir=_open_cache(args.cache_dir),
        progress=progress,
        store=_shared_store(args),
    )


def _cmd_scenario(args: argparse.Namespace, io: CommandIO) -> int:
    handlers = {
        "list": _cmd_scenario_list,
        "run": _cmd_scenario_run,
        "check": _cmd_scenario_check,
    }
    return handlers[args.scenario_command](args, io)


def _cmd_scenario_list(args: argparse.Namespace, io: CommandIO) -> int:
    from repro.scenarios import scenario_list_markdown

    io.out(scenario_list_markdown())
    return 0


def _cmd_scenario_run(args: argparse.Namespace, io: CommandIO) -> int:
    from repro.scenarios import write_golden
    from repro.scenarios.report import (scenario_report_json,
                                        scenario_report_markdown)

    suite = _run_scenario_selection(args, io)
    _write_run_reports(args, io, suite, scenario_report_markdown,
                       scenario_report_json)
    if args.write_goldens:
        for result in suite:
            path = write_golden(result.name, result.record)
            io.err(f"Golden record written to {path}")
    _print_run_summary(io, suite, "scenarios")
    return 0


def _print_golden_diffs(io: CommandIO, name: str, diffs) -> None:
    """The ``[DIFF] name: N mismatched field(s)`` block of ``scenario
    check`` and ``robustness check``: the first 20 diffs, then a count of
    the rest."""
    io.out(f"[DIFF] {name}: {len(diffs)} mismatched field(s)")
    for diff in diffs[:20]:
        io.out(f"       {diff}")
    if len(diffs) > 20:
        io.out(f"       ... and {len(diffs) - 20} more")


def _cmd_scenario_check(args: argparse.Namespace, io: CommandIO) -> int:
    from repro.scenarios import check_record

    suite = _run_scenario_selection(args, io)
    if suite.cache_hits:
        # A check over cached records validates what was in the cache, not
        # what the current code computes — fine within one CI run, a
        # footgun with a stale local cache.
        io.err(f"note: {suite.cache_hits} record(s) served from the result "
               f"cache; omit --cache-dir for a fully fresh check")
    failures = 0
    for result in suite:
        diffs = check_record(result.name, result.record)
        if not diffs:
            io.out(f"[ok]   {result.name}")
            continue
        failures += 1
        _print_golden_diffs(io, result.name, diffs)
    total = len(suite)
    if failures:
        io.out(f"\n{failures}/{total} scenario(s) diverge from their golden "
               f"records (rerun with 'scenario run --write-goldens' only if "
               f"the change is intended)")
        return 1
    io.out(f"\nOK: {total} scenario(s) match their golden records")
    return 0


def _build_perturbation_model(args: argparse.Namespace):
    from repro.hardware.corners import CornerModel
    from repro.robustness import (CSDDropout, ClockJitter, CoefficientDither,
                                  InputMismatch, PerturbationModel)

    _require_positive(args.variants, "--variants")
    disabled = set(args.disable)
    return PerturbationModel(
        dither=None if "dither" in disabled else CoefficientDither(),
        csd_dropout=None if "dropout" in disabled else CSDDropout(),
        mismatch=None if "mismatch" in disabled else InputMismatch(),
        jitter=None if "jitter" in disabled else ClockJitter(),
        corners=None if "corners" in disabled else CornerModel(),
        chain_variants=args.variants,
    )


def _cmd_robustness(args: argparse.Namespace, io: CommandIO) -> int:
    handlers = {
        "run": _cmd_robustness_run,
        "check": _cmd_robustness_check,
    }
    return handlers[args.robustness_command](args, io)


def _cmd_robustness_run(args: argparse.Namespace, io: CommandIO) -> int:
    from repro.robustness import (robustness_report_json,
                                  robustness_report_markdown,
                                  run_robustness_suite)

    jobs = _jobs(args)
    _require_positive(args.samples, "--samples")
    _require_positive(args.stimulus_samples, "--stimulus-samples")
    if args.seed < 0:
        raise CLIError(f"--seed must be a non-negative integer "
                       f"(got {args.seed})")
    if not 0.0 < args.min_yield <= 1.0:
        raise CLIError(f"--min-yield must lie in (0, 1] "
                       f"(got {args.min_yield})")
    if not args.run_all and not args.names:
        raise CLIError("name one or more scenarios or pass --all "
                       "(see 'scenario list')")
    scenarios = _selected_scenarios(args)
    if args.stimulus_samples is not None:
        from repro.robustness import MIN_ANALYSIS_OUTPUTS

        _require_snr_record(
            "--stimulus-samples", args.stimulus_samples,
            [(scenario.spec.total_decimation,
              f" for scenario '{scenario.name}'") for scenario in scenarios],
            min_outputs=MIN_ANALYSIS_OUTPUTS)
    model = _build_perturbation_model(args)
    progress = None if args.quiet else io.err
    suite = run_robustness_suite(
        scenarios,
        model=model,
        n_samples=args.samples,
        seed=args.seed,
        stimulus_samples=args.stimulus_samples,
        jobs=jobs,
        cache_dir=_open_cache(args.cache_dir),
        min_pass_fraction=args.min_yield,
        progress=progress,
        store=_shared_store(args),
    )
    _write_run_reports(args, io, suite, robustness_report_markdown,
                       robustness_report_json)
    _print_run_summary(io, suite, f"run(s) x {args.samples} samples")
    return 0


def _cmd_robustness_check(args: argparse.Namespace, io: CommandIO) -> int:
    from repro.robustness import (GOLDEN_RUN_SETTINGS, robustness_golden_name,
                                  run_robustness)
    from repro.scenarios import check_record, write_golden

    jobs = _jobs(args)
    settings = GOLDEN_RUN_SETTINGS
    report = run_robustness(
        settings["scenario"],
        n_samples=settings["n_samples"],
        seed=settings["seed"],
        stimulus_samples=settings["stimulus_samples"],
        jobs=jobs,
        cache_dir=_open_cache(args.cache_dir),
        store=_shared_store(args),
    )
    if report.from_cache:
        io.err("note: record served from the result cache; omit --cache-dir "
               "for a fully fresh check")
    golden = robustness_golden_name(settings["scenario"])
    if args.write_golden:
        path = write_golden(golden, report.record)
        io.out(f"Golden record written to {path}")
        return 0
    diffs = check_record(golden, report.record)
    if not diffs:
        io.out(f"OK: pinned {settings['n_samples']}-sample Monte Carlo over "
               f"{settings['scenario']} matches its golden record")
        return 0
    _print_golden_diffs(io, settings["scenario"], diffs)
    io.out("\nrerun with 'robustness check --write-golden' only if the "
           "change is intended")
    return 1


def _cmd_report(args: argparse.Namespace, io: CommandIO) -> int:
    """Re-render a saved sweep, scenario or robustness JSON report.

    :func:`repro.explore.render_report_from_json` reads the report kind
    from the payload.  Unreadable files, unknown schemas and payloads
    missing required fields are user-input errors, not crashes: they
    convert to one-line :class:`CLIError` messages.
    """
    from repro.explore import render_report_from_json

    _require_file(args.results, "report file")
    try:
        with open(args.results, "r", encoding="utf-8") as fh:
            rendered = render_report_from_json(fh.read(), args.format)
    except ValueError as exc:
        # Covers JSONDecodeError and UnicodeDecodeError.
        raise CLIError(f"invalid report file {args.results}: {exc}")
    except (KeyError, TypeError, AttributeError) as exc:
        raise CLIError(f"invalid report file {args.results}: "
                       f"{type(exc).__name__}: {exc}")
    _write_or_print(rendered, args.out, io)
    return 0


def _cmd_cache(args: argparse.Namespace, io: CommandIO) -> int:
    from repro.explore.store import CACHE_SCHEMA_VERSION

    if args.cache_command == "prune":
        for flag, value in (("--older-than-days", args.older_than_days),
                            ("--tmp-grace-s", args.tmp_grace_s)):
            if value is not None and not 0 <= value < math.inf:
                raise CLIError(f"{flag} must be non-negative and finite "
                               f"(got {value})")
    cache = _open_cache(args.cache_dir)
    if not cache.directory.is_dir():
        # Inspection must not create the directory as a side effect.
        if args.cache_command == "stats":
            io.out(f"Cache directory : {args.cache_dir} (does not exist)")
            io.out(f"Schema version  : {CACHE_SCHEMA_VERSION}")
            io.out("Entries         : 0")
            io.out("Total bytes     : 0")
            io.out("Stale entries   : 0")
            io.out("Orphaned tmp    : 0")
        else:
            io.out(f"Removed 0 cache entries from {args.cache_dir}")
        return 0
    if args.cache_command == "stats":
        try:
            stats = cache.stats()
        except OSError as exc:
            raise CLIError(str(exc))
        io.out(f"Cache directory : {stats['directory']}")
        io.out(f"Schema version  : {stats['schema']}")
        io.out(f"Entries         : {stats['entries']}")
        io.out(f"Total bytes     : {stats['total_bytes']}")
        io.out(f"Stale entries   : {stats['stale_entries']}")
        io.out(f"Orphaned tmp    : {stats['tmp_files']} "
               f"({stats['tmp_bytes']} bytes)")
        return 0
    older = (args.older_than_days * 86400.0
             if args.older_than_days is not None else None)
    from repro.explore.store import TMP_GRACE_S

    grace = args.tmp_grace_s if args.tmp_grace_s is not None else TMP_GRACE_S
    try:
        removed = cache.prune(older_than_s=older, everything=args.all,
                              tmp_grace_s=grace)
    except OSError as exc:
        raise CLIError(str(exc))
    io.out(f"Removed {removed} cache entries from {cache.directory}")
    return 0


def _cmd_serve(args: argparse.Namespace, io: CommandIO) -> int:
    from repro.serve.server import ReproServer

    _require_positive(args.jobs, "--jobs")
    _require_positive(args.max_artifacts, "--max-artifacts")
    if args.port < 0 or args.port > 65535:
        raise CLIError(f"--port must lie in [0, 65535] (got {args.port})")
    if args.max_queue < -1:
        raise CLIError(f"--max-queue must be -1 (unbounded) or "
                       f"non-negative (got {args.max_queue})")
    if args.drain_grace_s < 0:
        raise CLIError(f"--drain-grace-s must be non-negative "
                       f"(got {args.drain_grace_s})")
    if args.write_timeout_s <= 0:
        raise CLIError(f"--write-timeout-s must be positive "
                       f"(got {args.write_timeout_s})")
    _open_cache(args.cache_dir)  # reject an unusable directory up front
    server = ReproServer(
        host=args.host,
        port=args.port,
        unix_path=args.socket,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        max_artifacts=args.max_artifacts,
        max_queue=None if args.max_queue == -1 else args.max_queue,
        drain_grace_s=args.drain_grace_s,
        write_timeout_s=args.write_timeout_s,
    )
    try:
        return server.serve_forever(announce=io.out)
    except OSError as exc:
        raise CLIError(f"cannot bind {server.requested_endpoint()}: {exc}")


def _cmd_client(args: argparse.Namespace, io: CommandIO) -> int:
    from repro.serve.client import ProtocolError, call, parse_address

    if args.connect is not None and args.socket is not None:
        raise CLIError("--connect and --socket are mutually exclusive")
    if args.timeout <= 0:
        raise CLIError(f"--timeout must be positive (got {args.timeout})")
    if args.retries < 0:
        raise CLIError(f"--retries must be non-negative "
                       f"(got {args.retries})")
    if args.deadline_ms is not None and args.deadline_ms < 1:
        raise CLIError(f"--deadline-ms must be a positive integer "
                       f"(got {args.deadline_ms})")
    if args.socket is not None:
        text = f"unix:{args.socket}"
    else:
        text = (args.connect if args.connect is not None
                else f"{DEFAULT_SERVE_HOST}:{DEFAULT_SERVE_PORT}")
    try:
        address = parse_address(text)
    except ValueError as exc:
        raise CLIError(str(exc))
    # Every failure below maps to the CLI's one-line `error: ...` + exit 2
    # convention — a refused connection, a response cut off mid-line, a
    # socket timeout and a malformed response body must all be
    # indistinguishable (in shape) from an argument error.
    try:
        response = call(address, args.verb, list(args.args),
                        timeout=args.timeout, retries=args.retries,
                        deadline_ms=args.deadline_ms)
    except ProtocolError as exc:
        raise CLIError(f"bad response from {address}: {exc}")
    except ConnectionRefusedError as exc:
        raise CLIError(f"cannot reach server at {address}: {exc}")
    except ConnectionError as exc:
        raise CLIError(f"connection to {address} failed: {exc}")
    except (TimeoutError, OSError) as exc:
        raise CLIError(f"cannot reach server at {address}: {exc}")
    # Relay the served command's streams verbatim: byte-identity with the
    # direct CLI invocation is the contract (pinned by tests/test_cli.py).
    io.stdout.write(response.get("stdout", ""))
    io.stdout.flush()
    io.stderr.write(response.get("stderr", ""))
    io.stderr.flush()
    return int(response.get("exit_code", 2))


def _cmd_trace(args: argparse.Namespace, io: CommandIO) -> int:
    from repro.obs import trace as obs_trace

    _require_file(args.trace_file, "trace file")
    try:
        spans = obs_trace.read_spans(args.trace_file)
        obs_trace.validate_spans(spans)
    except (json.JSONDecodeError, UnicodeDecodeError, ValueError) as exc:
        raise CLIError(f"invalid trace file {args.trace_file}: {exc}")
    if not spans:
        raise CLIError(f"trace file {args.trace_file} holds no spans")
    if args.format == "json":
        io.out(json.dumps(obs_trace.summarize_spans(spans),
                          indent=2, sort_keys=True))
    else:
        io.out(obs_trace.summarize_text(spans))
    return 0


_HANDLERS = {
    "design": _cmd_design,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
    "scenario": _cmd_scenario,
    "robustness": _cmd_robustness,
    "report": _cmd_report,
    "cache": _cmd_cache,
    "serve": _cmd_serve,
    "client": _cmd_client,
    "trace": _cmd_trace,
}


#: The process's one parser, built by :func:`_shared_parser` on first use.
#: Invocations and threads share it safely: argparse parsing writes only
#: into each call's fresh ``Namespace``, and help/usage/error text goes
#: through the per-thread :class:`CommandIO`.  List defaults
#: (``default=[]``) are shared objects too, so handlers never mutate
#: ``args`` values in place.
_PARSER: Optional[argparse.ArgumentParser] = None
_PARSER_LOCK = threading.Lock()


def _shared_parser() -> argparse.ArgumentParser:
    """The process-wide parser: :func:`build_parser` runs once, under a
    lock so concurrent first requests of a daemon build it only once."""
    global _PARSER
    with _PARSER_LOCK:
        if _PARSER is None:
            _PARSER = build_parser()
        return _PARSER


def run_command(argv: Optional[Sequence[str]] = None,
                stdout: Optional[IO[str]] = None,
                stderr: Optional[IO[str]] = None,
                store=None) -> int:
    """Parse and run one CLI invocation against explicit streams.

    This is the entry point shared by :func:`main` (process streams) and
    the serve daemon (per-request buffers + the hot shared
    :class:`~repro.flow.artifacts.ArtifactStore` via ``store``).  Returns
    the exit code; all output — including argparse usage/help text — goes
    to the given streams, so concurrent invocations in one process never
    interleave.

    Every invocation parses with the same parser, built once per process
    on first use (see :func:`_shared_parser`): building its ~20
    subparsers costs ~5 ms, more than a served store hit's own work.
    """
    io = CommandIO(stdout=stdout, stderr=stderr)
    previous = _current_io()
    _COMMAND_IO.io = io
    try:
        try:
            args = _shared_parser().parse_args(argv)
        except SystemExit as exc:
            code = exc.code
            if code is None:
                return 0
            return code if isinstance(code, int) else 2
        args.shared_store = store
        try:
            with _maybe_trace(args):
                return _HANDLERS[args.command](args, io)
        except CLIError as exc:
            io.err(f"error: {exc}")
            return 2
    finally:
        _COMMAND_IO.io = previous


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    User-input errors (:class:`CLIError`) print one ``error: ...`` line to
    stderr and exit with code 2, matching :mod:`argparse`'s own usage
    errors; run failures (verification FAIL, golden drift) exit 1.
    """
    return run_command(argv)
