"""The benchmark workloads, their generated inputs and their metrics.

Every workload is a closed loop driven by one generator process (this
one).  The program sees only the argv and requests generated here from
``--seed``.  Untraced runs report :data:`END_TO_END`; traced runs
alternate plain operations with operations that have every layer wrapped,
and report :data:`PER_LAYER`.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import re
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from harness import (BENCH_DIR, Child, Context, Result, percentile, read_text,
                     reap)

LAYERS_SCRIPT = os.path.join(BENCH_DIR, "layers.py")
READY_SCRIPT = os.path.join(BENCH_DIR, "ready.py")

END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

_LAYER_STATS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("dsm.ntf.synthesize_ntf", ("calls", "self_s")),
    ("filters.halfband.SaramakiHalfbandDesigner.design", ("calls", "self_s")),
    ("filters.halfband.SaramakiHalfband.zero_phase_response",
     ("calls", "self_s")),
    ("filters.equalizer.design_droop_equalizer", ("self_s",)),
    ("core.verification.verify_chain", ("self_s",)),
    ("filters.cascade.overall_response", ("self_s",)),
    ("dsm.modulator.FastErrorFeedbackSimulator.simulate", ("items", "self_s")),
    ("dsm.modulator.FastErrorFeedbackSimulator.simulate_batch",
     ("items", "self_s")),
    ("dsm.signals.jittered_tone", ("calls", "self_s")),
    ("core.chain.DecimationChain.process_fixed", ("items", "self_s")),
    ("filters.hogenauer.HogenauerDecimator.process_batch", ("self_s",)),
    ("filters.polyphase.convolve_strided_matmul", ("self_s",)),
    ("dsm.spectrum.analyze_tone_batch", ("self_s",)),
    ("robustness.engine.execute_robustness_payload", ("self_s",)),
    ("dsm.modulator.ErrorFeedbackSimulator.simulate", ("items", "self_s")),
    ("hardware.power.measure_hogenauer_activity", ("self_s",)),
    ("filters.hogenauer.HogenauerDecimator.process", ("self_s",)),
    ("hardware.synthesis.SynthesisFlow.run", ("self_s",)),
    ("explore.store.ArtifactCAS.get", ("calls", "hit_ratio", "bytes",
                                       "self_s")),
    ("explore.store.ArtifactCAS.put", ("calls", "bytes", "self_s")),
    ("explore.runner.execute_payloads", ("self_s",)),
    ("scenarios.runner.execute_scenario_payload", ("self_s",)),
)
_STAT_UNITS = {"calls": "count", "items": "count", "self_s": "s",
               "bytes": "B", "hit_ratio": "ratio"}

#: Per-layer metrics of a traced run.  Counts, bytes and times are per
#: operation (per request on serve-mix).
PER_LAYER: Dict[str, str] = {
    "startup.interpreter_s": "s",
    "startup.import_s": "s",
    "startup.scipy_signal_import_s": "s",
    **{f"{layer}.{stat}": _STAT_UNITS[stat]
       for layer, stats in _LAYER_STATS for stat in stats},
    "flow.artifacts.ArtifactStore.hits": "count",
    "flow.artifacts.ArtifactStore.misses": "count",
    "flow.artifacts.ArtifactStore.hit_ratio": "ratio",
    "flow.artifacts.ArtifactStore.evictions": "count",
    "serve.queue_wait_p50_ms": "ms",
    "serve.queue_wait_p99_ms": "ms",
    "serve.coalesced": "count",
    "serve.shed": "count",
    "serve.compute_p50_ms": "ms",
    "serve.transport_p50_ms": "ms",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.compute_share": "ratio",
    "calib_s": "s",
}

#: Layers each workload must exercise (at least one call in a traced run).
COVERAGE: Dict[str, Tuple[str, ...]] = {
    "scenario-suite": (
        "dsm.ntf.synthesize_ntf",
        "filters.halfband.SaramakiHalfbandDesigner.design",
        "filters.halfband.SaramakiHalfband.zero_phase_response",
        "filters.equalizer.design_droop_equalizer",
        "core.verification.verify_chain",
        "filters.cascade.overall_response",
        "dsm.modulator.FastErrorFeedbackSimulator.simulate",
        "scenarios.runner.execute_scenario_payload",
        "explore.runner.execute_payloads",
    ),
    "robustness-mc": (
        "dsm.modulator.FastErrorFeedbackSimulator.simulate_batch",
        "dsm.signals.jittered_tone",
        "core.chain.DecimationChain.process_fixed",
        "filters.hogenauer.HogenauerDecimator.process_batch",
        "filters.polyphase.convolve_strided_matmul",
        "dsm.spectrum.analyze_tone_batch",
        "robustness.engine.execute_robustness_payload",
        "explore.runner.execute_payloads",
    ),
    "serve-mix": (
        "dsm.ntf.synthesize_ntf",
        "filters.halfband.SaramakiHalfbandDesigner.design",
        "dsm.modulator.FastErrorFeedbackSimulator.simulate",
        "hardware.synthesis.SynthesisFlow.run",
        "dsm.modulator.ErrorFeedbackSimulator.simulate",
        "hardware.power.measure_hogenauer_activity",
        "filters.hogenauer.HogenauerDecimator.process",
        "explore.store.ArtifactCAS.get",
        "explore.store.ArtifactCAS.put",
        "scenarios.runner.execute_scenario_payload",
        "explore.runner.execute_payloads",
    ),
}

#: Fewest start-ups a run measures; setup_s is their median.
SETUP_SAMPLES = 5

_IMPORTTIME = re.compile(r"^import time:\s*\d+ \|\s*(\d+) \| (\s*\S+)\s*$")


# ----------------------------------------------------------------------
# Shared pieces
# ----------------------------------------------------------------------
def repro_argv(args: Sequence[str]) -> List[str]:
    """The plain CLI invocation of ``args`` (``python -m repro ...``)."""
    return [sys.executable, "-m", "repro", *args]


def run_cli(ctx: Context, args: Sequence[str]) -> Tuple[Child, Optional[float]]:
    """One CLI call in a fresh process, and its start-up time: spawn until
    ``repro.cli`` is imported (``None`` if it never got that far)."""
    ready = ctx.path("ready")
    child = ctx.spawn([sys.executable, READY_SCRIPT, ready, *args])
    try:
        return child, float(read_text(ready)) - child.started
    except (OSError, ValueError):
        return child, None


def traced_argv(dump: str, args: Sequence[str]) -> List[str]:
    """The traced invocation: layer bootstrap plus ``-X importtime``."""
    return [sys.executable, "-X", "importtime", LAYERS_SCRIPT, dump, *args]


def top_up_setup(ctx: Context, setup: List[float]) -> None:
    """Add start-ups of a light command until ``setup`` holds at least
    :data:`SETUP_SAMPLES` of them."""
    while len(setup) < SETUP_SAMPLES:
        child, ready_s = run_cli(ctx, ["scenario", "list"])
        if ready_s is None:
            raise RuntimeError(f"start-up probe failed: {child.stderr[-400:]}")
        setup.append(ready_s)


def run_loop(run_op: Callable[[], None], seconds: float) -> List[float]:
    """Closed loop of whole operations; returns their durations.

    An operation starts only while half the previous one's duration still
    fits in ``seconds`` (one always runs), so a run overshoots by at most
    half an operation.
    """
    durations: List[float] = []
    loop_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - loop_start
        if durations and elapsed + durations[-1] / 2 > seconds:
            break
        start = time.perf_counter()
        run_op()
        durations.append(time.perf_counter() - start)
    return durations


def end_to_end(setup: Sequence[float], latencies: Sequence[float],
               busy_s: float, rss_mb: float) -> Tuple[Dict[str, float],
                                                     Dict[str, str]]:
    """The end-to-end metric block and its sample-count notes."""
    n = len(latencies)
    metrics = {
        "setup_s": statistics.median(setup),
        "op_p50_s": percentile(latencies, 0.50),
        "op_p90_s": percentile(latencies, 0.90),
        "ops_per_s": n / busy_s,
        "peak_rss_mb": rss_mb,
    }
    notes = {
        "op_p50_s": f"(nearest rank, n={n})",
        "op_p90_s": f"(nearest rank, n={n}, "
                    f"{n - math.ceil(0.9 * n)} beyond)",
        "ops_per_s": f"({n} ops in {busy_s:.2f}s)",
    }
    return metrics, notes


def scipy_signal_import_s(stderr: str) -> float:
    """Cumulative import time of ``scipy.signal`` from ``-X importtime``.

    The package's own line can be missing (scipy loads submodules lazily),
    so this sums every ``scipy.signal*`` import none of whose ancestors is
    one.  ``-X importtime`` prints children before their parent, indented
    two spaces per level, so the lines read backwards are a pre-order walk.
    """
    total = 0.0
    ancestors: List[str] = []
    for line in reversed(stderr.splitlines()):
        match = _IMPORTTIME.match(line)
        if not match:
            continue
        depth = (len(match.group(2)) - len(match.group(2).lstrip())) // 2
        name = match.group(2).strip()
        del ancestors[depth:]
        if name.startswith("scipy.signal") and not any(
                parent.startswith("scipy.signal") for parent in ancestors):
            total += int(match.group(1)) / 1e6
        ancestors.append(name)
    return total


class LayerTotals:
    """Sums the dumps of traced children into :data:`PER_LAYER` values."""

    def __init__(self) -> None:
        self.layers: Dict[str, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self.store: Dict[str, float] = defaultdict(float)
        self.startup: Dict[str, float] = defaultdict(float)
        self.wall_s = 0.0
        self.computing_roots = 0

    def add_child(self, child: Child, dump_path: str) -> None:
        """Fold one traced child (its dump and ``-X importtime`` log)."""
        with open(dump_path, "r", encoding="utf-8") as fh:
            dump = json.load(fh)
        for name, entry in dump["layers"].items():
            for stat, value in entry.items():
                self.layers[name][stat] += value
        for key, value in dump["artifact_store"].items():
            self.store[key] += value
        self.wall_s += dump["wall_s"]
        self.computing_roots += dump["computing_roots"]
        self.startup["interpreter_s"] += dump["booted"] - child.started
        self.startup["import_s"] += dump["import_s"]
        self.startup["scipy_signal_import_s"] += scipy_signal_import_s(
            child.stderr)

    def self_total_s(self) -> float:
        return sum(entry["self_s"] for entry in self.layers.values())

    def accounting_error(self) -> float:
        """|sum of self times + unattributed - traced wall| / wall (the
        self time of ``main`` is the unattributed part)."""
        if self.wall_s <= 0:
            return 0.0
        return abs(self.self_total_s() - self.wall_s) / self.wall_s

    def metrics(self, ops: int) -> Dict[str, float]:
        values: Dict[str, float] = {}
        for key, total in self.startup.items():
            values[f"startup.{key}"] = total / ops
        for layer, stats in _LAYER_STATS:
            entry = self.layers.get(layer, {})
            calls = entry.get("calls", 0)
            for stat in stats:
                if stat == "hit_ratio":
                    values[f"{layer}.{stat}"] = (entry.get("hits", 0) / calls
                                                 if calls else 0.0)
                else:
                    values[f"{layer}.{stat}"] = entry.get(stat, 0) / ops
        lookups = self.store["hits"] + self.store["misses"]
        prefix = "flow.artifacts.ArtifactStore"
        values[f"{prefix}.hits"] = self.store["hits"] / ops
        values[f"{prefix}.misses"] = self.store["misses"] / ops
        values[f"{prefix}.evictions"] = self.store["evictions"] / ops
        values[f"{prefix}.hit_ratio"] = (self.store["hits"] / lookups
                                         if lookups else 0.0)
        values["trace.wall_s"] = self.wall_s / ops
        values["trace.unattributed_s"] = (
            self.layers.get("main", {}).get("self_s", 0.0) / ops)
        values["trace.compute_share"] = self.computing_roots / ops
        return values


def _zero_serve_metrics() -> Dict[str, float]:
    return {name: 0.0 for name in PER_LAYER if name.startswith("serve.")}


def traced_result(totals: LayerTotals, ops: int, untraced_s: float,
                  traced_s: float, attempted: int, failed: int,
                  serve: Optional[Dict[str, float]] = None) -> Result:
    """Assemble a traced run's result; a broken self-time sum fails it."""
    metrics = totals.metrics(ops)
    metrics.update(serve if serve is not None else _zero_serve_metrics())
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    error = totals.accounting_error()
    notes = {"trace.wall_s": f"(self times + unattributed within "
                             f"{error:.2e} of wall)"}
    if error > 0.01:
        failed += 1
        notes["trace.wall_s"] = f"(ACCOUNTING ERROR {error:.2%})"
    return Result(attempted, failed, metrics, notes)


# ----------------------------------------------------------------------
# Fresh-process CLI workloads
# ----------------------------------------------------------------------
class ProcessWorkload:
    """A closed loop of fresh CLI processes (see :func:`run_cli`), one
    client.

    Every operation runs :attr:`args` and writes its JSON report to a
    fresh path; :meth:`finish` checks the reports after the timed loop.
    """

    args: List[str] = []

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.reports: List[str] = []

    def next_args(self) -> List[str]:
        """The next operation: :attr:`args` plus ``--json`` and a fresh
        path."""
        self.reports.append(self.ctx.path("report.json"))
        return self.args + ["--json", self.reports[-1]]

    def finish(self) -> int:
        """Checks made after the timed loop; returns extra failures."""
        raise NotImplementedError

    def run(self, traced: bool) -> Result:
        return self.run_traced() if traced else self.run_untraced()

    def run_untraced(self) -> Result:
        setup: List[float] = []
        latencies: List[float] = []
        peak = [0.0]
        failed = [0]

        def run_op() -> None:
            child, ready_s = run_cli(self.ctx, self.next_args())
            if ready_s is not None:
                setup.append(ready_s)
            latencies.append(child.seconds)
            peak[0] = max(peak[0], child.rss_mb)
            failed[0] += child.exit_code != 0

        durations = run_loop(run_op, self.ctx.seconds)
        top_up_setup(self.ctx, setup)
        failed[0] += self.finish()
        metrics, notes = end_to_end(setup, latencies, sum(durations), peak[0])
        notes["setup_s"] = f"(median of {len(setup)} CLI start-ups)"
        return Result(len(latencies), failed[0], metrics, notes)

    def run_traced(self) -> Result:
        """Plain and traced operations alternate; the ratio of their
        summed times is the tracing overhead, so host drift cancels."""
        failed = [0]
        untraced: List[float] = []
        traced: List[float] = []
        totals = LayerTotals()

        def pair() -> None:
            child, _ = run_cli(self.ctx, self.next_args())
            untraced.append(child.seconds)
            failed[0] += child.exit_code != 0
            dump = self.ctx.path("layers.json")
            child = self.ctx.spawn(traced_argv(dump, self.next_args()))
            traced.append(child.seconds)
            failed[0] += child.exit_code != 0
            totals.add_child(child, dump)

        run_loop(pair, self.ctx.seconds)
        failed[0] += self.finish()
        ops = len(traced)
        return traced_result(totals, ops, sum(untraced), sum(traced),
                             2 * ops, failed[0])


class ScenarioSuite(ProcessWorkload):
    """``scenario run --all`` in a fresh process, no result cache.  The
    command is fixed, so the seed does not change its input."""

    args = ["scenario", "run", "--all", "--quiet"]

    def finish(self) -> int:
        """Every scenario record of every run must match its golden."""
        from repro.scenarios import check_record

        failures = 0
        for path in self.reports:
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    report = json.load(fh)
            except (OSError, ValueError):
                failures += 1
                continue
            scenarios = report.get("scenarios", [])
            if not scenarios or any(check_record(entry["name"],
                                                 entry["record"])
                                    for entry in scenarios):
                failures += 1
        return failures


class RobustnessMC(ProcessWorkload):
    """A 256-sample Monte Carlo over lte-20, one scenario, no cache; every
    op uses the seed derived from ``--seed`` and must write the same
    report bytes."""

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.mc_seed = random.Random(ctx.seed).randrange(1, 1 << 30)
        self.args = ["robustness", "run", "lte-20", "--samples", "256",
                     "--seed", str(self.mc_seed), "--jobs", "1", "--quiet"]

    def finish(self) -> int:
        blobs = []
        for path in self.reports:
            try:
                with open(path, "rb") as fh:
                    blobs.append(fh.read())
            except OSError:
                blobs.append(b"")
        return sum(1 for blob in blobs if not blob or blob != blobs[0])


# ----------------------------------------------------------------------
# serve-mix
# ----------------------------------------------------------------------
# The mix is an assumption: the repository has no record of served
# traffic to derive it from.  README.md gives the reason for each choice.
#: Requests per pass: every catalog entry is sent at least twice (a first
#: occurrence and a repeat), and a pass is short enough that a 45 s run
#: starts several daemons with cold caches.
SERVE_REQUESTS = 120
#: Zipf exponent of the popularity quotas: 1, the plain Zipf law.
SERVE_ZIPF_S = 1.0
SERVE_CLIENTS = 2
#: Seed of the one send order all runs share (see serve_requests); an
#: arbitrary fixed value.
SERVE_ORDER_SEED = 2011
_LIBRARIES = ("generic-45nm", "generic-90nm")
_SPECS = ("paper", "audio")
_SCENARIOS = ("lte-20", "lte-10", "lte-5", "wcdma", "nb-iot", "audio-48k",
              "audio-96k", "voice-8k", "instrumentation-1m", "sdr-lte-30p72")


def serve_catalog() -> List[List[str]]:
    """The distinct requests of the mix, most popular first.

    Requests the daemon answers from its stores once computed come first:
    ``design`` and ``verify`` without activity, the ``sweep --snr`` grids,
    the scenarios (in ``scenario list`` order).  ``design`` and ``verify``
    with activity come last, because the daemon recomputes activity on
    every send; ranked first, they would put kernel work into the median
    request, where the workload is meant to measure the served hot path.
    ``{lib}`` is filled per seed.  Sweeps run with ``--jobs 1``: the
    default would start a thread pool of four inside each of the daemon's
    two workers, above the two cores the workload may load.
    """
    def flows(activity: bool) -> List[List[str]]:
        return [[verb, "--library", "{lib}", "--spec", spec]
                + ([] if activity else ["--no-activity"])
                for verb in ("design", "verify") for spec in _SPECS]

    sweep = ["sweep", "--snr", "--quiet", "--jobs", "1", "--output-bits"]
    return (flows(activity=False)
            + [sweep + ["12", "14", "--halfband-att", "80", "85"],
               sweep + ["14", "16", "--halfband-att", "85", "90"],
               sweep + ["12", "16", "--halfband-att", "80", "90"]]
            + [["scenario", "run", name, "--quiet"] for name in _SCENARIOS]
            + flows(activity=True))


def serve_quotas() -> List[int]:
    """Sends per catalog entry: one first occurrence each, and the
    repeats split by Zipf popularity (largest remainder)."""
    ranks = len(serve_catalog())
    weights = [1.0 / (rank + 1) ** SERVE_ZIPF_S for rank in range(ranks)]
    repeats = SERVE_REQUESTS - ranks
    shares = [repeats * w / sum(weights) for w in weights]
    quotas = [int(share) for share in shares]
    by_remainder = sorted(range(ranks), key=lambda i: quotas[i] - shares[i])
    for index in by_remainder[:repeats - sum(quotas)]:
        quotas[index] += 1
    return [1 + quota for quota in quotas]


def serve_requests(seed: int) -> List[List[str]]:
    """The seed's request list: each catalog entry sent its quota of
    times, with a seed-chosen library per design/verify entry.

    The send order is one fixed shuffle, the same for every seed: with two
    clients sharing one daemon, the order decides which cheap requests
    wait behind which expensive ones, and a per-seed order would make the
    latency percentiles depend on the seed.  The number of first
    occurrences (misses) is the catalog size whatever the seed.
    """
    rng = random.Random(seed)
    slots: List[int] = []
    argvs: List[List[str]] = []
    for index, (template, quota) in enumerate(zip(serve_catalog(),
                                                  serve_quotas())):
        library = rng.choice(_LIBRARIES)
        argvs.append([library if arg == "{lib}" else arg
                      for arg in template])
        slots.extend([index] * quota)
    random.Random(SERVE_ORDER_SEED).shuffle(slots)
    return [argvs[index] for index in slots]


class Daemon:
    """One ``repro serve`` process on an ephemeral port."""

    def __init__(self, ctx: Context, dump: Optional[str] = None) -> None:
        from repro.serve.client import parse_address

        self.ctx = ctx
        args = ["serve", "--jobs", "2", "--port", "0",
                "--cache-dir", ctx.fresh_dir("serve-cache")]
        argv = traced_argv(dump, args) if dump else repro_argv(args)
        self.out_path = ctx.path("serve-stdout")
        self.err_path = ctx.path("serve-stderr")
        with open(self.out_path, "wb") as out, \
                open(self.err_path, "wb") as err:
            self.started = time.perf_counter()
            self.proc = subprocess.Popen(argv, cwd=ctx.work, env=ctx.env,
                                         stdout=out, stderr=err,
                                         stdin=subprocess.DEVNULL)
        try:
            line = self._wait_until_listening()
        except BaseException:  # includes SIGTERM: leave no daemon behind
            self.proc.kill()
            self.proc.wait()
            raise
        self.address = parse_address(line.split()[-1])

    def _wait_until_listening(self) -> str:
        """Poll the daemon's stdout for its announce line; sets setup_s."""
        deadline = self.started + 120.0
        while True:
            with open(self.out_path, "r", encoding="utf-8") as fh:
                line = fh.readline()
            if line.endswith("\n") and "listening on" in line:
                self.setup_s = time.perf_counter() - self.started
                return line
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError(f"daemon did not start: "
                                   f"{read_text(self.err_path)[-400:]}")
            time.sleep(0.002)

    def request(self, verb: str, args: Sequence[str] = ()) -> dict:
        from repro.serve.client import ServeClient

        with ServeClient(self.address, timeout=120.0) as client:
            return client.request(verb, list(args))

    def stop(self) -> Tuple[int, float]:
        """Shut down and reap; returns (exit code, peak RSS MB)."""
        from repro.serve.protocol import ProtocolError

        try:
            self.request("shutdown")
        except (OSError, ProtocolError):
            self.proc.kill()
        return reap(self.proc, 60.0)

    def child(self) -> Child:
        """The finished daemon as a :class:`Child` (for traced dumps)."""
        return Child(0.0, self.proc.returncode, 0.0, "",
                     read_text(self.err_path), self.started)


class ServeMix:
    """A fresh daemon per pass, two connections in a closed loop over the
    seed's request list; served bytes must match the in-process CLI."""

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.requests = serve_requests(ctx.seed)
        #: (request index, client-observed latency s, response) per reply.
        self.replies: List[Tuple[int, float, dict]] = []

    def one_pass(self, dump: Optional[str] = None):
        """Run the whole request list against a fresh daemon.  Returns
        (daemon, pass wall s, latencies, stats payload, peak RSS MB)."""
        daemon = Daemon(self.ctx, dump)
        latencies: List[float] = []
        lock = threading.Lock()
        cursor = iter(range(len(self.requests)))
        errors: List[BaseException] = []

        def client() -> None:
            from repro.serve.client import ServeClient

            try:
                with ServeClient(daemon.address, timeout=120.0) as conn:
                    while True:
                        with lock:
                            index = next(cursor, None)
                        if index is None:
                            return
                        argv = self.requests[index]
                        start = time.perf_counter()
                        response = conn.request(argv[0], argv[1:])
                        elapsed = time.perf_counter() - start
                        with lock:
                            latencies.append(elapsed)
                            self.replies.append((index, elapsed, response))
            except Exception as exc:  # reported as a failed pass
                errors.append(exc)

        try:
            start = time.perf_counter()
            threads = [threading.Thread(target=client)
                       for _ in range(SERVE_CLIENTS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall = time.perf_counter() - start
            stats = daemon.request("stats")["stats"]
        finally:
            code, rss_mb = daemon.stop()
        if errors or code != 0:
            raise RuntimeError(f"serve pass failed (exit {code}): {errors}")
        return daemon, wall, latencies, stats, rss_mb

    def check(self) -> int:
        """Compare every reply with an in-process ``run_command`` of the
        same argv, computed once per distinct request.  The references
        share one in-memory store, as the daemon's requests do; the
        store is invisible in the output by contract."""
        from repro.cli import run_command
        from repro.flow.artifacts import ArtifactStore

        store = ArtifactStore()
        reference: Dict[Tuple[str, ...], Tuple[int, str]] = {}
        workdir = self.ctx.fresh_dir("reference")
        previous = os.getcwd()
        os.chdir(workdir)  # sweeps write their default cache into the cwd
        try:
            for argv in map(tuple, self.requests):
                if argv not in reference:
                    out, err = io.StringIO(), io.StringIO()
                    code = run_command(list(argv), stdout=out, stderr=err,
                                       store=store)
                    reference[argv] = (code, out.getvalue())
        finally:
            os.chdir(previous)
        failed = 0
        for index, _, response in self.replies:
            expected = reference[tuple(self.requests[index])]
            if (response.get("error") is not None
                    or (response.get("exit_code"), response.get("stdout"))
                    != expected):
                failed += 1
        return failed

    def run(self, traced: bool) -> Result:
        return self.run_traced() if traced else self.run_untraced()

    def run_untraced(self) -> Result:
        setup: List[float] = []
        latencies: List[float] = []
        walls: List[float] = []
        peak = 0.0

        def one() -> None:
            nonlocal peak
            daemon, wall, lat, _, rss_mb = self.one_pass()
            setup.append(daemon.setup_s)
            walls.append(wall)
            latencies.extend(lat)
            peak = max(peak, rss_mb)

        run_loop(one, self.ctx.seconds)
        while len(setup) < SETUP_SAMPLES:
            daemon = Daemon(self.ctx)
            setup.append(daemon.setup_s)
            daemon.stop()
        failed = self.check()
        metrics, notes = end_to_end(setup, latencies, sum(walls), peak)
        notes["setup_s"] = f"(median of {len(setup)} daemon starts)"
        return Result(len(self.replies), failed, metrics, notes)

    def run_traced(self) -> Result:
        """Plain and traced passes alternate; the ``serve.*`` values are
        medians over the traced passes."""
        untraced: List[float] = []
        traced: List[float] = []
        requests = [0]
        serve: Dict[str, List[float]] = defaultdict(list)
        totals = LayerTotals()

        def pair() -> None:
            untraced.append(self.one_pass()[1])
            dump = self.ctx.path("layers.json")
            daemon, wall, latencies, stats, _ = self.one_pass(dump)
            traced.append(wall)
            requests[0] += len(latencies)
            totals.add_child(daemon.child(), dump)
            server_p50 = stats["latency_ms"]["p50"]
            for name, value in (
                    ("queue_wait_p50_ms", stats["queue_wait_ms"]["p50"]),
                    ("queue_wait_p99_ms", stats["queue_wait_ms"]["p99"]),
                    ("coalesced", stats["coalesce"]["coalesced"]),
                    ("shed", stats["resilience"]["shed"]),
                    ("compute_p50_ms", server_p50),
                    ("transport_p50_ms",
                     percentile(latencies, 0.5) * 1000.0 - server_p50)):
                serve[f"serve.{name}"].append(value)

        run_loop(pair, self.ctx.seconds)
        failed = self.check()
        result = traced_result(
            totals, requests[0], sum(untraced), sum(traced),
            len(self.replies), failed,
            {name: statistics.median(values)
             for name, values in serve.items()})
        # Start-up is per daemon, not per request.
        for key in ("interpreter_s", "import_s", "scipy_signal_import_s"):
            result.metrics[f"startup.{key}"] = (totals.startup[key]
                                                / len(traced))
        return result


WORKLOADS: Dict[str, Callable[[Context, bool], Result]] = {
    "scenario-suite": lambda ctx, traced: ScenarioSuite(ctx).run(traced),
    "robustness-mc": lambda ctx, traced: RobustnessMC(ctx).run(traced),
    "serve-mix": lambda ctx, traced: ServeMix(ctx).run(traced),
}
