"""Staged, memoized, batch execution of design-space sweeps.

:func:`run_sweep` expands a :class:`~repro.explore.sweep.SweepSpec`, diffs
the grid against the on-disk content-addressed store
(:class:`~repro.explore.store.ArtifactCAS`), runs the missing points
through the staged :func:`repro.flow.run_design_flow`, and assembles
everything into a :class:`SweepResult` that the Pareto ranking and the
report renderers consume.  Records are plain JSON-serializable
dictionaries, so a cached re-run reproduces bit-identical reports; because
the store tolerates concurrent writers, concurrent runs can resume one
grid against a shared directory.

Two layers make the cold path fast:

* **Shared-stage memoization** — every run owns one in-memory
  :class:`~repro.flow.artifacts.ArtifactStore`; the flow's expensive
  stages (halfband CSD search, equalizer fit, mask verification, modulator
  bit-stream) are keyed by their actual inputs, so the N points that share
  a stage compute it once.  Memoized results are bit-identical to cold
  computation, which the tests pin.
* **One process pool** — ``jobs`` alone picks how misses run: serially
  in this process (no pool, no pickling) when ``jobs == 1`` or at most one
  point misses, otherwise on a process pool.  The parent pre-warms the
  stages shared by several points (:func:`warm_shared_stages`), ships the
  store **once per worker** through the pool initializer, and submits
  points in chunks.

:func:`run_cached_payloads` is the cached run loop behind both
:func:`run_sweep` and :func:`repro.scenarios.run_scenario_suite`.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.explore.store import CACHE_SCHEMA_VERSION, ArtifactCAS, open_store
from repro.explore.pareto import DEFAULT_OBJECTIVES, Objective, pareto_rank
from repro.explore.sweep import SweepPoint, SweepSpec, sweep_cache_key
from repro.flow.artifacts import ArtifactStore
from repro.obs import trace

#: Artifact store installed in each process-pool worker by the pool
#: initializer (shipped once per worker instead of once per payload).
_WORKER_STORE: Optional[ArtifactStore] = None

#: Task callable installed in each process-pool worker by the pool
#: initializer (pickled by reference; must be a module-level function).
_WORKER_TASK: Optional[Callable[[dict, Optional[ArtifactStore]], dict]] = None


def _init_worker(store: ArtifactStore, task: Callable,
                 trace_spec: Optional[dict]) -> None:
    """Process-pool initializer: install the pre-warmed artifact store,
    the payload task and (when the parent run is traced) a worker-side
    tracer writing this worker's span side file."""
    global _WORKER_STORE, _WORKER_TASK
    _WORKER_STORE = store
    _WORKER_TASK = task
    trace.install_from_spec(trace_spec)


def run_flow_payload(payload: dict,
                     artifacts: Optional[ArtifactStore] = None):
    """Run one payload's design flow and return the live ``FlowResult``.

    The payload layout is ``{"spec": ChainSpec.to_dict(), "options":
    ChainDesignOptions.to_dict(), "flow": flow-settings dict}``; the flow
    settings carry the library name, the SNR-leg configuration (including
    the optional explicit ``snr_tone_hz``/``snr_amplitude`` stimulus) and
    the activity-measurement switch.  Callers that only need the JSON record use
    :func:`_execute_point`; the scenario runner builds on this function to
    post-process the designed chain (e.g. the Farrow rate-converter leg).
    """
    from repro.core.chain import ChainDesignOptions
    from repro.core.spec import ChainSpec
    from repro.flow.pipeline import run_design_flow
    from repro.hardware.stdcell import library_by_name

    spec = ChainSpec.from_dict(payload["spec"])
    options = ChainDesignOptions.from_dict(payload["options"])
    flow = payload["flow"]
    return run_design_flow(
        spec=spec,
        options=options,
        library=library_by_name(flow["library"]),
        include_snr_simulation=flow["include_snr"],
        snr_samples=flow["snr_samples"],
        measure_activity=flow["measure_activity"],
        artifacts=artifacts,
        snr_tone_hz=flow.get("snr_tone_hz"),
        snr_amplitude=flow.get("snr_amplitude"),
    )


def format_progress_timing(elapsed_s: float, completed: int,
                           total: int) -> str:
    """``elapsed Xs, eta ~Ys`` suffix for ``[run i/N]`` progress lines.

    The ETA is the naive linear extrapolation ``elapsed * remaining /
    completed`` — deliberately simple (point costs are roughly uniform
    within a run), and shared by the sweep and scenario runners so both
    progress streams read the same.
    """
    remaining = max(0, total - completed)
    eta_s = elapsed_s * remaining / completed if completed else 0.0
    return f"elapsed {elapsed_s:.1f}s, eta ~{eta_s:.1f}s"


def flow_record(result) -> dict:
    """JSON-safe record of a flow result, with the SNR columns the
    sweep/scenario reports consume (linear-model prediction + simulated)."""
    from repro.core.designer import predicted_snr_after_decimation

    record = result.record()
    record["predicted_snr_db"] = float(predicted_snr_after_decimation(
        result.spec, result.chain.summary()["sinc_orders"]))
    record["simulated_snr_db"] = result.simulated_snr_db
    return record


def record_metrics(record: dict) -> Dict[str, object]:
    """The five headline metrics of a :func:`flow_record` that the sweep
    and scenario reports rank and tabulate.

    ``snr_db`` is the measured end-to-end SNR when simulated, else the
    linear-model estimate.
    """
    summary = record["summary"]
    simulated = record.get("simulated_snr_db")
    return {
        "meets_spec": bool(summary["meets_spec"]),
        "snr_db": float(simulated if simulated is not None
                        else record["predicted_snr_db"]),
        "power_mw": float(summary["total_power_mw"]),
        "area_mm2": float(summary["total_area_mm2"]),
        "gate_count": int(record["gate_count"]),
    }


def _record_metric(name: str, doc: str) -> property:
    return property(lambda self: record_metrics(self.record)[name], doc=doc)


class FlowRecordMetrics:
    """Mixin: the :func:`record_metrics` of a result's flow ``record`` as
    read-only properties (sweep points and scenario runs)."""

    meets_spec = _record_metric(
        "meets_spec", "Whether the designed chain passed every "
                      "verification check.")
    snr_db = _record_metric(
        "snr_db", "Measured end-to-end SNR when simulated, else the "
                  "linear-model estimate.")
    power_mw = _record_metric("power_mw", "Total estimated power in milliwatts.")
    area_mm2 = _record_metric("area_mm2", "Total estimated layout area in mm².")
    gate_count = _record_metric(
        "gate_count", "NAND2-equivalent gate count of the whole chain.")


def _execute_point(payload: dict, artifacts: Optional[ArtifactStore] = None) -> dict:
    """Run one sweep point's design flow and return its JSON-safe record.

    Module-level (not a closure) so :class:`ProcessPoolExecutor` can pickle
    it; the payload carries only plain dictionaries.  ``artifacts`` is the
    run's shared store (in a pool worker, the store installed by
    :func:`_init_worker`).
    """
    return flow_record(run_flow_payload(payload, artifacts))


def _execute_payload_in_worker(payload: dict) -> tuple:
    """Process-pool task: the payload record plus this task's artifact
    hit/miss deltas, so the parent can fold worker-side stage reuse into
    the run telemetry (each worker's store counters are cumulative across
    its chunk, hence the before/after delta)."""
    before = _WORKER_STORE.stats()
    with trace.span("payload.execute", executor="process"):
        record = _WORKER_TASK(payload, _WORKER_STORE)
    after = _WORKER_STORE.stats()
    return (record, after["hits"] - before["hits"],
            after["misses"] - before["misses"])


def execute_payloads(payloads: Sequence[dict],
                     task: Optional[Callable] = None,
                     jobs: int = 1,
                     store: Optional[ArtifactStore] = None,
                     warm: Optional[Callable[[ArtifactStore], None]] = None,
                     on_result: Optional[Callable[[int, dict], None]] = None,
                     ) -> tuple:
    """Execute flow payloads inline or on a process pool with a shared store.

    This is the concurrency harness shared by :func:`run_cached_payloads`
    (sweeps and scenario suites) and the robustness engine:
    it runs every payload through ``task`` with one shared
    :class:`~repro.flow.artifacts.ArtifactStore` and returns ``(records,
    mode, store)`` with the records in payload order and ``mode`` either
    ``"inline"`` or ``"process"``.  ``jobs <= 1`` or at most one payload
    runs inline — a pool would only add process start-up and pickling
    without any concurrency; anything else runs on a pool of
    ``min(jobs, len(payloads))`` processes.  Both paths produce identical
    records — memoized stage results are bit-identical to cold
    computation — and the same store hit/miss counters whenever ``warm``
    covers every stage that payloads on different workers share.  The
    store's entry count covers only what the parent holds: stages the
    workers compute stay in their copies of the store.

    Parameters
    ----------
    payloads:
        JSON-safe payload dictionaries accepted by ``task``.
    task:
        Module-level callable ``task(payload, artifacts) -> record``
        (picklable by reference for the pool); defaults to the sweep point
        task :func:`_execute_point`.
    jobs:
        Maximum concurrent payload executions.
    store:
        Shared artifact store; a fresh one is created when ``None``.
    warm:
        Optional callback invoked with the store *before* the pool is
        created, to pre-compute shareable stages in the parent (the store
        is shipped to each worker through the pool initializer).  Unused
        inline, where every payload shares the store directly.
    on_result:
        Optional callback invoked with ``(payload_index, record)`` as
        results arrive, in payload order.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    if store is None:
        store = ArtifactStore()
    if task is None:
        task = _execute_point
    mode = "inline" if jobs <= 1 or len(payloads) <= 1 else "process"
    records: List[dict] = []

    def finish(index: int, record: dict) -> None:
        records.append(record)
        if on_result is not None:
            on_result(index, record)

    if mode == "inline":
        for index, payload in enumerate(payloads):
            with trace.span("payload.execute", executor="inline",
                            index=index):
                record = task(payload, store)
            finish(index, record)
        return records, mode, store

    warm_lookups = 0
    if warm is not None:
        before = store.hits + store.misses
        warm(store)
        warm_lookups = store.hits + store.misses - before
    tracer = trace.active()
    trace_spec = tracer.worker_spec() if tracer is not None else None
    n_workers = min(jobs, len(payloads))
    chunk = max(1, -(-len(payloads) // (n_workers * 4)))
    with ProcessPoolExecutor(max_workers=n_workers,
                             initializer=_init_worker,
                             initargs=(store, task, trace_spec)) as pool:
        results = pool.map(_execute_payload_in_worker, payloads,
                           chunksize=chunk)
        for index, (record, d_hits, d_misses) in enumerate(results):
            # Fold worker-side stage reuse into the parent's telemetry.
            store.hits += d_hits
            store.misses += d_misses
            finish(index, record)
    # Each warm lookup is repeated, as a hit, by the worker that runs the
    # warmed representative; inline counts that lookup once, so drop the
    # repeats to keep the counters the same on both paths.
    store.hits -= warm_lookups
    if tracer is not None:
        # Fold the (now quiescent) worker side files into the main
        # trace so one file holds every span of the run.
        trace.merge_worker_traces(tracer.path)
    return records, mode, store


@dataclass
class SweepPointResult(FlowRecordMetrics):
    """Outcome of one sweep point: its identity, record and provenance."""

    point: SweepPoint
    cache_key: str
    record: dict
    #: Whether the record was loaded from the cache (not serialized into
    #: reports, so cached re-runs stay bit-identical).
    from_cache: bool = False

    @property
    def label(self) -> str:
        """The point's sweep label."""
        return self.point.label

    def metrics_row(self) -> Dict[str, object]:
        """Flat metrics dictionary consumed by the Pareto ranking/reports."""
        return {
            "label": self.label,
            "params": self.point.params_dict(),
            **record_metrics(self.record),
            "predicted_snr_db": float(self.record["predicted_snr_db"]),
            "simulated_snr_db": self.record.get("simulated_snr_db"),
        }


@dataclass
class SweepResult:
    """All point results of one sweep plus run provenance."""

    points: List[SweepPointResult]
    flow_settings: dict
    elapsed_s: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    jobs: int = 1
    metadata: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.points)

    def metrics_rows(self) -> List[Dict[str, object]]:
        """Per-point metric rows, in sweep expansion order."""
        return [p.metrics_row() for p in self.points]

    def pareto_ranks(self, objectives: Sequence[Objective] = DEFAULT_OBJECTIVES,
                     ) -> List[int]:
        """Pareto rank of every point (1 = on the front), expansion order."""
        return pareto_rank(self.metrics_rows(), objectives)

    def ranked(self, objectives: Sequence[Objective] = DEFAULT_OBJECTIVES,
               ) -> List[SweepPointResult]:
        """Points sorted by (Pareto rank, power, label) — the report order."""
        ranks = self.pareto_ranks(objectives)
        order = sorted(range(len(self.points)),
                       key=lambda i: (ranks[i], self.points[i].power_mw,
                                      self.points[i].label))
        return [self.points[i] for i in order]


def run_sweep(sweep: SweepSpec,
              jobs: int = 1,
              cache_dir: Optional[Union[str, Path, ArtifactCAS]] = None,
              include_snr: bool = False,
              snr_samples: int = 16384,
              measure_activity: bool = False,
              library: str = "generic-45nm",
              progress: Optional[Callable[[str], None]] = None,
              resume: bool = True,
              store: Optional[ArtifactStore] = None) -> SweepResult:
    """Execute every point of a design-space sweep, in parallel, with caching.

    Parameters
    ----------
    sweep:
        The declarative grid to expand and run.
    jobs:
        Maximum concurrent point executions.  ``1``, or at most one point
        missing the cache, runs inline — no pool is created and nothing
        is pickled; otherwise misses run on a process pool (see
        :func:`execute_payloads`).  Both paths produce identical reports.
    cache_dir:
        Result store: a directory path or an already-open
        :class:`~repro.explore.store.ArtifactCAS` (see
        :func:`~repro.explore.store.open_store`); ``None`` disables
        caching.
    include_snr:
        Simulate the modulator + bit-true chain per point for the measured
        end-to-end SNR (slower); otherwise the reports fall back to the
        designer's linear-model SNR estimate.  Points sharing a modulator
        spec simulate the modulator once (shared-stage memoization).
    snr_samples:
        Modulator samples for the per-point SNR simulation.
    measure_activity:
        Measure Hogenauer toggle activity for the power model instead of
        using the per-kind defaults (slower, Hogenauer gold model).
    library:
        Standard-cell library name (``"generic-45nm"`` or ``"generic-90nm"``).
    progress:
        Optional callback invoked with one line per completed point
        (``[cache] <label>`` for hits, ``[run i/N] <label> (elapsed Xs,
        eta ~Ys)`` for misses — see :func:`format_progress_timing`).
    resume:
        With a cache directory, diff the grid against the store
        (:meth:`~repro.explore.store.ArtifactCAS.diff`) and execute only
        the missing points — the default, and what lets an interrupted or
        partially-shared grid continue where it (or a concurrent run) left
        off.  ``resume=False`` recomputes every point, overwriting any
        published entries.
    store:
        Shared in-memory :class:`~repro.flow.artifacts.ArtifactStore` for
        the run's stage memoization; a fresh one is created when ``None``
        (the default).  The serve daemon passes its hot long-lived store
        here so stages computed by earlier requests are reused — memoized
        results are bit-identical to cold computation, so reports do not
        change (the store's volatile counters are not serialized into
        them).

    Returns
    -------
    SweepResult
        Per-point records in expansion order plus cache/run statistics.
    """
    from repro.hardware.stdcell import library_by_name

    library_by_name(library)  # validate eagerly, before any work
    n_jobs = int(jobs)
    if n_jobs < 1:
        raise ValueError("jobs must be at least 1")
    flow_settings = {
        "include_snr": bool(include_snr),
        "snr_samples": int(snr_samples),
        "measure_activity": bool(measure_activity),
        "library": str(library),
        "cache_schema": CACHE_SCHEMA_VERSION,
    }
    points = sweep.points
    payloads = [point.payload() for point in points]
    keys = [sweep_cache_key(payload, flow_settings) for payload in payloads]
    run = run_cached_payloads(
        [{**payload, "flow": flow_settings} for payload in payloads], keys,
        [point.label for point in points], jobs=n_jobs,
        cache=open_store(cache_dir) if cache_dir is not None else None,
        resume=resume, store=store, progress=progress)
    results = [SweepPointResult(point=point, cache_key=key, record=record,
                                from_cache=hit)
               for point, key, record, hit
               in zip(points, keys, run.records, run.from_cache)]
    return SweepResult(
        points=results,
        flow_settings=flow_settings,
        elapsed_s=run.elapsed_s,
        cache_hits=run.cache_hits,
        cache_misses=run.cache_misses,
        jobs=n_jobs,
        metadata={"num_points": len(points), "axes": _axes_json(sweep),
                  "executor": run.mode, "artifact_store": run.store.stats()},
    )


@dataclass
class CachedRun:
    """Outcome of :func:`run_cached_payloads`, in payload order."""

    records: List[dict]
    #: Whether each record was loaded from the on-disk cache.
    from_cache: List[bool]
    #: ``"inline"`` or ``"process"`` (see :func:`execute_payloads`).
    mode: str
    store: ArtifactStore
    elapsed_s: float

    @property
    def cache_hits(self) -> int:
        """Records this run loaded from the cache."""
        return sum(self.from_cache)

    @property
    def cache_misses(self) -> int:
        """Records this run executed."""
        return len(self.records) - self.cache_hits


def run_cached_payloads(payloads: Sequence[dict],
                        keys: Sequence[str],
                        labels: Sequence[str],
                        task: Optional[Callable] = None,
                        jobs: int = 1,
                        cache: Optional[ArtifactCAS] = None,
                        resume: bool = True,
                        store: Optional[ArtifactStore] = None,
                        progress: Optional[Callable[[str], None]] = None,
                        ) -> CachedRun:
    """The cached run loop shared by the sweep and scenario runners.

    Diffs ``keys`` against ``cache``
    (:meth:`~repro.explore.store.ArtifactCAS.diff`) and loads the
    published records, reporting ``[cache] <label>``.  The rest run through
    :func:`execute_payloads` with ``task``, ``jobs``, ``store`` and the
    :func:`warm_shared_stages` policy, reporting ``[run i/N] <label>
    (elapsed Xs, eta ~Ys)`` (see :func:`format_progress_timing`), and each
    fresh record is published to ``cache``.  A probed entry that fails
    validation on load runs again and heals (miss-and-heal);
    ``resume=False`` runs every payload, overwriting published entries.
    Cache hits are counted per call, not over the store's lifetime.
    """
    started = time.perf_counter()
    if cache is not None and resume:
        missing = set(cache.diff(keys))
    else:
        missing = set(keys)
    records: List[Optional[dict]] = [None] * len(payloads)
    from_cache = [False] * len(payloads)
    pending: List[int] = []
    for index, key in enumerate(keys):
        cached = (cache.get(key)
                  if cache is not None and key not in missing else None)
        if cached is not None:
            records[index] = cached
            from_cache[index] = True
            if progress is not None:
                progress(f"[cache] {labels[index]}")
        else:
            pending.append(index)

    def finish(pending_pos: int, record: dict) -> None:
        index = pending[pending_pos]
        records[index] = record
        if cache is not None:
            cache.put(keys[index], record)
        if progress is not None:
            timing = format_progress_timing(time.perf_counter() - started,
                                            pending_pos + 1, len(pending))
            progress(f"[run {pending_pos + 1}/{len(pending)}] "
                     f"{labels[index]} ({timing})")

    pending_payloads = [payloads[i] for i in pending]
    _, mode, store = execute_payloads(
        pending_payloads, task=task, jobs=jobs, store=store,
        warm=lambda warm_store: warm_shared_stages(pending_payloads,
                                                   warm_store),
        on_result=finish)
    return CachedRun(records=records, from_cache=from_cache, mode=mode,
                     store=store, elapsed_s=time.perf_counter() - started)


def warm_shared_stages(payloads: Sequence[dict],
                       store: ArtifactStore) -> None:
    """The pool's warm policy: pre-compute the stages pending payloads share.

    Two signatures capture the engine's sharing.  The *design* signature
    (spec and options, output word width ignored) groups payloads that
    share the halfband/equalizer designs and the mask verification; the
    *stimulus* signature (modulator, SNR tone, amplitude and record
    length) groups payloads with an SNR leg that share the modulator
    bit-stream.  One representative of every design group of two or more
    is warmed, with its SNR leg when its stimulus group also has two or
    more payloads; then every stimulus group of two or more that no warmed
    representative covers is warmed through its first payload.  A warmed
    payload that measures activity warms its Hogenauer activity
    measurement too (keyed by the modulator and the Sinc stages, so
    payloads of several designs share it).  Singletons are not warmed:
    their whole flow runs in the pool, keeping distinct-design grids
    parallel (each worker still dedups across its own chunk through its
    copy of the store).
    """
    from repro.core.spec import content_hash

    design_groups: Dict[str, List[int]] = {}
    stimulus_groups: Dict[str, List[int]] = {}
    for index, payload in enumerate(payloads):
        spec = dict(payload["spec"])
        spec["decimator"] = {k: v for k, v in spec["decimator"].items()
                             if k != "output_bits"}
        design_groups.setdefault(content_hash(
            {"spec": spec, "options": payload["options"]}), []).append(index)
        flow = payload["flow"]
        if flow["include_snr"] or payload.get("scenario", {}).get(
                "resample_rates_hz"):
            stimulus_groups.setdefault(content_hash({
                "modulator": payload["spec"]["modulator"],
                "tone_hz": flow.get("snr_tone_hz"),
                "amplitude": flow.get("snr_amplitude"),
                "n_samples": flow["snr_samples"],
            }), []).append(index)

    shared_stimulus = {index for group in stimulus_groups.values()
                       if len(group) > 1 for index in group}
    covered = set()
    for group in design_groups.values():
        if len(group) > 1:
            with_snr = group[0] in shared_stimulus
            _warm_payload(payloads[group[0]], store, with_snr)
            if with_snr:
                covered.add(group[0])
    for group in stimulus_groups.values():
        if len(group) > 1 and covered.isdisjoint(group):
            _warm_payload(payloads[group[0]], store, with_snr=True)


def _warm_payload(payload: dict, store: ArtifactStore,
                  with_snr: bool) -> None:
    """Warm one payload's shareable stages, its activity measurement
    included when it measures activity (see
    :func:`~repro.flow.pipeline.warm_flow_artifacts`)."""
    from repro.core.chain import ChainDesignOptions
    from repro.core.spec import ChainSpec
    from repro.flow.pipeline import warm_flow_artifacts

    flow = payload["flow"]
    warm_flow_artifacts(ChainSpec.from_dict(payload["spec"]),
                        ChainDesignOptions.from_dict(payload["options"]),
                        store, include_snr_simulation=with_snr,
                        snr_samples=flow["snr_samples"],
                        snr_tone_hz=flow.get("snr_tone_hz"),
                        snr_amplitude=flow.get("snr_amplitude"),
                        measure_activity=bool(flow.get("measure_activity")))


def _axes_json(sweep: SweepSpec) -> Dict[str, list]:
    """The sweep's non-empty axes as JSON-safe lists (report provenance)."""
    axes: Dict[str, list] = {}
    for name, values in sweep.axes().items():
        axes[name] = [list(v) if isinstance(v, tuple) else v for v in values]
    return axes
