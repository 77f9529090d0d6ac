"""Per-layer self-time accounting for traced benchmark runs.

Imported by the benchmark's tests; run as a script it is the bootstrap of
a traced child process::

    python perfbench/layers.py OUT.json ARGV...

which imports ``repro.cli``, wraps every layer in :data:`LAYERS` at every
module that binds it, runs ``repro.cli.main(ARGV)`` and writes the
per-layer counters to ``OUT.json``.  The program under test is not
modified: the wrappers are installed from here, at run time.

A layer's self time is its wrapped duration minus the duration of the
wrapped calls it made on the same thread.  Outermost calls on a thread are
roots; the self times of all layers (including the pseudo-layer ``main``)
add up to the summed root durations.  The traced wall is timed apart from
the recorder, so the two can be compared: around ``repro.cli.main`` for a
CLI command, and around each worker-thread request body for a daemon.
"""

from __future__ import annotations

import time

#: Process start as seen by the bootstrap, taken before any other import.
BOOTED = time.perf_counter()

import functools  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from typing import Callable, Dict, List, Optional, Tuple  # noqa: E402


def _array_items(args, kwargs, result) -> Tuple[int, int, int]:
    """Items = size of the first array argument (samples, or rows x samples)."""
    import numpy as np

    array = args[1] if len(args) > 1 else next(iter(kwargs.values()))
    return int(np.size(array)), 0, 0


def _cas_get(args, kwargs, result) -> Tuple[int, int, int]:
    """One lookup; a hit when a record came back; bytes of that record."""
    if result is None:
        return 0, 0, 0
    return 0, len(json.dumps(result, sort_keys=True)), 1


def _cas_put(args, kwargs, result) -> Tuple[int, int, int]:
    """Bytes of the record written."""
    record = args[2] if len(args) > 2 else kwargs["record"]
    return 0, len(json.dumps(record, sort_keys=True)), 0


#: (layer name, defining module, qualified name, measure) for every layer
#: the traced run wraps.  ``measure(args, kwargs, result)`` returns
#: ``(items, bytes, hits)`` for one call.
LAYERS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("dsm.ntf.synthesize_ntf", "repro.dsm.ntf", "synthesize_ntf", None),
    ("filters.halfband.SaramakiHalfbandDesigner.design",
     "repro.filters.halfband", "SaramakiHalfbandDesigner.design", None),
    ("filters.halfband.SaramakiHalfband.zero_phase_response",
     "repro.filters.halfband", "SaramakiHalfband.zero_phase_response", None),
    ("filters.equalizer.design_droop_equalizer",
     "repro.filters.equalizer", "design_droop_equalizer", None),
    ("core.verification.verify_chain",
     "repro.core.verification", "verify_chain", None),
    ("filters.cascade.overall_response",
     "repro.filters.cascade", "MultirateCascade.overall_response", None),
    ("dsm.modulator.FastErrorFeedbackSimulator.simulate",
     "repro.dsm.modulator", "FastErrorFeedbackSimulator.simulate",
     _array_items),
    ("dsm.modulator.FastErrorFeedbackSimulator.simulate_batch",
     "repro.dsm.modulator", "FastErrorFeedbackSimulator.simulate_batch",
     _array_items),
    ("dsm.modulator.ErrorFeedbackSimulator.simulate",
     "repro.dsm.modulator", "ErrorFeedbackSimulator.simulate", _array_items),
    ("dsm.signals.jittered_tone", "repro.dsm.signals", "jittered_tone", None),
    ("dsm.spectrum.analyze_tone_batch",
     "repro.dsm.spectrum", "analyze_tone_batch", None),
    ("core.chain.DecimationChain.process_fixed",
     "repro.core.chain", "DecimationChain.process_fixed", _array_items),
    ("filters.hogenauer.HogenauerDecimator.process",
     "repro.filters.hogenauer", "HogenauerDecimator.process", None),
    ("filters.hogenauer.HogenauerDecimator.process_batch",
     "repro.filters.hogenauer", "HogenauerDecimator.process_batch", None),
    ("filters.polyphase.convolve_strided_matmul",
     "repro.filters.polyphase", "convolve_strided_matmul", None),
    ("hardware.power.measure_hogenauer_activity",
     "repro.hardware.power", "measure_hogenauer_activity", None),
    ("hardware.synthesis.SynthesisFlow.run",
     "repro.hardware.synthesis", "SynthesisFlow.run", None),
    ("explore.store.ArtifactCAS.get", "repro.explore.store",
     "ArtifactCAS.get", _cas_get),
    ("explore.store.ArtifactCAS.put", "repro.explore.store",
     "ArtifactCAS.put", _cas_put),
    ("robustness.engine.execute_robustness_payload",
     "repro.robustness.engine", "execute_robustness_payload", None),
    ("scenarios.runner.execute_scenario_payload",
     "repro.scenarios.runner", "execute_scenario_payload", None),
    ("explore.runner.execute_payloads",
     "repro.explore.runner", "execute_payloads", None),
)

#: Pseudo-layer around the command (``repro.cli.main``; in a daemon, see
#: :func:`trace_daemon`).  Its self time is the part of the run no layer
#: claims (``trace.unattributed_s``): argument parsing, store lookups,
#: rendering, waiting for the GIL outside a layer.
MAIN = "main"

#: Layers that do design or simulation work.  A root that reaches one of
#: them computed; one that does not was answered from a store.  The mask
#: check and the synthesis estimate run on every ``design``/``verify``
#: request, stored or not, so they do not count as computing.
KERNELS = frozenset(name for name, *_ in LAYERS) - {
    "core.verification.verify_chain",
    "hardware.synthesis.SynthesisFlow.run",
    "explore.store.ArtifactCAS.get",
    "explore.store.ArtifactCAS.put",
    "robustness.engine.execute_robustness_payload",
    "scenarios.runner.execute_scenario_payload",
    "explore.runner.execute_payloads",
}

_FIELDS = ("calls", "self_s", "items", "bytes", "hits")


class Recorder:
    """Thread-safe per-layer counters with self-time accounting.

    ``clock`` is injectable so the arithmetic can be tested on a
    synthetic call tree.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.layers: Dict[str, Dict[str, float]] = {}
        #: Summed duration of outermost wrapped calls, over all threads.
        self.roots_s = 0.0
        #: Outermost calls, and those of them that reached a kernel layer.
        self.roots = 0
        self.computing_roots = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[List[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _add(self, name: str, self_s: float, root_s: Optional[float],
             measured: Tuple[int, int, int]) -> None:
        """Book one call; ``root_s`` is its duration if it was outermost."""
        computed = False
        if name in KERNELS:
            self._local.computed = True
        if root_s is not None:
            computed = getattr(self._local, "computed", False)
            self._local.computed = False
        with self._lock:
            entry = self.layers.get(name)
            if entry is None:
                entry = self.layers[name] = dict.fromkeys(_FIELDS, 0)
            entry["calls"] += 1
            entry["self_s"] += self_s
            entry["items"] += measured[0]
            entry["bytes"] += measured[1]
            entry["hits"] += measured[2]
            if root_s is not None:
                self.roots_s += root_s
                self.roots += 1
                self.computing_roots += computed

    def wrap(self, name: str, fn: Callable,
             measure: Optional[Callable] = None) -> Callable:
        """Return ``fn`` wrapped so each call is accounted to ``name``."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            children = [0.0]
            stack.append(children)
            result = None
            start = recorder.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = recorder.clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                measured = ((0, 0, 0) if measure is None
                            else measure(args, kwargs, result))
                recorder._add(name, duration - children[0],
                              None if stack else duration, measured)
            return result

        return wrapper

    def self_total_s(self) -> float:
        """Sum of every layer's self time, ``main`` included."""
        with self._lock:
            return sum(entry["self_s"] for entry in self.layers.values())


def _import_all_repro_modules() -> None:
    """Import every ``repro`` submodule, so that all binding sites exist
    before wrapping (a module imported later binds the wrapper anyway)."""
    import pkgutil

    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        try:
            __import__(info.name)
        except ImportError:
            continue


def install(recorder: Recorder) -> None:
    """Wrap every layer of :data:`LAYERS` at every binding site.

    Methods are replaced on their class.  Functions are replaced on every
    loaded ``repro`` module that holds them under any name, because a
    ``from x import f`` binding does not see a later rebinding of ``x.f``.
    """
    _import_all_repro_modules()
    for name, module_name, qualname, measure in LAYERS:
        module = sys.modules[module_name]
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = inspect.getattr_static(owner, attr)
            setattr(owner, attr, recorder.wrap(name, original, measure))
            continue
        original = getattr(module, attr)
        wrapper = recorder.wrap(name, original, measure)
        for site_name, site in list(sys.modules.items()):
            if not site_name.startswith("repro") or site is None:
                continue
            for key, value in list(vars(site).items()):
                if value is original:
                    setattr(site, key, wrapper)


def track_artifact_stores() -> List[object]:
    """Record every ``ArtifactStore`` created from now on, so the child can
    report their ``stats()`` (hits, misses) and evictions at exit."""
    from repro.flow.artifacts import ArtifactStore

    stores: List[object] = []
    original = ArtifactStore.__init__

    @functools.wraps(original)
    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        stores.append(self)

    ArtifactStore.__init__ = init
    return stores


def store_totals(stores: List[object]) -> Dict[str, int]:
    """Summed ``stats()`` hits/misses plus evictions of tracked stores."""
    totals = {"hits": 0, "misses": 0, "evictions": 0}
    for store in stores:
        stats = store.stats()
        totals["hits"] += stats["hits"]
        totals["misses"] += stats["misses"]
        totals["evictions"] += store.evictions
    return totals


class BusyTimer:
    """Summed duration of calls to wrapped functions, over all threads,
    kept apart from any :class:`Recorder`."""

    def __init__(self) -> None:
        self.busy_s = 0.0
        self._lock = threading.Lock()

    def wrap(self, fn: Callable) -> Callable:
        timer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                with timer._lock:
                    timer.busy_s += duration

        return wrapper


def trace_daemon(recorder: Recorder) -> BusyTimer:
    """Instrument the request path of ``repro serve``.

    The daemon idles between requests, and its main thread only runs the
    event loop (protocol, coalescing, response writes), which no layer
    covers.  Its traced wall is therefore the busy time of the worker
    threads: every ``ReproServer._run_blocking`` call, timed by the
    returned :class:`BusyTimer`.  Both that worker body and the
    ``run_command`` of one request inside it (``execute_request_payload``)
    are the ``main`` pseudo-layer, so that neither the worker's own code
    nor the CLI's is booked to the ``execute_payloads`` between them.
    """
    from repro.serve import server

    wrapped = recorder.wrap(MAIN, server.execute_request_payload)
    for site in (server, sys.modules["repro.serve"]):
        site.execute_request_payload = wrapped
    timer = BusyTimer()
    server.ReproServer._run_blocking = timer.wrap(
        recorder.wrap(MAIN, server.ReproServer._run_blocking))
    return timer


def main(argv: List[str]) -> int:
    """Traced-child entry point: ``OUT.json ARGV...``."""
    out_path, command = argv[0], argv[1:]
    started = time.perf_counter()
    import repro.cli

    import_s = time.perf_counter() - started
    recorder = Recorder()
    install(recorder)
    stores = track_artifact_stores()
    daemon = trace_daemon(recorder) if command[:1] == ["serve"] else None
    traced_main = (repro.cli.main if daemon
                   else recorder.wrap(MAIN, repro.cli.main))
    code = 2
    command_started = time.perf_counter()
    try:
        code = traced_main(command)
    finally:
        # Measured apart from the recorder, so that the self times can be
        # checked against it.
        wall_s = (daemon.busy_s if daemon
                  else time.perf_counter() - command_started)
        sys.stdout.flush()
        payload = {
            "booted": BOOTED,
            "import_s": import_s,
            "roots_s": recorder.roots_s,
            "roots": recorder.roots,
            "computing_roots": recorder.computing_roots,
            "wall_s": wall_s,
            "layers": recorder.layers,
            "artifact_store": store_totals(stores),
        }
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
