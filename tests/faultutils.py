"""Reusable fault-injection harness for store concurrency & crash tests.

The on-disk :class:`repro.explore.store.ArtifactCAS` promises a hard
contract — lock-free readers never observe torn entries, killed writers
leave only orphaned temp files, corrupt entries miss and heal — and this
module provides the machinery the test suite uses to attack it:

* :func:`corrupt_entry` — damage a published entry in place (garbage,
  truncation, emptying, or a wrong schema version).  Backend-generic:
  it writes the damage through the store's own backend, so the same
  attack runs against a local directory and an object store.
* :func:`make_cas` / :func:`object_store_cas` — backend factories for
  parametrizing one test body over ``LocalDirBackend`` and
  ``ObjectStoreBackend``-over-``FakeObjectStore``; the fake client's
  fault hooks (``fail_next``, ``tear_next_put``, ``latency_s``,
  ``calls``) are reachable as ``cas.backend.client``.
* :func:`race_thread_writers` — threaded analog of :func:`race_writers`
  for in-memory object stores (forked processes cannot share one
  ``FakeObjectStore``, threads can — and the fake client is
  thread-safe, so the race is real).
* :func:`spawn_killable_writer` / :func:`kill_between_tmp_and_rename` —
  run a real ``put`` in a child process whose ``os.replace`` is hijacked
  to signal the parent and stall, then SIGKILL it *between* the temp
  write and the atomic rename: the precise window a crashing writer dies
  in.
* :func:`race_writers` — fork N processes hammering one store with
  overlapping key sets (every process writes the content-addressed record
  of each key several times), returning per-process error reports.
* :func:`expected_record` — the deterministic record each racing writer
  publishes for a key, so assertions can check for lost or torn records.

PR 8 extends the harness to the serve daemon — the same philosophy, one
layer up: :class:`ServeDaemon` runs a real ``repro serve`` subprocess
(real signals, real sockets) so tests can SIGKILL it mid-request, SIGTERM
it mid-coalesce, open slow-loris half-requests against it, or rip client
connections out under load, then assert the operational contract: no torn
CAS entries, drained connections still get their in-flight responses,
and a restarted daemon serves byte-identical warm results.

Everything here is deliberately process-based (``fork`` start method, the
platform default on Linux) so the races and kills are real OS-level
events, not monkeypatched approximations.
"""

from __future__ import annotations

import contextlib
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Ways :func:`corrupt_entry` can damage a published entry.
CORRUPTION_MODES = ("garbage", "truncate", "empty", "schema")


def corrupt_entry(cas, key: str, mode: str = "garbage") -> str:
    """Damage the published entry for ``key`` in place; returns its
    store-relative name.

    ``garbage`` overwrites with non-JSON bytes, ``truncate`` chops the
    valid JSON mid-way (simulating a partially-flushed page or a torn
    blob upload), ``empty`` truncates to zero bytes, and ``schema``
    rewrites the entry with a wrong ``schema`` version.  All four must
    read back as a miss.  The damage goes through the store's own
    backend primitives, so the same attack works against a local
    directory and an object store.
    """
    if mode not in CORRUPTION_MODES:
        raise ValueError(f"unknown corruption mode {mode!r}")
    rel = cas._rel_for(key)
    if mode == "garbage":
        data = b"{this is not json\x00\xff"
    elif mode == "truncate":
        published = cas.backend.read_bytes(rel)
        data = published[:max(1, len(published) // 2)]
    elif mode == "empty":
        data = b""
    else:  # schema
        from repro.explore.store import CACHE_SCHEMA_VERSION

        entry = {"schema": CACHE_SCHEMA_VERSION + 1000, "key": key,
                 "record": {"stale": True}}
        data = json.dumps(entry).encode("utf-8")
    cas.backend.write_bytes_atomic(rel, data)
    return rel


def object_store_cas(latency_s: float = 0.0, page_size: int = 1000,
                     label: str = "mem://fault-test"):
    """A fresh ``ArtifactCAS`` over an isolated ``FakeObjectStore``.

    The fake client (fault hooks, call counters) is reachable as
    ``cas.backend.client``; each call returns an independent store.
    """
    from repro.explore.store import (ArtifactCAS, FakeObjectStore,
                                     ObjectStoreBackend)

    client = FakeObjectStore(latency_s=latency_s, page_size=page_size)
    return ArtifactCAS(backend=ObjectStoreBackend(client, label=label))


def make_cas(kind: str, tmp_path: Path):
    """A fresh ``ArtifactCAS`` over the named backend ``kind``.

    ``"local"`` roots a ``LocalDirBackend`` store under ``tmp_path``;
    ``"object"`` returns an isolated in-memory object store — the two
    parameters of the backend-parametrized fault suites.
    """
    if kind == "local":
        from repro.explore.store import ArtifactCAS

        return ArtifactCAS(Path(tmp_path) / "store")
    if kind == "object":
        return object_store_cas()
    raise ValueError(f"unknown backend kind {kind!r}")


# ----------------------------------------------------------------------
# Killed writers: die between temp-write and rename
# ----------------------------------------------------------------------
_KILLABLE_WRITER_SCRIPT = """
import json, os, sys, time

sys.path.insert(0, {src!r})
import repro.explore.store as store_mod

marker = {marker!r}

def stalled_replace(src_path, dst_path):
    # Signal the parent that the temp file is fully written, then stall
    # inside the temp-write -> rename window until SIGKILL arrives.
    with open(marker, "w") as fh:
        fh.write(str(src_path))
    time.sleep(600.0)

store_mod.os.replace = stalled_replace
cas = store_mod.ArtifactCAS({root!r})
cas.put({key!r}, json.loads({record_json!r}))
"""


def spawn_killable_writer(root: Path, key: str, record: dict,
                          marker: Optional[Path] = None,
                          ) -> Tuple[subprocess.Popen, Path]:
    """Start a child performing ``put(key, record)`` that stalls before
    its atomic rename.

    Returns ``(process, marker_path)``; the child touches ``marker_path``
    (containing its temp-file path) once the temp file is fully written,
    then blocks.  Use :func:`kill_between_tmp_and_rename` to wait for the
    marker and deliver SIGKILL inside the window.
    """
    marker = Path(marker if marker is not None
                  else Path(root).parent / f"writer-{os.getpid()}-{key[:8]}.marker")
    script = _KILLABLE_WRITER_SCRIPT.format(
        src=str(REPO_ROOT / "src"), marker=str(marker), root=str(root),
        key=key, record_json=json.dumps(record))
    proc = subprocess.Popen([sys.executable, "-c", script],
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE)
    return proc, marker


def kill_between_tmp_and_rename(root: Path, key: str, record: dict,
                                timeout_s: float = 30.0) -> Path:
    """Run a writer and SIGKILL it between temp-write and rename.

    Returns the path of the temp file the dead writer left behind (the
    orphan).  Raises ``AssertionError`` if the writer never reached the
    window or if no orphan was left.
    """
    proc, marker = spawn_killable_writer(root, key, record)
    try:
        deadline = time.monotonic() + timeout_s
        while not marker.exists():
            if proc.poll() is not None:
                stderr = proc.stderr.read().decode()
                raise AssertionError(
                    f"killable writer exited prematurely: {stderr}")
            if time.monotonic() > deadline:
                raise AssertionError("killable writer never reached the "
                                     "temp-write -> rename window")
            time.sleep(0.01)
        tmp_path = Path(marker.read_text())
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=timeout_s)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=timeout_s)
        marker.unlink(missing_ok=True)
    if not tmp_path.exists():
        raise AssertionError(f"killed writer left no orphan temp file "
                             f"({tmp_path} missing)")
    return tmp_path


# ----------------------------------------------------------------------
# Racing writers on overlapping key sets
# ----------------------------------------------------------------------
def expected_record(key: str) -> dict:
    """The deterministic record every racing writer publishes for ``key``.

    Content-addressed by construction: derived from the key alone, so any
    two processes racing on one key write identical bytes — exactly the
    store's production situation, where the key is the content hash of
    the inputs that produce the record.
    """
    return {"key": key, "payload": key[::-1], "length": len(key),
            "rows": [{"i": i, "v": f"{key}-{i}"} for i in range(3)]}


def _writer_main(root: str, keys: Sequence[str], rounds: int,
                 barrier, errors) -> None:
    """One racing writer: wait on the barrier, then put/get every key
    ``rounds`` times, recording any contract violation."""
    from repro.explore.store import ArtifactCAS

    cas = ArtifactCAS(root)
    barrier.wait()
    try:
        for _ in range(rounds):
            for key in keys:
                cas.put(key, expected_record(key))
                loaded = cas.get(key)
                if loaded != expected_record(key):
                    errors.append(f"pid {os.getpid()}: torn/lost read of "
                                  f"{key!r}: {loaded!r}")
    except Exception as exc:  # pragma: no cover - only on contract failure
        errors.append(f"pid {os.getpid()}: {type(exc).__name__}: {exc}")


def race_writers(root: Path, key_sets: Sequence[Sequence[str]],
                 rounds: int = 10, timeout_s: float = 120.0) -> List[str]:
    """Race one forked writer process per key set against a single store.

    Every process writes (and immediately reads back) each of its keys
    ``rounds`` times; key sets are expected to overlap so that distinct
    processes race on shared keys.  Returns the list of contract
    violations observed by any writer (empty on success).
    """
    ctx = multiprocessing.get_context("fork")
    manager = ctx.Manager()
    errors = manager.list()
    barrier = ctx.Barrier(len(key_sets))
    procs = [ctx.Process(target=_writer_main,
                         args=(str(root), list(keys), rounds, barrier, errors))
             for keys in key_sets]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=timeout_s)
        if proc.exitcode is None:
            proc.terminate()
            errors.append("writer process timed out")
        elif proc.exitcode != 0:
            errors.append(f"writer process exited {proc.exitcode}")
    result = list(errors)
    manager.shutdown()
    return result


def race_thread_writers(cas, key_sets: Sequence[Sequence[str]],
                        rounds: int = 10,
                        timeout_s: float = 120.0) -> List[str]:
    """Race one writer thread per key set against a single store.

    The threaded analog of :func:`race_writers` for in-memory object
    stores: forked processes cannot share one ``FakeObjectStore``, but
    its client is thread-safe, so overlapping put/get hammering from
    threads exercises the same last-writer-wins-with-identical-bytes
    contract.  Returns observed violations (empty on success).
    """
    barrier = threading.Barrier(len(key_sets))
    errors: List[str] = []
    lock = threading.Lock()

    def writer(keys: Sequence[str]) -> None:
        try:
            barrier.wait(timeout=timeout_s)
            for _ in range(rounds):
                for key in keys:
                    cas.put(key, expected_record(key))
                    loaded = cas.get(key)
                    if loaded != expected_record(key):
                        with lock:
                            errors.append(f"thread {threading.get_ident()}: "
                                          f"torn/lost read of {key!r}: "
                                          f"{loaded!r}")
        except Exception as exc:  # pragma: no cover - only on failure
            with lock:
                errors.append(f"thread {threading.get_ident()}: "
                              f"{type(exc).__name__}: {exc}")

    threads = [threading.Thread(target=writer, args=(list(keys),))
               for keys in key_sets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=timeout_s)
        if thread.is_alive():
            errors.append("writer thread timed out")
    return errors


# ----------------------------------------------------------------------
# Serve-daemon fault injection: a killable real `repro serve` subprocess
# ----------------------------------------------------------------------
class ServeDaemon:
    """A real ``repro serve`` subprocess the tests can signal at will.

    Unlike ``serveutils.ServerHarness`` (in-process, introspectable), this
    is the production artifact: its own interpreter, its own event loop,
    killed and drained through actual OS signals.  ``extra_args`` are
    appended to the serve argv (e.g. ``["--max-queue", "0"]``).
    """

    def __init__(self, cache_dir: Optional[Path] = None,
                 jobs: int = 2, drain_grace_s: float = 30.0,
                 extra_args: Sequence[str] = (),
                 announce_timeout_s: float = 60.0) -> None:
        """Spawn the daemon and wait for its announce line."""
        env = dict(os.environ)
        env["PYTHONPATH"] = (str(REPO_ROOT / "src") + os.pathsep
                             + env.get("PYTHONPATH", ""))
        argv = [sys.executable, "-m", "repro", "serve", "--port", "0",
                "--jobs", str(jobs), "--drain-grace-s", str(drain_grace_s)]
        if cache_dir is not None:
            argv += ["--cache-dir", str(cache_dir)]
        argv += list(extra_args)
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                     stderr=subprocess.STDOUT, text=True,
                                     env=env, cwd=str(REPO_ROOT))
        deadline = time.monotonic() + announce_timeout_s
        line = self.proc.stdout.readline()
        if "listening on " not in line or time.monotonic() > deadline:
            self.kill()
            raise AssertionError(f"daemon failed to announce: {line!r}")
        from repro.serve.client import parse_address

        self.address = parse_address(line.rsplit(" ", 1)[-1].strip())

    def client(self, timeout: float = 60.0, retries: int = 0):
        """A new connected ``ServeClient`` for this daemon."""
        from repro.serve.client import ServeClient

        return ServeClient(self.address, timeout=timeout, retries=retries)

    def request(self, verb: str, args: Sequence[str] = (),
                timeout: float = 60.0, retries: int = 0) -> dict:
        """One-shot request on a fresh connection."""
        with self.client(timeout=timeout, retries=retries) as client:
            return client.request(verb, args)

    def signal(self, signum: int) -> None:
        """Deliver ``signum`` to the daemon process."""
        self.proc.send_signal(signum)

    def sigkill(self) -> None:
        """SIGKILL the daemon (no drain, no cleanup — the crash case)."""
        self.proc.send_signal(signal.SIGKILL)

    def sigterm(self) -> None:
        """SIGTERM the daemon (the graceful-drain path)."""
        self.proc.send_signal(signal.SIGTERM)

    def wait(self, timeout_s: float = 60.0) -> int:
        """Wait for exit; returns the exit code."""
        return self.proc.wait(timeout=timeout_s)

    def kill(self) -> None:
        """Hard cleanup (idempotent): SIGKILL + reap."""
        if self.proc.poll() is None:
            self.proc.kill()
            with contextlib.suppress(Exception):
                self.proc.wait(timeout=30)

    def __enter__(self) -> "ServeDaemon":
        """Context-manager entry: the announced daemon."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: make sure the process is gone."""
        self.kill()


class HeldReport:
    """A named pipe to pass as a request's ``--json FILE``.

    The request computes, then blocks opening its report for writing until
    :meth:`release` opens the pipe for reading, so it stays in flight for
    exactly as long as the test wants, however fast the computation is.
    """

    def __init__(self, directory: Path, name: str = "held-report.json"):
        """Create the pipe in ``directory``."""
        self.path = Path(directory) / name
        os.mkfifo(self.path)

    def release(self, timeout_s: float = 120.0) -> bytes:
        """Let the held request finish; returns the report it wrote."""
        report: List[bytes] = []
        reader = threading.Thread(
            target=lambda: report.append(self.path.read_bytes()), daemon=True)
        reader.start()
        reader.join(timeout=timeout_s)
        if reader.is_alive():
            raise AssertionError(f"no request wrote {self.path} within "
                                 f"{timeout_s} s")
        return report[0]


def send_partial_request(address, fraction: float = 0.5,
                         verb: str = "ping", timeout: float = 60.0):
    """Open a slow-loris connection: send only ``fraction`` of one request
    line (never the newline) and return the open client.

    The caller owns the socket — while it stays open the daemon must keep
    serving other clients, and an unterminated line must never be
    answered (the framing contract) even across a drain.
    """
    from repro.serve.client import ServeClient
    from repro.serve.protocol import encode_line

    payload = encode_line({"id": "loris", "verb": verb}).encode("utf-8")
    cut = max(1, min(len(payload) - 1, int(len(payload) * fraction)))
    client = ServeClient(address, timeout=timeout)
    client.send_raw(payload[:cut])
    return client


def assert_cas_integrity(root: Path) -> int:
    """Assert every *published* entry under a CAS root parses as valid
    JSON with the current schema; returns the number of entries checked.

    Orphaned ``*.tmp`` files are legal debris of a killed writer; a
    torn/truncated/garbage ``.json`` entry is a contract violation.
    """
    from repro.explore.store import CACHE_SCHEMA_VERSION

    root = Path(root)
    checked = 0
    for path in sorted(root.rglob("*.json")):
        data = path.read_bytes()
        try:
            entry = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise AssertionError(f"torn CAS entry {path}: {exc}")
        if not isinstance(entry, dict) or "record" not in entry:
            raise AssertionError(f"malformed CAS entry {path}: {entry!r}")
        if entry.get("schema") != CACHE_SCHEMA_VERSION:
            raise AssertionError(
                f"CAS entry {path} carries schema {entry.get('schema')!r}, "
                f"expected {CACHE_SCHEMA_VERSION}")
        checked += 1
    return checked


# ----------------------------------------------------------------------
# Concurrent real sweeps (overlapping grids through run_sweep)
# ----------------------------------------------------------------------
def _sweep_main(root: str, output_bits: Sequence[int], errors) -> None:
    """One forked process running a real (tiny) sweep against the store."""
    try:
        from repro.explore import SweepSpec, run_sweep

        run_sweep(SweepSpec(output_bits=tuple(output_bits)), workers=1,
                  cache_dir=root)
    except Exception as exc:  # pragma: no cover - only on contract failure
        errors.append(f"pid {os.getpid()}: {type(exc).__name__}: {exc}")


def race_sweeps(root: Path, grids: Sequence[Sequence[int]],
                timeout_s: float = 300.0) -> List[str]:
    """Run one real ``run_sweep`` per grid concurrently on a shared store.

    Each grid is an ``output_bits`` axis; overlapping grids make distinct
    processes race on the shared points' cache keys.  Returns observed
    errors (empty on success).
    """
    ctx = multiprocessing.get_context("fork")
    manager = ctx.Manager()
    errors = manager.list()
    procs = [ctx.Process(target=_sweep_main, args=(str(root), grid, errors))
             for grid in grids]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=timeout_s)
        if proc.exitcode is None:
            proc.terminate()
            errors.append("sweep process timed out")
        elif proc.exitcode != 0:
            errors.append(f"sweep process exited {proc.exitcode}")
    result = list(errors)
    manager.shutdown()
    return result
