"""The design service daemon: asyncio front end, bounded worker pool.

:class:`ReproServer` accepts JSON-lines connections (TCP or UNIX socket),
parses each request (:mod:`repro.serve.protocol`), and executes command
verbs by running the *actual CLI handler* — :func:`repro.cli.run_command`
against per-request string buffers — on a bounded ``ThreadPoolExecutor``.
That single decision buys the service contract for free: a served
response's stdout/stderr/exit code are byte-identical to the one-shot
``python -m repro`` invocation, because they are produced by the same
code, and every request still rides
:func:`repro.explore.runner.execute_payloads` with the daemon's hot
shared :class:`~repro.flow.artifacts.ArtifactStore`, so stages computed
for one client are reused (bit-identically) for the next.

Identical in-flight requests are coalesced
(:class:`~repro.serve.coalesce.Coalescer`): the computation runs as an
independent event-loop task awaited through ``asyncio.shield``, so a
client disconnecting mid-flight never cancels the shared work for the
survivors.

Lifecycle: :meth:`ReproServer.serve_forever` (blocking, used by the CLI)
wraps the async :meth:`ReproServer.run`; tests run the latter on a
background-thread event loop and stop it with
:meth:`ReproServer.request_shutdown` (thread-safe), or clients send the
``shutdown`` verb.

Resilience (PR 8): the daemon **drains gracefully** — SIGTERM/SIGINT (or
the ``drain`` verb) stops the listener, answers new command requests on
surviving connections with a ``draining`` envelope, lets in-flight work
(including shielded coalesced computations and their response writes)
finish within ``drain_grace_s``, then exits 0.  Admission is **bounded**:
at most ``jobs + max_queue`` computations may be in flight; beyond that,
requests that would launch new work are shed with an ``overloaded``
envelope carrying a ``retry_after_ms`` hint (joins of in-flight keys add
no work and are never shed).  A request's ``deadline_ms`` is enforced
here: when the budget expires before the response, the waiter gets a
``deadline`` envelope while the shared computation runs on — abandoning a
waiter never tears down work under survivors or poisons the warm store.
Stalled readers cannot pin the daemon: response writes time out after
``write_timeout_s`` and drop only that connection.
"""

from __future__ import annotations

import asyncio
import contextlib
import io
import os
import signal as signal_module
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, List, Optional, Sequence

from repro.flow.artifacts import ArtifactStore
from repro.obs import trace
from repro.serve.coalesce import Coalescer
from repro.serve.protocol import (MAX_LINE_BYTES, ProtocolError, encode_line,
                                  error_envelope, parse_request, request_key)
from repro.serve.telemetry import ServeTelemetry

__all__ = ["ReproServer", "execute_request_payload"]

#: Subcommands (and their sub-subcommands) that accept a ``--cache-dir``
#: flag, i.e. where the daemon's default cache applies.
_CACHE_DIR_VERBS = {
    "sweep": None,              # no subverbs: every sweep takes one
    "scenario": ("run", "check"),
    "robustness": ("run", "check"),
    "cache": ("stats", "prune"),
}


def execute_request_payload(payload: dict,
                            artifacts: Optional[ArtifactStore] = None) -> dict:
    """Run one served request's CLI invocation and capture its streams.

    The payload is ``{"argv": [subcommand, arg, ...]}``; the command runs
    through :func:`repro.cli.run_command` with per-request ``StringIO``
    buffers and the daemon's shared artifact store, and the result is the
    JSON-safe response core ``{"exit_code", "stdout", "stderr"}``.
    Module-level so :func:`repro.explore.runner.execute_payloads` can
    treat it like any other task.
    """
    from repro.cli import run_command

    stdout, stderr = io.StringIO(), io.StringIO()
    exit_code = run_command(list(payload["argv"]), stdout=stdout,
                            stderr=stderr, store=artifacts)
    return {"exit_code": int(exit_code), "stdout": stdout.getvalue(),
            "stderr": stderr.getvalue()}


class ReproServer:
    """One design-service daemon instance.

    Parameters
    ----------
    host, port:
        TCP endpoint (``port=0`` binds an ephemeral port, reported in
        ``address`` after :meth:`start`).  Ignored when ``unix_path`` is
        given.
    unix_path:
        Serve on a UNIX domain socket at this path instead of TCP.
    jobs:
        Worker-pool size: the maximum number of concurrently *executing*
        requests; further requests queue (the queue depth is visible on
        the ``stats`` verb).
    cache_dir:
        Default on-disk result cache: injected as ``--cache-dir`` into
        requests whose verb accepts one and whose argv does not name its
        own.  Injection happens *before* the coalescing key is computed,
        so clients relying on the server default still coalesce.
    max_artifacts:
        Entry cap of the hot in-memory artifact store (LRU eviction).
    max_line_bytes:
        Per-request line limit; longer lines get an ``oversized`` error
        envelope and the connection closes (framing is lost).
    max_queue:
        Bounded admission queue: at most ``jobs + max_queue`` computations
        in flight; requests that would launch beyond that are shed with an
        ``overloaded`` envelope.  ``None`` disables shedding (unbounded).
    drain_grace_s:
        How long a drain (SIGTERM/SIGINT/``drain`` verb) waits for
        in-flight work and response writes before exiting anyway.
    write_timeout_s:
        Per-response write budget; a client that stops reading long enough
        to fill its socket buffer loses the connection, not a worker.
    """

    def __init__(self,
                 host: str = "127.0.0.1",
                 port: int = 0,
                 unix_path: Optional[str] = None,
                 jobs: int = 4,
                 cache_dir: Optional[str] = None,
                 max_artifacts: Optional[int] = 4096,
                 max_line_bytes: int = MAX_LINE_BYTES,
                 max_queue: Optional[int] = 128,
                 drain_grace_s: float = 30.0,
                 write_timeout_s: float = 30.0) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be at least 1 (got {jobs})")
        if max_queue is not None and max_queue < 0:
            raise ValueError(f"max_queue must be non-negative or None "
                             f"(got {max_queue})")
        if drain_grace_s < 0:
            raise ValueError(f"drain_grace_s must be non-negative "
                             f"(got {drain_grace_s})")
        if write_timeout_s <= 0:
            raise ValueError(f"write_timeout_s must be positive "
                             f"(got {write_timeout_s})")
        self.host = host
        self.port = int(port)
        self.unix_path = unix_path
        self.jobs = int(jobs)
        self.cache_dir = cache_dir
        self.max_line_bytes = int(max_line_bytes)
        self.max_queue = None if max_queue is None else int(max_queue)
        self.drain_grace_s = float(drain_grace_s)
        self.write_timeout_s = float(write_timeout_s)
        #: The hot shared store: every request's flow stages memoize here.
        self.store = ArtifactStore(max_entries=max_artifacts)
        self.coalescer = Coalescer()
        self.telemetry = ServeTelemetry()
        #: ``host:port`` / ``unix:PATH`` actually bound (set by start()).
        self.address: Optional[str] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._shutdown_event: Optional[asyncio.Event] = None
        self._draining = False
        self._drain_task: Optional[asyncio.Task] = None
        self._writes_pending = 0
        self._installed_signals: List[int] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def requested_endpoint(self) -> str:
        """The configured endpoint, for bind-failure messages."""
        if self.unix_path is not None:
            return f"unix:{self.unix_path}"
        return f"{self.host}:{self.port}"

    async def start(self) -> None:
        """Bind the listening socket and create the worker pool."""
        self._loop = asyncio.get_running_loop()
        self._shutdown_event = asyncio.Event()
        self._pool = ThreadPoolExecutor(max_workers=self.jobs,
                                        thread_name_prefix="repro-serve")
        if self.unix_path is not None:
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=self.unix_path,
                limit=self.max_line_bytes)
            self.address = f"unix:{self.unix_path}"
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, host=self.host, port=self.port,
                limit=self.max_line_bytes)
            bound = self._server.sockets[0].getsockname()
            self.address = f"{self.host}:{bound[1]}"

    async def close(self) -> None:
        """Stop accepting connections and retire the worker pool."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._pool is not None:
            # wait=False: by teardown, in-flight work has either finished
            # (a clean drain waits for it first) or is being deliberately
            # abandoned (drain-grace expiry, shutdown verb) — blocking the
            # loop on a wedged worker here would turn "exit anyway" into
            # a hang.
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        if self.unix_path is not None:
            with contextlib.suppress(OSError):
                os.unlink(self.unix_path)

    def request_shutdown(self) -> None:
        """Ask the daemon to exit (thread-safe; idempotent)."""
        loop, event = self._loop, self._shutdown_event
        if loop is None or event is None:
            return
        with contextlib.suppress(RuntimeError):   # loop already closed
            loop.call_soon_threadsafe(event.set)

    def request_drain(self) -> None:
        """Ask the daemon to drain gracefully (thread-safe; idempotent):
        stop accepting connections, finish in-flight work within the grace
        window, then exit."""
        loop = self._loop
        if loop is None:
            return
        with contextlib.suppress(RuntimeError):   # loop already closed
            loop.call_soon_threadsafe(self._begin_drain)

    @property
    def draining(self) -> bool:
        """Whether the drain lifecycle has begun (one-way)."""
        return self._draining

    def _begin_drain(self) -> None:
        """Enter the drain lifecycle (event-loop thread; idempotent)."""
        if self._draining or self._shutdown_event is None:
            return
        self._draining = True
        self.telemetry.mark_draining()
        # Close the listener here, not in the drain task: once `draining`
        # is observable, new connections must already be refused — a task
        # scheduled later would leave a window where both are true.
        if self._server is not None:
            self._server.close()
        self._drain_task = self._loop.create_task(self._drain_and_exit())

    async def _drain_and_exit(self) -> None:
        """The drain body: wait for the closed listener, wait out in-flight
        work and pending response writes (bounded by ``drain_grace_s``),
        exit."""
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None
        deadline = time.monotonic() + self.drain_grace_s
        while time.monotonic() < deadline:
            if self.coalescer.in_flight() == 0 and self._writes_pending == 0:
                break
            await asyncio.sleep(0.02)
        self._shutdown_event.set()

    def _install_signal_handlers(self) -> None:
        """Route SIGTERM/SIGINT into the drain lifecycle (best-effort:
        only available on the main thread — test harnesses running the
        loop on a background thread fall back to :meth:`request_drain`)."""
        for signum in (signal_module.SIGTERM, signal_module.SIGINT):
            try:
                self._loop.add_signal_handler(signum, self._begin_drain)
            except (NotImplementedError, RuntimeError, ValueError):
                continue
            self._installed_signals.append(signum)

    def _remove_signal_handlers(self) -> None:
        """Undo :meth:`_install_signal_handlers` (idempotent)."""
        while self._installed_signals:
            signum = self._installed_signals.pop()
            with contextlib.suppress(Exception):
                self._loop.remove_signal_handler(signum)

    async def run(self,
                  announce: Optional[Callable[[str], None]] = None,
                  ready: Optional[threading.Event] = None) -> int:
        """Start, announce, serve until shutdown is requested, close.

        ``announce`` receives one parseable line
        (``repro-serve listening on <address>``) once the socket is
        bound; ``ready`` is set at the same moment (for in-process test
        harnesses waiting on a background-thread loop).  SIGTERM/SIGINT
        trigger a graceful drain where the platform allows installing
        loop signal handlers (the CLI path).
        """
        await self.start()
        self._install_signal_handlers()
        try:
            if announce is not None:
                announce(f"repro-serve listening on {self.address}")
            if ready is not None:
                ready.set()
            await self._shutdown_event.wait()
            if self._drain_task is not None:
                with contextlib.suppress(Exception):
                    await self._drain_task
        finally:
            self._remove_signal_handlers()
            await self.close()
        return 0

    def serve_forever(self,
                      announce: Optional[Callable[[str], None]] = None) -> int:
        """Blocking entry point of ``repro serve``; returns the exit code
        (Ctrl-C is a clean shutdown, not a traceback)."""
        try:
            return asyncio.run(self.run(announce=announce))
        except KeyboardInterrupt:
            return 0

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        """Serve one client connection: requests in, responses out, in
        order, until EOF, an unrecoverable framing error, or shutdown.

        Absorbs cancellation (shutdown tears the loop down while handlers
        sit in ``readline``) so the task ends cleanly instead of spraying
        ``CancelledError`` through the streams machinery; the coalesced
        computations themselves live on independent tasks and are never
        cancelled by a subscriber's demise.
        """
        try:
            await self._serve_connection(reader, writer)
        except asyncio.CancelledError:
            pass

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        """The request/response loop of one connection."""
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # readline() lost the frame: the line exceeded the
                    # stream limit.  Answer and drop the connection.
                    self.telemetry.count_protocol_error()
                    await self._send(writer, error_envelope(
                        None, "oversized",
                        f"request line exceeds {self.max_line_bytes} bytes"))
                    break
                if not line:
                    break
                if not line.endswith(b"\n"):
                    # EOF mid-line: the request was never completed, so
                    # it gets no response (a line is a request only once
                    # its newline arrives).
                    break
                if not line.strip():
                    continue
                response = await self._handle_line(line)
                if not await self._send(writer, response):
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _send(self, writer: asyncio.StreamWriter,
                    response: dict) -> bool:
        """Write one response line; returns False when the client stalled
        past ``write_timeout_s`` (the connection is then abandoned so a
        slow reader never pins the daemon — or its drain).  The pending
        counter keeps drain from exiting between a computation finishing
        and its response bytes reaching the socket."""
        self._writes_pending += 1
        try:
            with trace.span("serve.write"):
                writer.write(encode_line(response).encode("utf-8"))
                await asyncio.wait_for(writer.drain(), self.write_timeout_s)
            return True
        except asyncio.TimeoutError:
            self.telemetry.count_write_timeout()
            return False
        finally:
            self._writes_pending -= 1

    async def _handle_line(self, line: bytes) -> dict:
        """Parse and dispatch one request line; never raises.

        Control verbs (``ping``/``stats``/``health``/``metrics``/
        ``drain``/``shutdown``) are answered on the event loop — never
        queued behind command work, so a balancer's health probe stays
        cheap however deep the pool's backlog runs.
        """
        started = time.perf_counter()
        try:
            request_id, verb, args, deadline_ms = parse_request(line)
        except ProtocolError as exc:
            self.telemetry.count_protocol_error()
            return error_envelope(None if exc.kind == "bad-json" else
                                  self._request_id_of(line), exc.kind,
                                  str(exc))
        with trace.span("serve.request", verb=verb) as span:
            if verb == "ping":
                response = {"id": request_id, "ok": True, "exit_code": 0,
                            "stdout": "pong\n", "stderr": "",
                            "coalesced": False}
            elif verb == "stats":
                snapshot = self.stats_snapshot()
                import json as _json

                response = {"id": request_id, "ok": True, "exit_code": 0,
                            "stdout": _json.dumps(snapshot, indent=2,
                                                  sort_keys=True) + "\n",
                            "stderr": "", "coalesced": False,
                            "stats": snapshot}
            elif verb == "health":
                health = self.health_snapshot()
                import json as _json

                response = {"id": request_id, "ok": True, "exit_code": 0,
                            "stdout": _json.dumps(health,
                                                  sort_keys=True) + "\n",
                            "stderr": "", "coalesced": False,
                            "health": health}
            elif verb == "metrics":
                response = {"id": request_id, "ok": True, "exit_code": 0,
                            "stdout": self.metrics_exposition(),
                            "stderr": "", "coalesced": False}
            elif verb == "drain":
                response = {"id": request_id, "ok": True, "exit_code": 0,
                            "stdout": "draining\n", "stderr": "",
                            "coalesced": False}
                self._begin_drain()
            elif verb == "shutdown":
                response = {"id": request_id, "ok": True, "exit_code": 0,
                            "stdout": "shutting down\n", "stderr": "",
                            "coalesced": False}
                self._shutdown_event.set()
            elif self._draining:
                self.telemetry.count_draining_rejection()
                response = error_envelope(
                    request_id, "draining",
                    "server is draining and no longer accepts command "
                    "requests; retry against another instance")
            else:
                response = await self._execute(request_id, verb, args,
                                               deadline_ms)
            span.set(exit_code=int(response.get("exit_code", 2)),
                     coalesced=bool(response.get("coalesced", False)))
        self.telemetry.observe(verb, int(response.get("exit_code", 2)),
                               time.perf_counter() - started)
        return response

    @staticmethod
    def _request_id_of(line: bytes) -> Any:
        """Best-effort id recovery for shape/verb errors (the line did
        decode as JSON, so echo the client's correlation id if present)."""
        import json as _json

        try:
            decoded = _json.loads(line.decode("utf-8"))
        except Exception:
            return None
        return decoded.get("id") if isinstance(decoded, dict) else None

    # ------------------------------------------------------------------
    # Command execution
    # ------------------------------------------------------------------
    def _effective_argv(self, verb: str, args: Sequence[str]) -> List[str]:
        """The argv actually executed: verb + args, with the server's
        default ``--cache-dir`` appended when the verb accepts one and
        the client did not name its own."""
        argv = [verb] + list(args)
        if self.cache_dir is None or "--cache-dir" in args:
            return argv
        if verb not in _CACHE_DIR_VERBS:
            return argv
        subverbs = _CACHE_DIR_VERBS[verb]
        if subverbs is not None and (not args or args[0] not in subverbs):
            return argv
        return argv + ["--cache-dir", self.cache_dir]

    def _capacity(self) -> Optional[int]:
        """Admission ceiling: executing + queued computations allowed in
        flight (``None`` = unbounded)."""
        if self.max_queue is None:
            return None
        return self.jobs + self.max_queue

    def _retry_after_ms(self) -> int:
        """The ``overloaded`` hint: roughly what one queue slot is worth
        right now (recent p50 latency, floored at 50 ms so a cold daemon
        with an empty window still spreads retries out)."""
        return max(50, int(self.telemetry.recent_p50_ms()))

    async def _execute(self, request_id: Any, verb: str, args: List[str],
                       deadline_ms: Optional[int] = None) -> dict:
        """Run (or join) one command request and build its response.

        Admission control happens here: joining a computation already in
        flight is free and always admitted; launching a new one is shed
        with ``overloaded`` once ``jobs + max_queue`` are in flight.  The
        check-then-join pair runs without an intervening await, so the
        event loop cannot interleave another admission decision between
        them.
        """
        argv = self._effective_argv(verb, args)
        key = request_key(argv[0], argv[1:])
        loop = asyncio.get_running_loop()

        capacity = self._capacity()
        if (capacity is not None and self.coalescer.peek(key) is None
                and self.coalescer.in_flight() >= capacity):
            self.telemetry.count_shed()
            hint = self._retry_after_ms()
            return error_envelope(
                request_id, "overloaded",
                f"admission queue is full ({self.coalescer.in_flight()} "
                f"in flight, capacity {capacity}); retry after "
                f"{hint} ms", detail={"retry_after_ms": hint})

        def launch() -> asyncio.Task:
            # An independent task (not this connection's coroutine): the
            # computation survives any subscriber disconnecting.
            task = loop.create_task(self._run_command_task(argv))
            task.add_done_callback(lambda _t: self.coalescer.release(key))
            return task

        task, leader = self.coalescer.join(key, launch)
        trace.record("serve.coalesce", 0.0, leader=leader, key=key)
        if deadline_ms is None:
            result = await asyncio.shield(task)
        else:
            try:
                result = await asyncio.wait_for(asyncio.shield(task),
                                                deadline_ms / 1000.0)
            except asyncio.TimeoutError:
                # Abandon this waiter only: the shielded computation keeps
                # running (survivors still get it, and its result warms
                # the store for the client's retry).
                self.telemetry.count_deadline_timeout()
                return error_envelope(
                    request_id, "deadline",
                    f"request exceeded its {deadline_ms} ms deadline",
                    detail={"deadline_ms": deadline_ms})
        return {"id": request_id, "ok": result["exit_code"] == 0,
                "exit_code": result["exit_code"],
                "stdout": result["stdout"], "stderr": result["stderr"],
                "coalesced": not leader, "key": key}

    async def _run_command_task(self, argv: List[str]) -> dict:
        """The shared per-key computation: one pool slot, one CLI run."""
        self.telemetry.enter_queue()
        submitted = time.perf_counter()
        try:
            return await self._loop.run_in_executor(
                self._pool, self._run_blocking, argv, submitted)
        finally:
            self.telemetry.exit_queue()

    def _run_blocking(self, argv: List[str],
                      submitted: Optional[float] = None) -> dict:
        """Worker-thread body: ride the standard payload harness with the
        hot shared store (inline, one payload — the service's concurrency
        lives in the pool, not inside a request).  ``submitted`` is the
        event-loop submission instant, so the first thing a worker does is
        publish how long the request sat queued."""
        if submitted is not None:
            waited_s = time.perf_counter() - submitted
            self.telemetry.observe_queue_wait(waited_s)
            trace.record("serve.queue_wait", waited_s)
        from repro.explore.runner import execute_payloads

        with trace.span("serve.compute", verb=argv[0] if argv else ""):
            records, _mode, _store = execute_payloads(
                [{"argv": list(argv)}], task=execute_request_payload,
                store=self.store)
        return records[0]

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def stats_snapshot(self) -> dict:
        """The ``stats`` verb payload (also used by in-process tests)."""
        store_stats = self.store.stats()
        store_stats["evictions"] = self.store.evictions
        store_stats["max_entries"] = self.store.max_entries
        return self.telemetry.snapshot(
            coalesce=self.coalescer.stats(),
            artifact_store=store_stats,
            server={"address": self.address, "jobs": self.jobs,
                    "cache_dir": self.cache_dir,
                    "max_queue": self.max_queue,
                    "drain_grace_s": self.drain_grace_s},
        )

    def metrics_exposition(self) -> str:
        """The ``metrics`` verb payload: the telemetry registry rendered
        in Prometheus text format, with scrape-time coalescer and
        artifact-store gauges folded in."""
        store_stats = self.store.stats()
        store_stats["evictions"] = self.store.evictions
        if self.store.max_entries is not None:
            store_stats["max_entries"] = self.store.max_entries
        return self.telemetry.exposition(coalesce=self.coalescer.stats(),
                                         artifact_store=store_stats)

    def health_snapshot(self) -> dict:
        """The ``health`` verb payload: cheap enough for a balancer probe
        on every routing decision (no store scan, no latency sort)."""
        inflight = self.coalescer.in_flight()
        capacity = self._capacity()
        if self._draining:
            status = "draining"
        elif capacity is not None and inflight >= capacity:
            status = "overloaded"
        else:
            status = "ok"
        return {"status": status,
                "uptime_s": round(self.telemetry.uptime_s(), 3),
                "inflight": inflight}
