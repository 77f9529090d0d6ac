"""JSON-lines wire protocol of the design service.

One request per line, one response per line, UTF-8, newline-terminated:

.. code-block:: json

    {"id": 1, "verb": "design", "args": ["--no-activity"],
     "deadline_ms": 5000}
    {"id": 1, "ok": true, "exit_code": 0, "stdout": "...", "stderr": "...",
     "coalesced": false, "key": "<sha256>"}

``verb`` is either a repro subcommand (:data:`COMMAND_VERBS` — executed
exactly as the CLI would, with ``args`` as its argv tail) or a service
control verb (:data:`CONTROL_VERBS`).  ``id`` is an optional client-chosen
correlation value echoed verbatim in the response; responses on one
connection are delivered in request order.  ``deadline_ms`` is an optional
per-request budget enforced *server-side*: a command request that cannot
produce its response within the budget is answered with a ``deadline``
error envelope (the shared computation is abandoned for this waiter but
never torn down under survivors).

Malformed traffic never kills the server: it answers with an *error
envelope* (:func:`error_envelope`) whose ``exit_code``/``stderr`` mirror
the CLI's ``CLIError`` taxonomy (one ``error: ...`` line, exit code 2), so
a client piping responses is indistinguishable from a failing CLI run.
Oversized request lines (:data:`MAX_LINE_BYTES`) additionally close the
connection, since the line framing is lost.

Resilience envelopes share the same shape, with machine-actionable kinds:
``overloaded`` (admission queue full — carries a ``retry_after_ms`` hint)
and ``draining`` (daemon is finishing in-flight work before exit) are the
two *retryable* kinds (:data:`RETRYABLE_ERROR_KINDS`); ``deadline`` is
terminal for its request.  :data:`IDEMPOTENT_VERBS` names the verbs a
client may safely resend — every command verb is a pure computation, while
``shutdown``/``drain`` mutate daemon state and are never retried.
"""

from __future__ import annotations

import json
from typing import Any, List, Optional, Sequence, Tuple

from repro.core.spec import derived_hash

#: Hard per-line byte limit for requests; argv-sized requests sit far
#: below it, so anything larger is a framing error, not a workload.
MAX_LINE_BYTES = 1 << 20

#: Request verbs executed as CLI subcommands (``args`` = argv tail).
COMMAND_VERBS = ("design", "verify", "sweep", "scenario", "robustness",
                 "report", "cache")

#: Service control verbs handled by the daemon itself.  ``health``,
#: ``metrics`` and ``drain`` are answered on the event loop, never
#: queued behind work.
CONTROL_VERBS = ("ping", "stats", "health", "metrics", "drain", "shutdown")

#: Error-envelope kinds a client may retry: the request never executed
#: (shed at admission) or reached a daemon that is going away.
RETRYABLE_ERROR_KINDS = ("overloaded", "draining")

#: Verbs that are safe to resend: pure computations and read-only control
#: verbs.  ``shutdown`` and ``drain`` change daemon state — never retried.
IDEMPOTENT_VERBS = COMMAND_VERBS + ("ping", "stats", "health", "metrics")


class ProtocolError(Exception):
    """A malformed request or response line.

    ``kind`` is a stable machine-readable tag (``bad-json``,
    ``bad-request``, ``unknown-verb``, ``oversized``, ``bad-response``)
    surfaced in error envelopes and client exceptions.
    """

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(message)
        self.kind = kind


def encode_line(obj: Any) -> str:
    """Serialize one protocol object as a compact, newline-terminated,
    key-sorted JSON line (deterministic bytes for identical content)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def parse_request(line: bytes) -> Tuple[Any, str, List[str], Optional[int]]:
    """Parse one request line into ``(id, verb, args, deadline_ms)``.

    Raises :class:`ProtocolError` with kind ``bad-json`` for undecodable
    lines, ``bad-request`` for JSON of the wrong shape (non-object, missing
    or non-string verb, non-string args, non-positive-integer
    ``deadline_ms``) and ``unknown-verb`` for verbs outside
    :data:`COMMAND_VERBS` + :data:`CONTROL_VERBS`.
    """
    try:
        request = json.loads(line.decode("utf-8", errors="strict"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError("bad-json", f"undecodable request line: {exc}")
    if not isinstance(request, dict):
        raise ProtocolError(
            "bad-request",
            f"request must be a JSON object, got {type(request).__name__}")
    verb = request.get("verb")
    if not isinstance(verb, str) or not verb:
        raise ProtocolError("bad-request",
                            "request needs a non-empty string 'verb'")
    args = request.get("args", [])
    if (not isinstance(args, list)
            or any(not isinstance(a, str) for a in args)):
        raise ProtocolError("bad-request",
                            "'args' must be a list of strings")
    deadline_ms = request.get("deadline_ms")
    if deadline_ms is not None:
        if isinstance(deadline_ms, bool) or not isinstance(deadline_ms, int) \
                or deadline_ms < 1:
            raise ProtocolError("bad-request",
                                "'deadline_ms' must be a positive integer")
    if verb not in COMMAND_VERBS and verb not in CONTROL_VERBS:
        known = ", ".join(COMMAND_VERBS + CONTROL_VERBS)
        raise ProtocolError("unknown-verb",
                            f"unknown verb {verb!r}; expected one of {known}")
    return request.get("id"), verb, list(args), deadline_ms


def error_envelope(request_id: Any, kind: str, message: str,
                   detail: Optional[dict] = None) -> dict:
    """The response for a request that never reached a command handler.

    Mirrors the CLI's ``CLIError`` contract — one ``error: ...`` line on
    stderr and exit code 2 — so protocol errors and argument errors look
    identical to a client that only relays streams and exit codes.
    ``detail`` merges machine-actionable fields into the ``error`` object
    (e.g. ``retry_after_ms`` on an ``overloaded`` envelope).
    """
    error: dict = {"kind": kind, "message": message}
    if detail:
        error.update(detail)
    return {
        "id": request_id,
        "ok": False,
        "exit_code": 2,
        "stdout": "",
        "stderr": f"error: {message}\n",
        "error": error,
        "coalesced": False,
    }


def request_key(verb: str, args: Sequence[str],
                extra: Optional[dict] = None) -> str:
    """Content-hash coalescing key of one command request.

    Two requests get the same key exactly when they would run the same
    subcommand with the same argv (after the server's ``--cache-dir``
    defaulting), riding :func:`repro.core.spec.content_hash` — the same
    canonical-JSON SHA-256 that keys `ChainSpec` content and the on-disk
    CAS.  ``extra`` folds in server-side context that changes the result
    (unused today, reserved for per-tenant isolation).  Derived once per
    request (:func:`repro.core.spec.derived_hash`).
    """
    def payload() -> dict:
        data: dict = {"verb": verb, "args": list(args)}
        if extra:
            data["extra"] = extra
        return data

    return derived_hash(("request", verb, tuple(args), extra), payload)
