"""Protocol conformance of the design service.

Framing, unknown verbs, malformed JSON, oversized payloads, partial
reads, and the error-envelope contract: a request that fails before (or
inside) a command handler answers exactly like the CLI — one
``error: ...`` line on stderr and exit code 2 — so exit-code-driven
clients cannot tell the daemon from the one-shot binary.  Everything here
uses cheap verbs (``ping``, ``cache stats``, argument errors) so the
suite stays fast; the heavy flows are exercised by the coalescing tests.
"""

import io
import json
import time

import pytest

import serveutils
from repro.cli import run_command
from repro.serve.client import Address, parse_address
from repro.serve.protocol import (MAX_LINE_BYTES, ProtocolError, encode_line,
                                  error_envelope, parse_request, request_key)


@pytest.fixture(scope="module")
def harness(tmp_path_factory):
    """One shared in-process daemon for the whole module."""
    cache_dir = tmp_path_factory.mktemp("serve-cache")
    with serveutils.ServerHarness(jobs=2, cache_dir=str(cache_dir)) as h:
        yield h


class TestParseRequest:
    def test_roundtrip(self):
        line = encode_line({"id": 7, "verb": "design", "args": ["--snr"]})
        request_id, verb, args, deadline = parse_request(line.encode("utf-8"))
        assert (request_id, verb, args) == (7, "design", ["--snr"])
        assert deadline is None

    def test_id_defaults_to_none_and_args_to_empty(self):
        _, verb, args, deadline = parse_request(b'{"verb": "ping"}')
        assert (verb, args, deadline) == ("ping", [], None)

    def test_deadline_ms_parses(self):
        line = encode_line({"verb": "design", "deadline_ms": 1500})
        assert parse_request(line.encode("utf-8"))[3] == 1500

    @pytest.mark.parametrize("bad", [0, -5, 1.5, "100", True, [100]])
    def test_bad_deadline_ms_rejected(self, bad):
        line = encode_line({"verb": "design", "deadline_ms": bad})
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(line.encode("utf-8"))
        assert excinfo.value.kind == "bad-request"

    @pytest.mark.parametrize("line,kind", [
        (b"not json at all\n", "bad-json"),
        (b"\xff\xfe\x00\n", "bad-json"),
        (b"[1, 2, 3]\n", "bad-request"),
        (b'{"args": []}\n', "bad-request"),
        (b'{"verb": 42}\n', "bad-request"),
        (b'{"verb": ""}\n', "bad-request"),
        (b'{"verb": "design", "args": "oops"}\n', "bad-request"),
        (b'{"verb": "design", "args": [1]}\n', "bad-request"),
        (b'{"verb": "frobnicate"}\n', "unknown-verb"),
    ])
    def test_rejects_malformed(self, line, kind):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(line)
        assert excinfo.value.kind == kind

    def test_error_envelope_mirrors_cli_error_contract(self):
        envelope = error_envelope(9, "unknown-verb", "unknown verb 'x'")
        assert envelope["id"] == 9
        assert envelope["ok"] is False
        assert envelope["exit_code"] == 2
        assert envelope["stdout"] == ""
        assert envelope["stderr"] == "error: unknown verb 'x'\n"
        assert envelope["error"]["kind"] == "unknown-verb"

    def test_request_key_is_argv_sensitive_and_stable(self):
        a = request_key("design", ["--snr"])
        b = request_key("design", ["--snr"])
        c = request_key("design", [])
        d = request_key("verify", ["--snr"])
        assert a == b
        assert len({a, c, d}) == 3


class TestFraming:
    def test_responses_in_request_order_with_ids(self, harness):
        with harness.client() as client:
            for request_id in (3, 1, 2):
                client.send_raw(encode_line(
                    {"id": request_id, "verb": "ping"}).encode("utf-8"))
            for expected in (3, 1, 2):
                response = json.loads(client.read_response_line())
                assert response["id"] == expected
                assert response["stdout"] == "pong\n"

    def test_blank_lines_are_skipped(self, harness):
        with harness.client() as client:
            client.send_raw(b"\n\n")
            response = client.request("ping", request_id=5)
            assert response["id"] == 5

    def test_partial_reads_reassemble_one_request(self, harness):
        payload = encode_line({"id": "chunked", "verb": "ping"}).encode()
        line = serveutils.raw_roundtrip(harness.address, payload, chunks=5)
        response = json.loads(line)
        assert response["id"] == "chunked"
        assert response["ok"] is True

    def test_eof_mid_line_gets_no_response(self, harness):
        client = harness.client()
        client.send_raw(b'{"verb": "ping"')  # no newline, then EOF
        client._sock.shutdown(1)  # SHUT_WR: half-close, keep reading
        assert client.read_response_line() == b""
        client.close()


class TestErrorEnvelopes:
    def test_unknown_verb(self, harness):
        response = harness.request("ping")  # connection sanity
        assert response["ok"] is True
        line = serveutils.raw_roundtrip(
            harness.address,
            encode_line({"id": 11, "verb": "frobnicate"}).encode("utf-8"))
        response = json.loads(line)
        assert response["id"] == 11
        assert response["exit_code"] == 2
        assert response["error"]["kind"] == "unknown-verb"
        assert response["stderr"].startswith("error: ")

    def test_malformed_json_answers_with_null_id(self, harness):
        line = serveutils.raw_roundtrip(harness.address, b"{oops\n")
        response = json.loads(line)
        assert response["id"] is None
        assert response["exit_code"] == 2
        assert response["error"]["kind"] == "bad-json"

    def test_bad_shape_echoes_the_id(self, harness):
        line = serveutils.raw_roundtrip(
            harness.address,
            encode_line({"id": 21, "verb": "design",
                         "args": "oops"}).encode("utf-8"))
        response = json.loads(line)
        assert response["id"] == 21
        assert response["error"]["kind"] == "bad-request"

    def test_oversized_line_answers_then_closes(self):
        with serveutils.ServerHarness(jobs=1, max_line_bytes=512) as small:
            big = encode_line({"id": 1, "verb": "ping",
                               "args": ["x" * 2048]}).encode("utf-8")
            client = small.client()
            client.send_raw(big)
            response = json.loads(client.read_response_line())
            assert response["exit_code"] == 2
            assert response["error"]["kind"] == "oversized"
            assert client.read_response_line() == b""  # connection closed
            client.close()
            assert small.server.telemetry.snapshot()[
                "requests"]["protocol_errors"] >= 1

    def test_default_line_limit_is_generous(self):
        assert MAX_LINE_BYTES >= 1 << 20


class TestCommandErrorTaxonomy:
    """Argument errors inside a handler reproduce the CLI bytes exactly."""

    def _direct(self, argv):
        stdout, stderr = io.StringIO(), io.StringIO()
        code = run_command(argv, stdout=stdout, stderr=stderr)
        return code, stdout.getvalue(), stderr.getvalue()

    @pytest.mark.parametrize("verb,args", [
        ("design", ["--sinc-orders-base", "four"]),   # CLIError
        ("sweep", ["--jobs", "0"]),                   # CLIError
        ("report", ["/nonexistent/report.json"]),     # CLIError
        ("verify", ["--bogus-flag"]),                 # argparse usage error
        ("cache", ["stats", "--bogus"]),              # nested usage error
    ])
    def test_served_error_is_byte_identical_to_cli(self, harness, verb, args):
        code, stdout, stderr = self._direct([verb] + list(args))
        assert code == 2
        response = harness.request(verb, args)
        assert response["exit_code"] == 2
        assert response["ok"] is False
        assert response["stdout"] == stdout
        assert response["stderr"] == stderr

    def test_cheap_success_is_byte_identical_to_cli(self, harness, tmp_path):
        args = ["stats", "--cache-dir", str(tmp_path / "nope")]
        code, stdout, stderr = self._direct(["cache"] + args)
        assert code == 0
        response = harness.request("cache", args)
        assert response["exit_code"] == 0
        assert response["ok"] is True
        assert response["stdout"] == stdout
        assert response["stderr"] == stderr


class TestServedRequestsRunInline:
    def test_pooled_jobs_never_fork_from_the_daemon(self, harness,
                                                    monkeypatch):
        import repro.explore.runner as runner_module

        args = ["--output-bits", "12", "14", "--quiet", "--no-cache"]
        stdout = io.StringIO()
        assert run_command(["sweep", *args, "--jobs", "1"], stdout=stdout,
                           stderr=io.StringIO()) == 0

        def no_pool(*pool_args, **pool_kwargs):
            raise AssertionError("a served request must not fork a pool")

        monkeypatch.setattr(runner_module, "ProcessPoolExecutor", no_pool)
        response = harness.request("sweep", args + ["--jobs", "2"])
        assert response["exit_code"] == 0
        assert response["stdout"] == stdout.getvalue()
        assert "(inline executor, 1 jobs," in response["stderr"]


class TestControlVerbs:
    def test_stats_shape(self, harness):
        harness.request("ping")
        response = harness.request("stats")
        assert response["ok"] is True
        stats = response["stats"]
        # The stdout rendering carries the same payload.
        assert json.loads(response["stdout"]) == stats
        for key in ("queue_depth", "peak_queue_depth", "requests",
                    "coalesce", "artifact_store", "cache_hit_rate",
                    "latency_ms", "server", "uptime_s"):
            assert key in stats, key
        assert stats["requests"]["total"] >= 1
        assert stats["requests"]["by_verb"].get("ping", 0) >= 1
        assert stats["latency_ms"]["p50"] <= stats["latency_ms"]["p99"]
        assert stats["server"]["jobs"] == 2

    def test_queue_depth_returns_to_zero(self, harness):
        harness.request("cache", ["stats", "--cache-dir", "/tmp/absent"])
        serveutils.wait_until(
            lambda: harness.server.telemetry.snapshot()["queue_depth"] == 0,
            message="queue to drain")

    def test_shutdown_verb_stops_the_daemon(self):
        h = serveutils.ServerHarness(jobs=1)
        response = h.request("shutdown")
        assert response["ok"] is True
        assert response["stdout"] == "shutting down\n"
        deadline = time.monotonic() + 30
        while h._thread.is_alive() and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not h._thread.is_alive()


class TestParseAddress:
    def test_tcp_round_trip(self):
        address = parse_address("127.0.0.1:8765")
        assert address == Address(host="127.0.0.1", port=8765)
        assert not address.is_unix
        assert parse_address(str(address)) == address

    def test_unix_round_trip(self):
        address = parse_address("unix:/run/repro.sock")
        assert address.is_unix and address.path == "/run/repro.sock"
        assert parse_address(str(address)) == address

    @pytest.mark.parametrize("text", [
        "", "localhost", ":8765", "unix:", "localhost:http", "localhost:0",
        "localhost:65536",
    ])
    def test_malformed_addresses_are_rejected(self, text):
        with pytest.raises(ValueError, match="invalid address"):
            parse_address(text)
