"""Coalescing concurrency tests: one shared execution per identical request.

The `faultutils` treatment applied to the service layer: N real clients
race the same request behind a barrier while the design flow is gated on
an event, so the test *proves* every client joined one in-flight
computation before releasing it — the flow-call counter (the
``test_robustness_engine`` idiom) then shows exactly one execution.  A
client that disconnects mid-coalesce must not cancel the shared
computation for the survivors: the server runs it on an independent task.
"""

import threading
import time

import pytest

import serveutils

#: The request every test coalesces on (cheap-ish: no activity measurement).
DESIGN_ARGS = ["--no-activity"]


@pytest.fixture()
def gated_flow(monkeypatch):
    """Gate + count every ``run_design_flow`` call, wherever it's imported.

    Returns ``(calls, gate)``: ``calls["n"]`` is the number of flow
    executions, and no execution completes until ``gate.set()`` — which is
    what makes the coalescing windows deterministic instead of racy.
    """
    import repro.flow
    import repro.flow.pipeline

    real = repro.flow.pipeline.run_design_flow
    calls = {"n": 0}
    lock = threading.Lock()
    gate = threading.Event()

    def gated(*args, **kwargs):
        with lock:
            calls["n"] += 1
        assert gate.wait(timeout=120), "gate never released"
        return real(*args, **kwargs)

    monkeypatch.setattr(repro.flow, "run_design_flow", gated)
    monkeypatch.setattr(repro.flow.pipeline, "run_design_flow", gated)
    return calls, gate


class TestCoalescing:
    def test_n_identical_concurrent_requests_execute_once(self, gated_flow):
        calls, gate = gated_flow
        n = 4
        with serveutils.ServerHarness(jobs=n) as harness:
            results = {}

            def run_barrier():
                for index, response in serveutils.barrier_clients(
                        harness.address, n, "design", DESIGN_ARGS):
                    results[index] = response

            sender = threading.Thread(target=run_barrier, daemon=True)
            sender.start()
            # Deterministic window: every client has joined the in-flight
            # computation before it is allowed to finish.
            serveutils.wait_until(
                lambda: harness.server.coalescer.coalesced >= n - 1,
                message=f"{n - 1} coalesced joiners")
            # ...and the leader's execution has started (and is gated).
            serveutils.wait_until(lambda: calls["n"] == 1,
                                  message="leader to reach the flow")
            assert harness.server.coalescer.launched == 1
            gate.set()
            sender.join(timeout=120)
            assert not sender.is_alive()

            assert sorted(results) == list(range(n))
            assert all(results[i] is not None for i in range(n))
            stdouts = {results[i]["stdout"] for i in range(n)}
            assert len(stdouts) == 1 and stdouts.pop()  # identical, non-empty
            assert all(results[i]["exit_code"] == 0 for i in range(n))
            leaders = [i for i in range(n) if not results[i]["coalesced"]]
            assert len(leaders) == 1
            assert calls["n"] == 1  # the flow ran exactly once for N clients
            stats = harness.request("stats")["stats"]
            assert stats["coalesce"]["coalesced"] == n - 1
            assert stats["coalesce"]["launched"] == 1
            assert stats["coalesce"]["in_flight"] == 0

    def test_different_requests_do_not_coalesce(self, gated_flow):
        calls, gate = gated_flow
        gate.set()  # no window needed: just count executions
        with serveutils.ServerHarness(jobs=2) as harness:
            a = harness.request("design", DESIGN_ARGS, timeout=120)
            b = harness.request("design", DESIGN_ARGS + ["--library",
                                                         "generic-90nm"],
                                timeout=120)
            assert a["exit_code"] == b["exit_code"] == 0
            assert a["key"] != b["key"]
            assert calls["n"] == 2
            assert harness.server.coalescer.coalesced == 0

    def test_disconnect_mid_coalesce_keeps_survivors(self, gated_flow):
        calls, gate = gated_flow
        with serveutils.ServerHarness(jobs=2) as harness:
            from repro.serve.protocol import encode_line

            quitter = harness.client(timeout=120)
            quitter.send_raw(encode_line(
                {"id": "quitter", "verb": "design",
                 "args": DESIGN_ARGS}).encode("utf-8"))
            serveutils.wait_until(
                lambda: harness.server.coalescer.launched == 1,
                message="leader launch")

            survivor = harness.client(timeout=120)
            survivor.send_raw(encode_line(
                {"id": "survivor", "verb": "design",
                 "args": DESIGN_ARGS}).encode("utf-8"))
            serveutils.wait_until(
                lambda: harness.server.coalescer.coalesced == 1,
                message="survivor join")

            # The leader walks away mid-flight...
            quitter.close()
            time.sleep(0.1)  # let the disconnect reach the event loop
            gate.set()

            # ...and the survivor still gets the full result.
            response_line = survivor.read_response_line()
            survivor.close()
            assert response_line, "survivor starved by leader disconnect"
            import json

            response = json.loads(response_line)
            assert response["id"] == "survivor"
            assert response["exit_code"] == 0
            assert response["stdout"]
            assert calls["n"] == 1  # shared computation was never cancelled

    def test_warm_rerun_reuses_the_hot_store(self, gated_flow):
        calls, gate = gated_flow
        gate.set()
        with serveutils.ServerHarness(jobs=2) as harness:
            cold = harness.request("design", DESIGN_ARGS, timeout=120)
            assert cold["exit_code"] == 0
            store_after_cold = dict(harness.server.store.stats())

            warm = harness.request("design", DESIGN_ARGS, timeout=120)
            assert warm["exit_code"] == 0
            # Byte-identity across cold and warm: memoized stages are
            # bit-identical to cold computation.
            assert warm["stdout"] == cold["stdout"]
            assert warm["stderr"] == cold["stderr"]
            # The second run re-launched (nothing in flight) but fed on
            # the hot store.
            assert harness.server.coalescer.launched == 2
            store_after_warm = harness.server.store.stats()
            assert store_after_warm["hits"] > store_after_cold["hits"]
            stats = harness.request("stats")["stats"]
            assert stats["cache_hit_rate"] > 0.0
            assert calls["n"] == 2  # two command runs, stages memoized

    def test_activity_is_measured_once_per_daemon(self, monkeypatch):
        import repro.hardware.synthesis as synthesis

        calls = []
        real = synthesis.measure_hogenauer_activity

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(synthesis, "measure_hogenauer_activity", counting)
        with serveutils.ServerHarness(jobs=2) as harness:
            cold = harness.request("design", [], timeout=120)
            assert cold["exit_code"] == 0
            misses = harness.request("stats")["stats"]["artifact_store"][
                "misses"]
            warm = harness.request("design", [], timeout=120)
            assert warm["stdout"] == cold["stdout"]
            stats = harness.request("stats")["stats"]["artifact_store"]
            # The repeat was answered from the store: one activity
            # measurement, and no stage missed a second time.
            assert stats["misses"] == misses
            assert len(calls) == 1
            assert len([key for key in harness.server.store._data
                        if key[0] == "hogenauer-activity"]) == 1
