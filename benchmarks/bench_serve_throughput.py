"""Design-service throughput: replayable traffic, cold vs hot, k clients.

Drives a running (or freshly spawned) ``repro serve`` daemon with a fixed,
replayable request trace from ``k`` concurrent clients behind a barrier —
every client sends the same design/verify mix, so identical in-flight
requests coalesce — then replays the identical trace against the now-hot
store.  Reports requests/s for both passes, the coalesce count, the cache
hit rate, and whether every response (cold, hot, across clients) carried
byte-identical stdout, and emits ``BENCH_serve_throughput.json`` for the
CI floor gate (``tools/check_bench_floors.py``).

A second phase overloads a deliberately tiny daemon (``--jobs 1
--max-queue 1``) with ``k`` *retrying* clients on distinct coalescing
keys, recording the shed count, the post-retry success rate (the PR 8
contract: 100% — every shed request is recovered by backoff), the
queue-wait p99, and whether a SIGTERM then drains the daemon to a clean
exit 0.  The overload phase always spawns its own constrained daemon,
even in ``--connect`` mode: shedding a shared daemon would perturb the
replay half.

Runs three ways:

* ``python -m pytest benchmarks/bench_serve_throughput.py -s`` — the CI
  tests-job bench smoke (spawns its own daemons, one per client count);
* ``python benchmarks/bench_serve_throughput.py`` — the same, as a plain
  script (no pytest dependency: the docs job has none);
* ``python benchmarks/bench_serve_throughput.py --connect HOST:PORT`` —
  replay against an already-running daemon (the CI docs-job serve smoke).
"""

from __future__ import annotations

import argparse
import os
import re
import signal
import subprocess
import sys
import threading
import time

from benchutils import emit_json, print_series

#: The replayable request trace: every client sends these, round-robin.
TRACE = [
    ("design", ["--no-activity"]),
    ("verify", ["--no-activity"]),
    ("design", ["--no-activity", "--library", "generic-90nm"]),
]


def _phase(address, k, rounds, timeout=600.0):
    """Run one traffic pass: ``k`` barrier-synchronized clients, each
    sending ``rounds`` trace requests; returns (elapsed_s, stdouts) where
    ``stdouts[client][round]`` is the response body (None on error)."""
    from repro.serve.client import ServeClient

    barrier = threading.Barrier(k + 1)
    stdouts = [[None] * rounds for _ in range(k)]

    def worker(index):
        with ServeClient(address, timeout=timeout) as client:
            barrier.wait(timeout=timeout)
            for round_index in range(rounds):
                verb, args = TRACE[round_index % len(TRACE)]
                response = client.request(
                    verb, args, request_id=f"{index}-{round_index}")
                if response.get("exit_code") == 0:
                    stdouts[index][round_index] = response["stdout"]

    threads = [threading.Thread(target=worker, args=(i,), daemon=True)
               for i in range(k)]
    for thread in threads:
        thread.start()
    barrier.wait(timeout=timeout)   # all clients connected: start the clock
    started = time.perf_counter()
    for thread in threads:
        thread.join(timeout=timeout)
    return time.perf_counter() - started, stdouts


def _stats(address):
    from repro.serve.client import call

    return call(address, "stats")["stats"]


def _spawn_server(jobs=4, extra_args=()):
    """Start a ``repro serve`` subprocess on an ephemeral port; returns
    ``(process, parsed_address)``."""
    from repro.serve.client import parse_address

    env = dict(os.environ)
    repo_src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--jobs", str(jobs)] + list(extra_args),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env)
    line = process.stdout.readline()
    match = re.search(r"listening on (\S+)", line)
    if not match:
        process.kill()
        raise RuntimeError(f"server failed to announce: {line!r}")
    return process, parse_address(match.group(1))


def _bench_one(address, k, rounds):
    """Cold + hot pass at ``k`` clients against ``address``; returns the
    curve entry.  'Cold' is relative to the daemon's store state — truly
    cold when the daemon is fresh (spawn mode)."""
    before = _stats(address)
    cold_s, cold_stdouts = _phase(address, k, rounds)
    hot_s, hot_stdouts = _phase(address, k, rounds)
    after = _stats(address)

    requests = k * rounds
    flat_cold = [s for client in cold_stdouts for s in client]
    flat_hot = [s for client in hot_stdouts for s in client]
    identical = (all(flat_cold) and flat_cold == flat_hot
                 and all(cold_stdouts[i] == cold_stdouts[0]
                         for i in range(k)))
    return {
        "clients": k,
        "requests_per_pass": requests,
        "cold_s": round(cold_s, 4),
        "hot_s": round(hot_s, 4),
        "cold_rps": round(requests / max(cold_s, 1e-9), 2),
        "hot_rps": round(requests / max(hot_s, 1e-9), 2),
        "hot_speedup": round(cold_s / max(hot_s, 1e-9), 2),
        "coalesced": (after["coalesce"]["coalesced"]
                      - before["coalesce"]["coalesced"]),
        "responses_identical": identical,
        "cache_hit_rate": after["cache_hit_rate"],
    }


def _overload_phase(k=4, rounds=3, retries=20):
    """Shed-and-recover under deliberate overload.

    Spawns a constrained daemon (``--jobs 1 --max-queue 1`` — admission
    capacity 2) and slams it with ``k`` retrying clients, every request a
    *distinct* coalescing key at identical cost (``--snr-samples`` is
    ignored without ``--snr`` but changes the content hash, so nothing
    coalesces away).  Returns the overload record: shed count, post-retry
    success rate, queue-wait p99, and whether SIGTERM drained the daemon
    to exit 0.

    The shedding does not rely on a slow modulator: ``design`` without
    ``--snr`` never simulates it.  The first round's four requests leave
    one barrier together onto two admission slots, and a cold design
    (halfband search) takes far longer than their arrival spread, so at
    least one is shed however fast the simulation kernels are.
    """
    from repro.serve.client import ServeClient

    process, address = _spawn_server(jobs=1, extra_args=["--max-queue", "1"])
    barrier = threading.Barrier(k + 1)
    succeeded = [[False] * rounds for _ in range(k)]

    def worker(index):
        with ServeClient(address, timeout=600.0, retries=retries,
                         backoff_base_s=0.05, backoff_cap_s=0.5) as client:
            barrier.wait(timeout=600)
            for round_index in range(rounds):
                args = ["--no-activity", "--snr-samples",
                        str(4096 + index * rounds + round_index)]
                response = client.request(
                    "design", args, request_id=f"ovl-{index}-{round_index}")
                succeeded[index][round_index] = \
                    response.get("exit_code") == 0

    threads = [threading.Thread(target=worker, args=(i,), daemon=True)
               for i in range(k)]
    for thread in threads:
        thread.start()
    barrier.wait(timeout=600)
    started = time.perf_counter()
    for thread in threads:
        thread.join(timeout=600)
    elapsed = time.perf_counter() - started

    stats = _stats(address)
    process.send_signal(signal.SIGTERM)
    try:
        clean_exit = process.wait(timeout=120) == 0
    except subprocess.TimeoutExpired:
        process.kill()
        clean_exit = False

    requests = k * rounds
    ok = sum(1 for client in succeeded for flag in client if flag)
    return {
        "clients": k,
        "requests": requests,
        "succeeded": ok,
        "retry_success_rate": round(ok / requests, 4),
        "shed": stats["resilience"]["shed"],
        "queue_wait_p99_ms": stats["queue_wait_ms"]["p99"],
        "elapsed_s": round(elapsed, 4),
        "drain_clean_exit": clean_exit,
    }


def run_benchmark(connect=None, clients=(1, 2, 4), rounds=3, jobs=4):
    """Run the full curve and emit ``BENCH_serve_throughput.json``;
    returns the emitted payload."""
    curve = []
    final_stats = None
    for k in clients:
        if connect is not None:
            address = connect
            process = None
        else:
            process, address = _spawn_server(jobs=jobs)
        try:
            curve.append(_bench_one(address, k, rounds))
            final_stats = _stats(address)
        finally:
            if process is not None:
                from repro.serve.client import call

                call(address, "shutdown")
                process.wait(timeout=60)

    overload = _overload_phase()

    payload = {
        "mode": "connect" if connect is not None else "spawn",
        "rounds": rounds,
        "trace": [[verb] + args for verb, args in TRACE],
        "curve": curve,
        "responses_identical": all(e["responses_identical"] for e in curve),
        "coalesced": sum(e["coalesced"] for e in curve),
        "cache_hit_rate": final_stats["cache_hit_rate"],
        "hot_speedup": max(e["hot_speedup"] for e in curve),
        "cold_s_max": max(e["cold_s"] for e in curve),
        "overload": overload,
    }
    print_series(
        "Design service — cold vs hot throughput",
        ["clients", "cold req/s", "hot req/s", "speedup", "coalesced"],
        [(e["clients"], e["cold_rps"], e["hot_rps"],
          f"{e['hot_speedup']:.1f}x", e["coalesced"]) for e in curve])
    print(f"responses identical: {payload['responses_identical']}, "
          f"coalesced total: {payload['coalesced']}, "
          f"cache hit rate: {payload['cache_hit_rate']:.3f}")
    print(f"overload: {overload['shed']} shed of {overload['requests']} "
          f"requests at {overload['clients']} clients, "
          f"retry success {overload['retry_success_rate']:.0%}, "
          f"queue-wait p99 {overload['queue_wait_p99_ms']:.1f} ms, "
          f"clean drain exit: {overload['drain_clean_exit']}")
    emit_json("serve_throughput", payload)
    return payload


def test_serve_throughput():
    """CI bench-smoke entry point (collected by explicit path only)."""
    payload = run_benchmark(clients=(1, 2), rounds=3)
    assert payload["responses_identical"] is True
    assert payload["coalesced"] >= 1
    assert payload["cache_hit_rate"] > 0.0
    assert payload["overload"]["shed"] >= 1
    assert payload["overload"]["retry_success_rate"] == 1.0
    assert payload["overload"]["drain_clean_exit"] is True


def main(argv=None):
    """Plain-script entry point (the docs job has no pytest)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--connect", default=None, metavar="HOST:PORT",
                        help="replay against a running daemon instead of "
                             "spawning one per client count")
    parser.add_argument("--clients", default="1,2,4",
                        help="comma-separated client counts (default: 1,2,4)")
    parser.add_argument("--rounds", type=int, default=3,
                        help="requests per client per pass (default: 3)")
    parser.add_argument("--jobs", type=int, default=4,
                        help="worker pool size of spawned daemons")
    args = parser.parse_args(argv)
    connect = None
    if args.connect is not None:
        from repro.serve.client import parse_address

        connect = parse_address(args.connect)
    clients = tuple(int(part) for part in args.clients.split(","))
    payload = run_benchmark(connect=connect, clients=clients,
                            rounds=args.rounds, jobs=args.jobs)
    return 0 if payload["responses_identical"] else 1


if __name__ == "__main__":
    sys.exit(main())
