"""Harness shared by the workloads: child processes, percentiles, timing."""

from __future__ import annotations

import math
import os
import shutil
import statistics
import subprocess
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

#: Longest any single child process may run before it is killed.
CHILD_TIMEOUT_S = 150.0


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile: the ceil(fraction * n)-th smallest value."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = min(max(1, math.ceil(fraction * len(ordered))), len(ordered))
    return ordered[rank - 1]


def calibrate(rounds: int = 3) -> float:
    """Median time of a fixed pure-Python CPU loop (host speed context)."""
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


@dataclass
class Child:
    """One finished child process."""

    seconds: float
    exit_code: int
    rss_mb: float
    stdout: str
    stderr: str
    started: float


class Context:
    """Per-run state: the scratch directory, child environment, counters."""

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.seconds = seconds
        work_root = os.path.join(ROOT, ".perfbench-work")
        os.makedirs(work_root, exist_ok=True)
        self.work = tempfile.mkdtemp(prefix="run-", dir=work_root)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + ([self.env["PYTHONPATH"]]
                     if self.env.get("PYTHONPATH") else []))
        self._serial = 0

    def path(self, stem: str) -> str:
        """A fresh path inside this run's scratch directory."""
        self._serial += 1
        return os.path.join(self.work, f"{stem}-{self._serial}")

    def fresh_dir(self, stem: str) -> str:
        path = self.path(stem)
        os.makedirs(path)
        return path

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.work))
        except OSError:
            pass

    def spawn(self, argv: List[str]) -> Child:
        """Run ``argv`` to completion; time it and read its peak RSS."""
        out_path, err_path = self.path("stdout"), self.path("stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env,
                                    stdout=out, stderr=err,
                                    stdin=subprocess.DEVNULL)
            exit_code, rss_mb = reap(proc, CHILD_TIMEOUT_S)
            seconds = time.perf_counter() - started
        return Child(seconds, exit_code, rss_mb, read_text(out_path),
                     read_text(err_path), started)


def reap(proc: subprocess.Popen, timeout_s: float):
    """Wait for ``proc`` (killing it after ``timeout_s``); return its exit
    code and peak RSS in MB."""
    watchdog = threading.Timer(timeout_s, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:  # interrupted: leave no child behind
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def read_text(path: str) -> str:
    """The text of ``path`` (undecodable bytes replaced)."""
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        return fh.read()


@dataclass
class Result:
    """What a workload returns to run.py."""

    attempted: int
    failed: int
    metrics: Dict[str, float]
    notes: Dict[str, str]
