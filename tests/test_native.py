"""Build safety of the compiled kernel library (``repro._native``).

The library is compiled on first use and cached per user; these tests pin
that first use is safe under concurrency, that a damaged or stale cache
entry is never loaded, and that a host without a C compiler runs the
Python fallback with identical results.
"""

import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro import _native
from repro.dsm import DeltaSigmaModulator, coherent_tone
from repro.dsm.modulator import FastErrorFeedbackSimulator

REPO_SRC = Path(__file__).resolve().parents[1] / "src"

needs_compiler = pytest.mark.skipif(shutil.which("cc") is None,
                                    reason="no C compiler on PATH")


def _library_files(directory: Path):
    return sorted(p.name for p in directory.iterdir()) if directory.exists() \
        else []


def _stimulus():
    return np.stack([coherent_tone(2.5e6, a, 640e6, 4096)
                     for a in (0.4, 0.8, 1.5)])


def _simulate_bytes(stimulus):
    modulator = DeltaSigmaModulator()
    result = FastErrorFeedbackSimulator(
        modulator.ntf, modulator.quantizer).simulate_batch(stimulus)
    return (result.output.tobytes() + result.quantizer_input.tobytes()
            + result.codes.tobytes() + result.stable.tobytes())


def _env(**overrides):
    return dict(os.environ, PYTHONPATH=str(REPO_SRC), **overrides)


def _run_repro(args, cwd, **env_overrides):
    return subprocess.run([sys.executable, "-m", "repro", *args], cwd=cwd,
                          env=_env(**env_overrides), capture_output=True,
                          timeout=600)


@needs_compiler
class TestFirstUse:
    def test_racing_threads_share_one_build(self, tmp_path, monkeypatch):
        loader = _native.NativeLoader(tmp_path / "cache")
        monkeypatch.setattr(_native, "load", loader.load)
        stimulus = _stimulus()
        results = [None] * 4
        barrier = threading.Barrier(4)

        def worker(index):
            barrier.wait(timeout=60)
            results[index] = _simulate_bytes(stimulus)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        assert loader.load() is not None
        assert len(set(results)) == 1 and results[0] is not None
        names = _library_files(tmp_path / "cache")
        assert names == [_native.library_name(_native.SOURCE.read_bytes())]
        monkeypatch.setattr(_native, "load", lambda: None)
        assert _simulate_bytes(stimulus) == results[0]

    def test_racing_processes_publish_one_library(self, tmp_path):
        cache = tmp_path / "xdg"
        args = ["robustness", "run", "lte-20", "--samples", "4",
                "--stimulus-samples", "2048", "--quiet", "--json"]
        procs = []
        for index in range(4):
            procs.append(subprocess.Popen(
                [sys.executable, "-m", "repro", *args, f"r{index}.json"],
                cwd=tmp_path, env=_env(XDG_CACHE_HOME=str(cache)),
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE))
        for proc in procs:
            _, stderr = proc.communicate(timeout=600)
            assert proc.returncode == 0, stderr
        reports = {(tmp_path / f"r{i}.json").read_bytes() for i in range(4)}
        assert len(reports) == 1
        names = _library_files(cache / "repro")
        assert len(names) == 1 and names[0].endswith(".so"), names


@needs_compiler
class TestDamagedCache:
    def test_corrupt_library_is_rebuilt(self, tmp_path):
        name = _native.library_name(_native.SOURCE.read_bytes())
        (tmp_path / name).write_bytes(b"not a shared library")
        assert _native.NativeLoader(tmp_path).load() is not None
        assert (tmp_path / name).read_bytes()[:4] == b"\x7fELF"
        assert _library_files(tmp_path) == [name]

    def test_truncated_library_is_rebuilt(self, tmp_path):
        good = tmp_path / "good"
        assert _native.NativeLoader(good).load() is not None
        (name,) = _library_files(good)
        damaged = tmp_path / "damaged"
        damaged.mkdir()
        intact = (good / name).read_bytes()
        (damaged / name).write_bytes(intact[:len(intact) // 3])
        assert _native.NativeLoader(damaged).load() is not None
        assert (damaged / name).read_bytes() == intact
        assert _library_files(damaged) == [name]

    def test_source_edit_never_loads_a_stale_library(self, tmp_path,
                                                     monkeypatch):
        cache = tmp_path / "cache"
        assert _native.NativeLoader(cache).load() is not None
        (original,) = _library_files(cache)
        edited = tmp_path / "kernels.c"
        edited.write_bytes(_native.SOURCE.read_bytes()
                           + b"\n/* edited */\n")
        monkeypatch.setattr(_native, "SOURCE", edited)
        assert _native.NativeLoader(cache).load() is not None
        rebuilt = _native.library_name(edited.read_bytes())
        assert rebuilt != original
        assert _library_files(cache) == sorted([original, rebuilt])

    def test_unwritable_cache_dir_builds_in_a_temp_dir(self, tmp_path):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        assert _native.NativeLoader(blocker / "repro").load() is not None


class TestNoCompiler:
    def test_loader_reports_no_library(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PATH", str(tmp_path / "empty-bin"))
        assert _native.NativeLoader(tmp_path / "cache").load() is None
        assert not (tmp_path / "cache").exists()

    def test_robustness_check_passes_on_the_fallback(self, tmp_path):
        (tmp_path / "bin").mkdir()
        fallback = _run_repro(["robustness", "check"], tmp_path,
                              PATH=str(tmp_path / "bin"),
                              XDG_CACHE_HOME=str(tmp_path / "none"))
        assert fallback.returncode == 0, fallback.stderr
        assert not (tmp_path / "none").exists()
        if shutil.which("cc") is None:
            return
        kernel = _run_repro(["robustness", "check"], tmp_path,
                            XDG_CACHE_HOME=str(tmp_path / "xdg"))
        assert kernel.returncode == 0, kernel.stderr
        assert _library_files(tmp_path / "xdg" / "repro")
        assert kernel.stdout == fallback.stdout
