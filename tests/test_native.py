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


#: A few-line stand-in for ``kernels.c``: the loader binds only these
#: symbols, so the cache tests build it in milliseconds instead of
#: compiling the full kernels.
STAND_IN_SOURCE = b"""
long long ef_simulate(void) { return -1; }
void cic_decimate(void) {}
long long csd_search(void) { return -1; }
"""

#: A child process that loads the library built from the source at argv[1].
LOAD_CHILD = ("import sys; from pathlib import Path; from repro import _native; "
              "_native.SOURCE = Path(sys.argv[1]); "
              "sys.exit(0 if _native.load() is not None else 'no library')")


@pytest.fixture
def stand_in_source(tmp_path, monkeypatch):
    source = tmp_path / "stand-in" / "kernels.c"
    source.parent.mkdir()
    source.write_bytes(STAND_IN_SOURCE)
    monkeypatch.setattr(_native, "SOURCE", source)
    return source


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

    @pytest.mark.usefixtures("stand_in_source")
    def test_racing_processes_publish_one_library(self, tmp_path):
        cache = tmp_path / "xdg"
        procs = [subprocess.Popen(
            [sys.executable, "-c", LOAD_CHILD, str(_native.SOURCE)],
            cwd=tmp_path, env=_env(XDG_CACHE_HOME=str(cache)),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
            for _ in range(4)]
        for proc in procs:
            _, stderr = proc.communicate(timeout=600)
            assert proc.returncode == 0, stderr
        assert _library_files(cache / "repro") == [
            _native.library_name(_native.SOURCE.read_bytes())]


@needs_compiler
@pytest.mark.usefixtures("stand_in_source")
class TestDamagedCache:
    def test_corrupt_library_is_rebuilt(self, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        name = _native.library_name(_native.SOURCE.read_bytes())
        (cache / name).write_bytes(b"not a shared library")
        assert _native.NativeLoader(cache).load() is not None
        assert (cache / name).read_bytes()[:4] == b"\x7fELF"
        assert _library_files(cache) == [name]

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
        # The check designs the lte-20 halfband, so this compares the CSD
        # search kernel with its fallback as well as the sample-rate loops.
        kernel = _run_repro(["robustness", "check"], tmp_path,
                            XDG_CACHE_HOME=str(tmp_path / "xdg"))
        assert kernel.returncode == 0, kernel.stderr
        assert _library_files(tmp_path / "xdg" / "repro")
        assert kernel.stdout == fallback.stdout


class _NoCalls:
    """A stand-in library whose sample-rate kernels must not be reached."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        def kernel(*args):
            self.calls.append(name)
            raise AssertionError(f"{name} reached with unchecked arguments")
        return kernel


class TestAddressArguments:
    """The sample-rate kernels take raw addresses, so their callers check
    dtype, C-contiguity and shape first: a bad array raises before C."""

    @pytest.fixture
    def no_calls(self, monkeypatch):
        library = _NoCalls()
        monkeypatch.setattr(_native, "load", lambda: library)
        return library

    @staticmethod
    def _simulator():
        modulator = DeltaSigmaModulator()
        return FastErrorFeedbackSimulator(modulator.ntf, modulator.quantizer)

    def test_simulate_batch_rejects_bad_out(self, no_calls):
        u = _stimulus()[:2, :256]
        wide = np.empty((2, 512), dtype=np.int64)
        read_only = np.empty(u.shape, dtype=np.int64)
        read_only.flags.writeable = False
        for out in (np.empty(u.shape, dtype=np.int32),      # wrong dtype
                    wide[:, ::2],                            # non-contiguous
                    np.empty((2, 255), dtype=np.int64),      # short
                    read_only):
            with pytest.raises(ValueError, match="out must be"):
                self._simulator().simulate_batch(u, codes_only=True, out=out)
        assert no_calls.calls == []

    def test_simulate_batch_rejects_bad_input(self, no_calls):
        simulator = self._simulator()
        for u, error in ((_stimulus()[0, :256], ValueError),       # 1-D
                         (np.array([["a", "b"]]), ValueError),     # dtype
                         (np.full((1, 8), np.nan), ValueError)):   # not finite
            with pytest.raises(error):
                simulator.simulate_batch(u)
        assert no_calls.calls == []

    def test_process_batch_rejects_bad_samples(self, no_calls):
        from repro.filters.hogenauer import HogenauerDecimator
        from repro.filters.sinc import SincFilterSpec

        stage = HogenauerDecimator(SincFilterSpec(4, 2, 4, 640e6))
        with pytest.raises(TypeError, match="integer samples"):
            stage.process_batch(np.zeros((2, 64)))                # float
        with pytest.raises(ValueError, match="2-D"):
            stage.process_batch(np.zeros(64, dtype=np.int64))     # 1-D
        assert no_calls.calls == []

    @needs_compiler
    def test_non_contiguous_inputs_are_copied_not_misread(self):
        from repro.filters.hogenauer import HogenauerDecimator
        from repro.filters.sinc import SincFilterSpec

        u = _stimulus()
        strided = np.repeat(u, 2, axis=1)[:, ::2]
        assert not strided.flags.c_contiguous
        simulator = self._simulator()
        codes = simulator.simulate_batch(u, codes_only=True).codes
        assert np.array_equal(
            simulator.simulate_batch(strided, codes_only=True).codes, codes)
        stage = HogenauerDecimator(SincFilterSpec(4, 2, 4, 640e6))
        samples = np.asfortranarray(codes)
        assert not samples.flags.c_contiguous
        assert np.array_equal(stage.process_batch(samples, offset=8),
                              stage.process_batch(codes, offset=8))
        assert np.array_equal(stage.process_batch(codes, offset=8)[1],
                              stage.process(codes[1] - 8))
