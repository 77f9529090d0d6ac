"""Compiled kernels for the modulator recursion, the batched Hogenauer stage
and the halfband CSD search.

``kernels.c`` is compiled on first use with the system C compiler (``cc``
on ``PATH``) and loaded through :mod:`ctypes`, which releases the GIL for
the duration of each call.  The shared library is cached per user under
``$XDG_CACHE_HOME/repro`` (default ``~/.cache/repro``), named by a hash of
the source, the compiler flags and the platform, so an edited source never
loads a stale library; when that directory is not writable the library is
built in a per-process temporary directory instead.  Publication is atomic
(private temp file, then :func:`os.replace`), so racing processes leave
one complete library, and a published library carries its own SHA-256 as
a trailer, so a truncated or corrupt cache entry is rebuilt, never loaded.

:func:`load` returns ``None`` when no compiler is available or the build
fails; callers then run their pure-Python gold models, which the kernels
match bit for bit.  Tests substitute ``load`` to force that fallback.
"""

from __future__ import annotations

import atexit
import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from typing import Optional

import numpy as np

SOURCE = Path(__file__).with_name("kernels.c")
#: No -ffast-math and no -march: contracting ``a*e + s`` into an FMA, or
#: any reassociation, would change the rounding the kernels must share
#: with the Python loops.
CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
LDLIBS = ("-lm",)


def cache_dir() -> Path:
    """The per-user directory compiled libraries are cached in."""
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(base) / "repro"


def library_name(source: bytes) -> str:
    """File name of the library built from ``source`` on this platform."""
    key = repr((CFLAGS, LDLIBS, sys.platform, platform.machine())).encode()
    return f"kernels-{hashlib.sha256(source + key).hexdigest()[:16]}.so"


class NativeLoader:
    """Builds and loads the kernel library once, on first :meth:`load`."""

    def __init__(self, directory: Optional[Path] = None) -> None:
        self.directory = directory
        self._lock = threading.Lock()
        self._done = False
        self._library: Optional[ctypes.CDLL] = None

    def load(self) -> Optional[ctypes.CDLL]:
        """The bound library, or ``None`` when it cannot be built."""
        with self._lock:
            if not self._done:
                self._library = self._build_and_open()
                self._done = True
            return self._library

    def _build_and_open(self) -> Optional[ctypes.CDLL]:
        source = SOURCE.read_bytes()
        compiler = shutil.which("cc")
        try:
            return _open_or_build(self.directory or cache_dir(), source,
                                  compiler)
        except OSError:
            scratch = tempfile.mkdtemp(prefix="repro-native-")
            atexit.register(shutil.rmtree, scratch, True)
            try:
                return _open_or_build(Path(scratch), source, compiler)
            except OSError:
                return None


def _open_or_build(directory: Path, source: bytes,
                   compiler: Optional[str]) -> Optional[ctypes.CDLL]:
    path = directory / library_name(source)
    if _intact(path):
        return _bind(ctypes.CDLL(str(path)))
    if compiler is None:
        return None
    directory.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=path.name + ".",
                               suffix=".tmp")
    os.close(fd)
    try:
        built = subprocess.run(
            [compiler, *CFLAGS, "-x", "c", "-o", tmp, "-", *LDLIBS],
            input=source, capture_output=True)
        if built.returncode != 0:
            return None
        with open(tmp, "rb+") as fh:
            fh.write(hashlib.sha256(fh.read()).digest())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return _bind(ctypes.CDLL(str(path)))


def _intact(path: Path) -> bool:
    """Whether ``path`` holds a published library: its bytes end with their
    own SHA-256.  Checked before :func:`ctypes.CDLL`, because mapping a
    truncated library can kill the process instead of raising."""
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return False
    return data[-32:] == hashlib.sha256(data[:-32]).digest()


def _bind(library: ctypes.CDLL) -> ctypes.CDLL:
    """Declare the three kernels' signatures.  Every array argument is an
    address (:func:`address`): :func:`numpy.ctypeslib.ndpointer` checks
    cost more per call than the batched kernels' own work on short
    records, so each caller checks dtype, C-contiguity and shape once per
    call (``csd_search`` once per design) before it passes addresses."""
    size, real, address_t = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    library.ef_simulate.argtypes = [address_t, size, size, address_t,
                                    address_t, size, real, real, real, real,
                                    address_t, address_t, address_t,
                                    address_t, address_t]
    library.ef_simulate.restype = ctypes.c_int64
    library.cic_decimate.argtypes = [address_t, ctypes.c_uint64, size, size,
                                     size, size, size, address_t, address_t]
    library.cic_decimate.restype = None
    library.csd_search.argtypes = [address_t, size, size, address_t,
                                   address_t, size, size, size, size,
                                   address_t, size, address_t, size, real,
                                   address_t, address_t]
    library.csd_search.restype = ctypes.c_int64
    return library


def address(array: Optional[np.ndarray]) -> Optional[int]:
    """The data address of a checked array argument (``None`` passes a
    NULL pointer).  The caller keeps the array alive through the call."""
    return None if array is None else array.ctypes.data


_DEFAULT = NativeLoader()


def load() -> Optional[ctypes.CDLL]:
    """The process-wide kernel library (built on first call), or ``None``."""
    return _DEFAULT.load()
