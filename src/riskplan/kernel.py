"""The compiled C kernel shared by simulation and mapping.

`_simkernel.c` holds the simulator's tick loop and the occupancy grid's
voxel walk.  It needs a C compiler (`cc` or `gcc`): the first call of
`load` compiles it into this package's `__pycache__/`, under a name that
carries the digest of the source and flags, and later runs load that file.
Nothing is built at import.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np


class KernelBuildError(RuntimeError):
    """The C kernel could not be compiled; names the compiler and source."""


_SOURCE = Path(__file__).with_name("_simkernel.c")
_CACHE_DIR = _SOURCE.parent / "__pycache__"
# -ffp-contract=off keeps every product and sum rounded on its own, as numpy
# rounds them; fast-math or -march flags would change the results
_CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")


def _compiler() -> str | None:
    return shutil.which("cc") or shutil.which("gcc")


def _digest(source: bytes) -> str:
    """Name of a build of ``source``: a changed kernel or flag set is a new
    library, never a stale one."""
    return hashlib.sha256(source + b"\0" + " ".join(_CFLAGS).encode()).hexdigest()


def _build(source: Path, cache_dir: Path) -> Path:
    """The shared library of ``source``, compiled into ``cache_dir`` unless
    a build of the same source and flags is already there."""
    lib = cache_dir / f"{source.stem}-{_digest(source.read_bytes())}.so"
    if lib.exists():
        return lib
    cc = _compiler()
    if cc is None:
        raise KernelBuildError(f"no C compiler (cc or gcc) on PATH to build {source}")
    try:
        cache_dir.mkdir(exist_ok=True)
        # build in a private directory, then rename atomically: concurrent
        # builds never load each other's half-written files
        private = tempfile.mkdtemp(dir=cache_dir)
        try:
            tmp = os.path.join(private, lib.name)
            proc = subprocess.run([cc, *_CFLAGS, "-o", tmp, str(source), "-lm"],
                                  capture_output=True, text=True)
            if proc.returncode:
                detail = proc.stderr.strip()
                raise KernelBuildError(
                    f"{cc} failed to compile {source} (exit {proc.returncode})"
                    + (f": {detail}" if detail else ""))
            os.replace(tmp, lib)
        finally:
            shutil.rmtree(private, ignore_errors=True)
    except OSError as exc:
        raise KernelBuildError(f"could not build {source} with {cc}: {exc}") from exc
    return lib


@functools.cache
def load() -> ctypes.CDLL:
    """The compiled kernel, built on first use."""
    lib = ctypes.CDLL(str(_build(_SOURCE, _CACHE_DIR)))
    # array arguments are checked for dtype and C order at every call
    f64, intp, u8, i8 = (np.ctypeslib.ndpointer(t, flags="C_CONTIGUOUS")
                         for t in (np.float64, np.intp, np.uint8, np.int8))
    size, real, flag = ctypes.c_long, ctypes.c_double, ctypes.c_int
    lib.norm3_batch.argtypes = [size, f64, f64]
    lib.norm3_batch.restype = None
    lib.simulate_ticks.argtypes = [
        size, size, real,                        # n, ticks, dt
        f64, f64, size,                          # points, speeds, last
        size, f64, f64,                          # m, half, centers
        flag, f64,                               # drift, noise
        real, real, real, flag, real,            # capture .. timeout
        f64, intp, f64, u8, i8,                  # pos .. status
        intp, intp, f64, f64]                    # event buffers
    lib.simulate_ticks.restype = size
    lib.integrate_beams.argtypes = [
        size, f64, f64, f64, f64,                # n, pos, dirs, ranges, max_ranges
        real, real, real, real,                  # l_hit, l_miss, clamp bounds
        f64, intp, real, f64]                    # origin, dims, res, log_odds
    lib.integrate_beams.restype = None
    return lib
