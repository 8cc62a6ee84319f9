"""The compiled C kernel shared by planning, refinement, simulation and
mapping.

`_simkernel.c` holds the planner's log-domain value iteration (`solve_mdp`:
worklist drains, proper-policy restart and greedy plan extraction), the
refiner's sampling loop, the simulator's tick loop, and the occupancy
grid's slab test, voxel walk, extraction scan and grid.csv rows.  It needs
a C compiler (`cc` or `gcc`) and numpy's `libnpyrandom.a`: the first call
of `load` builds it into this package's `__pycache__/`, under a name that
carries the digest of the source, flags and that library, and later runs
load that file.  Nothing is built at import.
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
# numpy's C samplers for a Generator's bit generator, and their headers
_NUMPY_INCLUDE = Path(np.get_include())
_ARCHIVE = Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a"


def _compiler() -> str | None:
    return shutil.which("cc") or shutil.which("gcc")


def _digest(source: bytes, archive: bytes) -> str:
    """Name of a build of ``source`` linked with ``archive``: a changed
    kernel, flag set or numpy is a new library, never a stale one."""
    return hashlib.sha256(b"\0".join((source, " ".join(_CFLAGS).encode(), archive))).hexdigest()


def _build(source: Path, cache_dir: Path) -> Path:
    """The shared library of ``source``, compiled into ``cache_dir`` unless
    a build of the same source, flags and numpy library is already there."""
    for need in (_NUMPY_INCLUDE / "numpy" / "random" / "bitgen.h", _ARCHIVE):
        if not need.is_file():
            raise KernelBuildError(f"numpy's {need} is missing; {source} needs it")
    lib = cache_dir / f"{source.stem}-{_digest(source.read_bytes(), _ARCHIVE.read_bytes())}.so"
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
            proc = subprocess.run([cc, *_CFLAGS, f"-I{_NUMPY_INCLUDE}", "-o", tmp,
                                   str(source), str(_ARCHIVE), "-lm"],
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
    # ndarray arguments are checked for dtype and C order at every call; an
    # address (`ptr`) is not, so it must come from an array checked when made
    f64, intp, uptr, u8, i8 = (np.ctypeslib.ndpointer(t, flags="C_CONTIGUOUS")
                               for t in (np.float64, np.intp, np.uintp, np.uint8, np.int8))
    size, real, flag, ptr = ctypes.c_long, ctypes.c_double, ctypes.c_int, ctypes.c_void_p
    lib.solve_mdp.argtypes = [
        size, ptr, ptr, ptr, ptr, ptr,           # n, Mdp.addresses: costs,
        ptr, ptr, ptr, size,                     # .. preds, reach; start
        real, real, size, real,                  # log_x, dead_end, max_sweeps, tolerance
        f64, intp, intp, f64, intp]              # logv, policy, backups, seconds, scratch
    lib.solve_mdp.restype = size
    lib.refine_path.argtypes = [
        size, f64, size, f64,                    # npts, pts, zones, centers
        real, real, real, real, real,            # radius, v_max, v_crit, a_max, dt
        size, size, f64]                         # limit, capacity, out
    lib.refine_path.restype = size
    lib.simulate_ticks.argtypes = [
        size, real,                              # n, dt
        f64, f64, size,                          # points, speeds, last
        size, f64, f64,                          # m, half, centers
        uptr, real,                              # bit generators, sigma
        real, real, real, flag, real,            # capture .. timeout
        f64, intp, f64, u8, i8,                  # pos .. status
        size, intp, intp, f64, f64]              # capacity, event buffers
    lib.simulate_ticks.restype = size
    lib.integrate_beams.argtypes = [
        size, f64, f64, f64, real,               # n, origins, dirs, ranges, max_range
        real, real, real, real,                  # l_hit, l_miss, clamp bounds
        f64, intp, real, f64]                    # origin, dims, res, log_odds
    lib.integrate_beams.restype = size           # voxel updates made
    lib.nearest_hits.argtypes = [
        size, f64, f64,                          # n, origins, dirs
        size, f64, f64, real, f64]               # m, lo, hi, max_range, out
    lib.nearest_hits.restype = None
    lib.max_near_segments.argtypes = [
        size, f64, f64, f64, f64, real,          # n, a, b, scale, denom, radius
        real, f64, intp, real, f64, f64]         # eps, origin, dims, res, log_odds, out
    lib.max_near_segments.restype = None
    lib.grid_rows.argtypes = [
        size, intp, intp, intp,                  # n, flat, which, dims
        intp, u8, u8]                            # offsets, texts, out
    lib.grid_rows.restype = size
    return lib
