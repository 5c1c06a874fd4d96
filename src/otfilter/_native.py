"""The transportation simplex in C (``_simplex.c``), compiled at first use.

``load_kernel`` builds the shared library the first time a solve asks for
it, never at import, with the C compiler Python was built with, and caches
it per user in ``$XDG_CACHE_HOME/otfilter`` (``~/.cache/otfilter`` by
default).  The file name is a checksum of the source, the flags, the
compiler and the machine, so an edited source or another compiler builds a
new library.  Each build writes a unique temporary file and renames it into
place, so processes that build at once never load a partial library.  If
the cache cannot be written the library is built in a private temporary
directory.  Without a working compiler ``load_kernel`` returns None and the
solver runs its Python loop, which returns the same plans bit for bit.

The checksum is ``zlib.crc32``: ``hashlib`` would add megabytes of resident
memory to every process that solves.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import platform
import shlex
import shutil
import subprocess
import sysconfig
import tempfile
import zlib
from dataclasses import dataclass
from functools import cache
from pathlib import Path

import numpy as np

from .transport import (
    _REDUCED_COST_TOL,
    _bland_trigger,
    _iteration_limit,
    _iteration_limit_error,
)

_SOURCE = Path(__file__).with_name("_simplex.c")
# Never -ffast-math or -march=native: the kernel must round as the Python
# loop does, and a contracted multiply-add would not.
_FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
_COMPILE_TIMEOUT_S = 120

_DOUBLES = ctypes.c_void_p
_INT32S = ctypes.c_void_p


@dataclass(frozen=True)
class Kernel:
    """The loaded library; ``avx2`` picks the vectorised pricing loop, which
    enters the same cells as the scalar one."""

    lib: ctypes.CDLL
    avx2: bool

    def transportation_simplex(
        self, cost: np.ndarray, supply: np.ndarray, demand: np.ndarray
    ) -> np.ndarray:
        """``transport._transportation_simplex``, pivot for pivot, with the
        pivot rule's tolerance, Bland trigger and iteration limit from there."""
        cost, supply, demand = _checked(cost, supply, demand)
        n, m = cost.shape
        max_iterations = _iteration_limit(n, m)
        alloc = np.zeros((n, m))
        most_negative = ctypes.c_double()
        status = self.lib.otf_transport_simplex(
            cost.ctypes.data, supply.ctypes.data, demand.ctypes.data, n, m,
            _REDUCED_COST_TOL, _bland_trigger(n, m), max_iterations,
            self.avx2, alloc.ctypes.data, ctypes.byref(most_negative),
        )
        if status < 0:
            raise MemoryError("transportation simplex kernel could not allocate")
        if status == 1:
            raise _iteration_limit_error(max_iterations, most_negative.value, n)
        return alloc

    def initial_basic_solution(
        self, cost: np.ndarray, supply: np.ndarray, demand: np.ndarray
    ) -> list[tuple[int, int, float]]:
        """``transport._initial_basic_solution``: the least-cost start the
        kernel's simplex begins from."""
        cost, supply, demand = _checked(cost, supply, demand)
        n, m = cost.shape
        rows = np.empty(n + m - 1, dtype=np.int32)
        cols = np.empty(n + m - 1, dtype=np.int32)
        alloc = np.empty(n + m - 1)
        count = self.lib.otf_least_cost_start(
            cost.ctypes.data, supply.ctypes.data, demand.ctypes.data, n, m,
            rows.ctypes.data, cols.ctypes.data, alloc.ctypes.data,
        )
        if count < 0:
            raise MemoryError("least-cost start could not allocate")
        return list(zip(rows[:count].tolist(), cols[:count].tolist(), alloc[:count].tolist()))


def _checked(cost, supply, demand):
    """C-contiguous float64 copies (or the arrays themselves) of matching shapes."""
    cost = np.ascontiguousarray(cost, dtype=np.float64)
    supply = np.ascontiguousarray(supply, dtype=np.float64)
    demand = np.ascontiguousarray(demand, dtype=np.float64)
    if (cost.ndim != 2 or min(cost.shape) < 1
            or supply.shape != cost.shape[:1] or demand.shape != cost.shape[1:]):
        raise ValueError(
            f"cost {cost.shape}, supply {supply.shape} and demand {demand.shape} do not match"
        )
    return cost, supply, demand


def _compiler() -> list[str]:
    return shlex.split(sysconfig.get_config_var("CC") or "cc")


def _library_name(source: bytes, compiler: list[str]) -> str:
    build = "\0".join([*_FLAGS, *compiler, platform.machine()]).encode()
    return f"simplex-{zlib.crc32(build, zlib.crc32(source)):08x}.so"


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(base) / "otfilter"


def _build(directory: Path, name: str, source: bytes, compiler: list[str]) -> Path | None:
    """Compile ``source`` to ``directory / name``; None if the compiler is
    missing or fails.  Raises OSError if ``directory`` is not writable."""
    fd, partial = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp", dir=directory)
    os.close(fd)
    try:
        try:
            done = subprocess.run(
                [*compiler, *_FLAGS, "-o", partial, "-x", "c", "-"],
                input=source, capture_output=True, timeout=_COMPILE_TIMEOUT_S, check=False,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        if done.returncode != 0:
            return None
        os.replace(partial, directory / name)
        return directory / name
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(partial)


def _open(directory: Path, source: bytes, compiler: list[str]) -> ctypes.CDLL | None:
    """The cached library in ``directory``, built first if it is missing or
    does not load."""
    name = _library_name(source, compiler)
    with contextlib.suppress(OSError):
        return ctypes.CDLL(str(directory / name))
    path = _build(directory, name, source, compiler)
    return None if path is None else ctypes.CDLL(str(path))


def _open_private(source: bytes, compiler: list[str]) -> ctypes.CDLL | None:
    """Build in a temporary directory of this process's own, then remove
    it; the loaded library stays mapped.  None if that fails too."""
    with contextlib.suppress(OSError):
        directory = tempfile.mkdtemp(prefix="otfilter-")
        try:
            return _open(Path(directory), source, compiler)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
    return None


@cache
def load_kernel() -> Kernel | None:
    """The compiled kernel, built on first use; None when no C compiler works."""
    try:
        source = _SOURCE.read_bytes()
    except OSError:
        return None
    compiler = _compiler()
    try:
        directory = _cache_dir()
        directory.mkdir(mode=0o700, parents=True, exist_ok=True)
        lib = _open(directory, source, compiler)
    except (OSError, RuntimeError):  # RuntimeError: no home directory
        lib = _open_private(source, compiler)
    if lib is None:
        return None
    lib.otf_has_avx2.argtypes = []
    lib.otf_has_avx2.restype = ctypes.c_int
    lib.otf_least_cost_start.argtypes = [
        _DOUBLES, _DOUBLES, _DOUBLES, ctypes.c_int, ctypes.c_int, _INT32S, _INT32S, _DOUBLES,
    ]
    lib.otf_least_cost_start.restype = ctypes.c_int
    lib.otf_transport_simplex.argtypes = [
        _DOUBLES, _DOUBLES, _DOUBLES, ctypes.c_int, ctypes.c_int, ctypes.c_double,
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int, _DOUBLES, ctypes.POINTER(ctypes.c_double),
    ]
    lib.otf_transport_simplex.restype = ctypes.c_int
    return Kernel(lib=lib, avx2=bool(lib.otf_has_avx2()))
