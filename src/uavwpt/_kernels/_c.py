"""The C solver kernel: kernel.c, compiled once and loaded through ctypes.

:func:`load` returns a :class:`CKernel` bound to the compiled library, or
None when it cannot be built or loaded.  The library is cached as
``__pycache__/kernel-<digest>.so`` beside kernel.c, where the digest is the
SHA-256 of the source, the compile flags and the machine type, so a warm
import only loads it: no compiler and no sysconfig lookup.  A cold cache
compiles with sysconfig's ``CC`` into a temporary name, moved into place
with ``os.replace`` so that concurrent imports never load a partial file;
the other ``kernel-*.so`` files there, built from older sources or flags,
are then removed.  When that directory cannot be written, the build goes
to a temporary directory that is removed once the library is loaded.
Compiler output is captured, never printed.
"""

import ctypes
import hashlib
import os
from pathlib import Path

import numpy as np

from ..errors import ConsistencyError
from . import _ref

SOURCE = Path(__file__).with_name("kernel.c")
CACHE_DIR = SOURCE.parent / "__pycache__"
# IEEE arithmetic as written: no contraction into fused multiply-adds, no
# fast-math reassociation and no host-specific instructions.
FLAGS = ("-O2", "-std=c99", "-fPIC", "-shared", "-ffp-contract=off")
COMPILE_TIMEOUT_S = 120.0


def library_name(source):
    """``kernel-<digest>.so`` for the bytes of kernel.c."""
    digest = hashlib.sha256(source)
    digest.update(" ".join(FLAGS).encode())
    digest.update(os.uname().machine.encode())
    return f"kernel-{digest.hexdigest()}.so"


def compiler_command():
    """The interpreter's C compiler as an argument list (sysconfig's ``CC``)."""
    import shlex
    import sysconfig  # only a cold cache needs the compiler's name

    return shlex.split(sysconfig.get_config_var("CC") or "cc")


def compile_library(source_path, out_path):
    """Compile kernel.c into a shared library; raises OSError or SubprocessError on failure."""
    import subprocess

    subprocess.run(
        [*compiler_command(), *FLAGS, "-o", str(out_path), str(source_path), "-lm"],
        stdin=subprocess.DEVNULL,
        capture_output=True,
        timeout=COMPILE_TIMEOUT_S,
        check=True,
    )


def _open(path):
    """The library's solve_pga_batch with its argument types declared."""
    lib = ctypes.CDLL(str(path))
    fn = lib.solve_pga_batch

    def array(dtype):
        return np.ctypeslib.ndpointer(dtype=dtype, flags="C_CONTIGUOUS")

    i64, dbl = ctypes.c_int64, ctypes.c_double
    fn.argtypes = [
        i64, i64, i64,                       # B, K, N
        array(np.complex128),                # h
        array(np.float64),                   # dw
        dbl,                                 # sigma2
        array(np.float64),                   # budget
        dbl, dbl, i64, dbl, dbl,             # tol, kkt_tol, max_iter, armijo, shrink
        array(np.float64),                   # p out
        array(np.float64),                   # objective out
        array(np.int64),                     # iterations out
        array(np.float64),                   # kkt residual out
        array(np.bool_),                     # converged out
    ]
    fn.restype = ctypes.c_int
    return fn


def load():
    """A :class:`CKernel` on the cached or freshly built library, or None if it cannot be had."""
    try:
        cached = CACHE_DIR / library_name(SOURCE.read_bytes())
        if cached.is_file():
            return CKernel(_open(cached))
        return _build(cached)
    except OSError:
        return None


def _build(cached):
    """Compile kernel.c into ``cached`` and open it; OSError if that fails.

    The compiler writes a temporary file beside ``cached`` that is then
    moved into place, and the other libraries there are removed: a process
    that loaded one keeps it mapped.  Where that directory cannot be
    written, the library is built for this process alone in a temporary
    directory; once loaded, it stays mapped after its file is removed.
    """
    import subprocess
    import tempfile

    try:
        try:
            cached.parent.mkdir(exist_ok=True)
            fd, tmp = tempfile.mkstemp(prefix="kernel-", suffix=".tmp", dir=cached.parent)
        except OSError:
            with tempfile.TemporaryDirectory(prefix="uavwpt-kernel-") as scratch:
                private = Path(scratch) / cached.name
                compile_library(SOURCE, private)
                return CKernel(_open(private))
        os.close(fd)
        try:
            compile_library(SOURCE, tmp)
            os.replace(tmp, cached)
        finally:
            Path(tmp).unlink(missing_ok=True)
        kernel = CKernel(_open(cached))
        for stale in cached.parent.glob("kernel-*.so"):
            if stale != cached:
                stale.unlink(missing_ok=True)
        return kernel
    except subprocess.SubprocessError as exc:
        raise OSError(f"cannot compile {SOURCE.name}") from exc


class CKernel:
    """solve_pga_batch and solve_pga of _ref, run by the compiled kernel."""

    def __init__(self, fn):
        self._fn = fn

    def solve_pga_batch(self, h, dw, sigma2, budget, tol, kkt_tol, max_iter, armijo, shrink):
        """As :func:`uavwpt._kernels._ref.solve_pga_batch`, one row at a time in C."""
        h = np.ascontiguousarray(h, dtype=np.complex128)
        dw = np.ascontiguousarray(dw, dtype=np.float64)
        budget = np.ascontiguousarray(budget, dtype=np.float64)
        if h.ndim != 3 or dw.shape != h.shape[:2] or budget.shape != h.shape[:1]:
            raise ValueError(
                f"expected h (B, K, N), dw (B, K) and budget (B,), got shapes "
                f"{h.shape}, {dw.shape} and {budget.shape}"
            )
        if (budget < 0).any():
            raise ValueError("budget must be nonnegative")
        n_rows, k_ues, n_antennas = h.shape
        p = np.empty((n_rows, k_ues))
        objective = np.empty(n_rows)
        iterations = np.empty(n_rows, dtype=np.int64)
        kkt = np.empty(n_rows)
        converged = np.empty(n_rows, dtype=bool)
        status = self._fn(
            n_rows, k_ues, n_antennas, h, dw, float(sigma2), budget,
            float(tol), float(kkt_tol), int(max_iter), float(armijo), float(shrink),
            p, objective, iterations, kkt, converged,
        )
        if status == 1:
            raise ConsistencyError("accumulated interference matrix is not positive definite")
        if status != 0:
            raise MemoryError("solver kernel could not allocate its workspace")
        return p, objective, iterations, kkt, converged

    def solve_pga(self, h, dw, sigma2, budget, tol, kkt_tol, max_iter, armijo, shrink):
        """:meth:`solve_pga_batch` of one row, as :func:`uavwpt._kernels._ref.solve_pga`."""
        return _ref.solve_one(self.solve_pga_batch, h, dw, sigma2, budget, tol, kkt_tol,
                              max_iter, armijo, shrink)
