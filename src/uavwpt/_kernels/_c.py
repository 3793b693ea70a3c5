"""The C libraries, compiled once and loaded through ctypes.

kernel.c solves power allocations and draw.c draws a block's random
variates.  :func:`load` returns a :class:`CKernel` bound to the solver and
:func:`load_draw` the draw entry, each None when its library cannot be
built or loaded.  A library is cached as ``__pycache__/<stem>-<key>.so``
beside its source, where the key is a 64-bit checksum (zlib's CRC-32 and
Adler-32) of the source, the compile flags, the machine type and the bytes
of every library it links: draw.c links numpy's
``numpy/random/lib/libnpyrandom.a``, found beside ``numpy.__file__`` so
that ``numpy.random`` is not imported.  A warm import only loads the
files: no compiler, no sysconfig lookup and no hashlib.  A cold cache
compiles with sysconfig's ``CC`` into a temporary name, moved into place
with ``os.replace`` so that concurrent imports never load a partial file;
the other ``<stem>-*.so`` files there, built from older sources or flags,
are then removed.  When that directory cannot be written, the build goes
to a temporary directory that is removed once the library is loaded.
Compiler output is captured, never printed.

Arrays reach C as raw addresses (``arr.ctypes.data`` into ``c_void_p``
arguments), after the wrappers have checked their shapes and made them
C-contiguous in the dtype C reads.
"""

import ctypes
import math
import os
import zlib
from pathlib import Path

import numpy as np

from ..errors import ConsistencyError

SOURCE = Path(__file__).with_name("kernel.c")
DRAW_SOURCE = SOURCE.with_name("draw.c")
NPYRANDOM = Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a"
CACHE_DIR = SOURCE.parent / "__pycache__"
# IEEE arithmetic as written: no contraction into fused multiply-adds, no
# fast-math reassociation and no host-specific instructions.
FLAGS = ("-O2", "-std=c99", "-fPIC", "-shared", "-ffp-contract=off")
COMPILE_TIMEOUT_S = 120.0


def library_name(source, stem="kernel", linked=()):
    """``<stem>-<key>.so`` for the bytes of a source and of the libraries it links."""
    crc, adler = 0, 1
    for part in (source, " ".join(FLAGS).encode(), os.uname().machine.encode(), *linked):
        crc, adler = zlib.crc32(part, crc), zlib.adler32(part, adler)
    return f"{stem}-{crc:08x}{adler:08x}.so"


def compiler_command():
    """The interpreter's C compiler as an argument list (sysconfig's ``CC``)."""
    import shlex
    import sysconfig  # only a cold cache needs the compiler's name

    return shlex.split(sysconfig.get_config_var("CC") or "cc")


def compile_library(source_path, out_path, link=()):
    """Compile a source into a shared library; raises OSError or SubprocessError on failure."""
    import subprocess

    subprocess.run(
        [*compiler_command(), *FLAGS, "-o", str(out_path), str(source_path), *map(str, link),
         "-lm"],
        stdin=subprocess.DEVNULL,
        capture_output=True,
        timeout=COMPILE_TIMEOUT_S,
        check=True,
    )


def _library(source, link=()):
    """The CDLL of ``source`` linked with ``link``, cached or freshly built; OSError if not."""
    cached = CACHE_DIR / library_name(
        source.read_bytes(), source.stem, [path.read_bytes() for path in link]
    )
    if cached.is_file():
        return ctypes.CDLL(str(cached))
    return _build(source, link, cached)


def _build(source, link, cached):
    """Compile ``source`` into ``cached`` and open it; OSError if that fails.

    The compiler writes a temporary file beside ``cached`` that is then
    moved into place, and the other libraries of the same stem there are
    removed: a process that loaded one keeps it mapped.  Where that
    directory cannot be written, the library is built for this process
    alone in a temporary directory; once loaded, it stays mapped after its
    file is removed.
    """
    import subprocess
    import tempfile

    stem = source.stem
    try:
        try:
            cached.parent.mkdir(exist_ok=True)
            fd, tmp = tempfile.mkstemp(prefix=f"{stem}-", suffix=".tmp", dir=cached.parent)
        except OSError:
            with tempfile.TemporaryDirectory(prefix=f"uavwpt-{stem}-") as scratch:
                private = Path(scratch) / cached.name
                compile_library(source, private, link)
                return ctypes.CDLL(str(private))
        os.close(fd)
        try:
            compile_library(source, tmp, link)
            os.replace(tmp, cached)
        finally:
            Path(tmp).unlink(missing_ok=True)
        lib = ctypes.CDLL(str(cached))
        for stale in cached.parent.glob(f"{stem}-*.so"):
            if stale != cached:
                stale.unlink(missing_ok=True)
        return lib
    except subprocess.SubprocessError as exc:
        raise OSError(f"cannot compile {source.name}") from exc


_I64, _DBL, _PTR = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p


def load():
    """A :class:`CKernel` on the cached or freshly built kernel.c, or None if it cannot be had."""
    try:
        fn = _library(SOURCE).solve_pga_batch
    except OSError:
        return None
    fn.argtypes = [
        _I64, _I64, _I64,                    # B, K, N
        _PTR,                                # h, complex128 (B, K, N)
        _PTR,                                # dw, float64 (B, K)
        _DBL,                                # sigma2
        _PTR,                                # budget, float64 (B,)
        _DBL, _DBL, _I64, _DBL, _DBL,        # tol, kkt_tol, max_iter, armijo, shrink
        _PTR,                                # p out, float64 (B, K)
        _PTR,                                # objective out, float64 (B,)
        _PTR,                                # iterations out, int64 (B,)
        _PTR,                                # kkt residual out, float64 (B,)
        _PTR,                                # converged out, bool (B,)
    ]
    fn.restype = ctypes.c_int
    return CKernel(fn)


def load_draw():
    """draw.c's :func:`draw_variates` on its cached or fresh build, or None if it cannot be had."""
    try:
        fn = _library(DRAW_SOURCE, (NPYRANDOM,)).draw_variates
    except OSError:
        return None
    fn.argtypes = [
        _I64,                                # rows
        _PTR, _I64,                          # seed words, uint32, and their count
        _PTR, _PTR,                          # cells and trials, uint64 (rows,)
        _I64, _I64,                          # uniforms and normals per row
        _PTR, _PTR,                          # uniform and normal out, float64
    ]
    fn.restype = None

    def draw_variates(seed, cells, trials, uniform, normal):
        """Row b of each output from the stream ``channel.trial_rng(seed, cells[b], trials[b])``.

        Fills ``uniform[b]`` with that stream's ``random()`` variates and
        then ``normal[b]`` with its ``standard_normal()`` ones, in C order;
        the outputs are float64 and C-contiguous with one leading row per
        pair.  Each row is bitwise what that Generator draws.
        """
        cells = np.ascontiguousarray(cells, dtype=np.uint64)
        trials = np.ascontiguousarray(trials, dtype=np.uint64)
        rows = cells.size
        if cells.shape != (rows,) or trials.shape != (rows,) or any(
            out.dtype != np.float64 or not out.flags.c_contiguous or not out.flags.writeable
            or out.shape[:1] != (rows,)
            for out in (uniform, normal)
        ):
            raise ValueError(
                f"expected cells and trials (B,) and C-contiguous float64 outputs (B, ...), got "
                f"{cells.shape}, {trials.shape}, {uniform.shape} {uniform.dtype} and "
                f"{normal.shape} {normal.dtype}"
            )
        words = _seed_words(seed)
        fn(rows, words.ctypes.data, words.size, cells.ctypes.data, trials.ctypes.data,
           math.prod(uniform.shape[1:]), math.prod(normal.shape[1:]),
           uniform.ctypes.data, normal.ctypes.data)

    return draw_variates


def _seed_words(seed):
    """SeedSequence's entropy words of ``seed``: its uint32 words, low first, padded to four."""
    seed = int(seed)
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    count = max(4, -(-seed.bit_length() // 32))
    return np.array([seed >> 32 * i & 0xFFFFFFFF for i in range(count)], dtype=np.uint32)


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
            n_rows, k_ues, n_antennas, h.ctypes.data, dw.ctypes.data, float(sigma2),
            budget.ctypes.data, float(tol), float(kkt_tol), int(max_iter), float(armijo),
            float(shrink), p.ctypes.data, objective.ctypes.data, iterations.ctypes.data,
            kkt.ctypes.data, converged.ctypes.data,
        )
        if status == 1:
            raise ConsistencyError("accumulated interference matrix is not positive definite")
        if status != 0:
            raise MemoryError("solver kernel could not allocate its workspace")
        return p, objective, iterations, kkt, converged

    def solve_pga(self, h, dw, sigma2, budget, tol, kkt_tol, max_iter, armijo, shrink):
        """:meth:`solve_pga_batch` of one row, as :func:`uavwpt._kernels._ref.solve_pga`.

        Returns (p, objective, iterations, kkt_residual, converged), the
        last four as Python scalars.
        """
        p, f, iterations, kkt, converged = self.solve_pga_batch(
            np.asarray(h, dtype=complex)[None], np.asarray(dw, dtype=float)[None], sigma2,
            np.array([budget], dtype=float), tol, kkt_tol, max_iter, armijo, shrink,
        )
        return p[0], float(f[0]), int(iterations[0]), float(kkt[0]), bool(converged[0])
