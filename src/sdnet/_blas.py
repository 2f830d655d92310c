"""OpenBLAS entry points reached by ctypes (a process-wide thread limit
around small sparse eigensolves and LAPACK's top-k symmetric eigensolver),
the one check every computed eigenpair passes, and ``sum_squares``.

An array whose length grows with n or m is summed by ``np.einsum``, never
by a BLAS level-1 call (``np.linalg.norm`` without ``axis``, a vector
``@``): OpenBLAS threads ``ddot`` above 10,000 entries, which on 2 cores
costs about 8 ms a call and moves its last bits with the thread count.

``NumericError`` and ``check_residual`` live here, in the leaf module
that ``graph`` and ``spectral`` both import. Each solver, the Lanczos
one and both dense feature builders, checks its pairs against the
operator it solved: a residual ||M v - lambda v|| above
``RESIDUAL_RTOL * max(1, ||M||_inf)`` (1e-10 times the Gershgorin
row-sum bound), or a NaN residual, raises NumericError.

``single_blas_thread`` sets every OpenBLAS loaded in the process to one
thread and restores the saved counts when the outermost holder exits,
also on an exception. The counts are process-wide, so other threads'
BLAS calls run single-threaded meanwhile. Libraries are found once, from
``/proc/self/maps``, at the first call: scipy's own OpenBLAS must be
loaded by then. Where none is found (another OS, MKL, a system BLAS)
the limit does nothing.

``top_eigh`` solves for the k largest eigenpairs of a dense real
symmetric matrix by ``dsyevr`` over an index range (bisection and
inverse iteration; Dhillon & Parlett, SIAM J. Matrix Anal. Appl. 2004)
through the LAPACKE symbol numpy's ILP64 OpenBLAS exports, so no scipy
is loaded. Its lookup (``lapacke_dsyevr``) keeps its own cache and
leaves the thread limit's untouched, so the limit still finds a scipy
loaded after the first solve. Where the symbol is absent ``top_eigh``
returns None. ctypes is imported only by the lookups.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np

# (get, set) names OpenBLAS builds export: plain, scipy's wheel, and
# numpy's ILP64 wheel
_SYMBOLS = (("openblas_get_num_threads", "openblas_set_num_threads"),
            ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
            ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"))

# LAPACKE_dsyevr as numpy's ILP64 OpenBLAS wheel spells it: int64 lapack_int
_DSYEVR = "scipy_LAPACKE_dsyevr64_"
_LAPACK_COL_MAJOR = 102

# an eigenpair residual above RESIDUAL_RTOL * max(1, ||M||_inf) fails
RESIDUAL_RTOL = 1e-10

_lock = threading.Lock()
_libraries = None
_dsyevr = None
_dsyevr_looked_up = False
_depth = 0
_saved: list[int] = []


class NumericError(RuntimeError):
    """Numerical failure (non-convergence, invalid operator)."""


def check_residual(residual, norm_inf: float, where: str) -> None:
    """NumericError "<where> have residual r above bound" unless every
    eigenpair residual in ``residual`` is within RESIDUAL_RTOL *
    max(1, norm_inf); a NaN residual fails, no residuals pass."""
    worst = np.max(residual, initial=0.0)
    bound = RESIDUAL_RTOL * max(1.0, norm_inf)
    if not worst <= bound:
        raise NumericError(f"{where} have residual {worst:.3g} above {bound:.3g}")


def sum_squares(a: np.ndarray) -> float:
    """sum |a_i|^2 over the float64 view of a C-contiguous real or complex
    array, by einsum: the same bits at any thread count, no temporary."""
    parts = a.reshape(-1).view(np.float64)
    return float(np.einsum("i,i->", parts, parts))


def _mapped_openblas():
    """(path, library) of each OpenBLAS already mapped into the process."""
    import ctypes
    import os
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split(maxsplit=5)[5].strip() for line in maps
                            if "openblas" in line})
    except OSError:
        return
    for path in paths:
        try:
            yield path, ctypes.CDLL(path, mode=os.RTLD_NOLOAD)  # never loads a new copy
        except OSError:
            continue


def _find() -> list[tuple[str, object, object]]:
    found = []
    for path, lib in _mapped_openblas():
        for names in _SYMBOLS:
            if all(hasattr(lib, name) for name in names):
                found.append((path, *(getattr(lib, name) for name in names)))
                break
    return found


def openblas_libraries() -> list[tuple[str, object, object]]:
    """(path, get_num_threads, set_num_threads) of each loaded OpenBLAS."""
    global _libraries
    with _lock:
        if _libraries is None:
            _libraries = _find()
    return _libraries


def lapacke_dsyevr():
    """The loaded OpenBLAS's ``LAPACKE_dsyevr`` (int64 lapack_int), or None."""
    global _dsyevr, _dsyevr_looked_up
    with _lock:
        if not _dsyevr_looked_up:
            _dsyevr_looked_up = True
            for _, lib in _mapped_openblas():
                if hasattr(lib, _DSYEVR):
                    import ctypes
                    i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
                    _dsyevr = getattr(lib, _DSYEVR)
                    # layout, jobz, range, uplo, n, a, lda, vl, vu, il, iu,
                    # abstol, m, w, z, ldz, isuppz
                    _dsyevr.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_char,
                                        ctypes.c_char, i64, ptr, i64, f64, f64, i64, i64,
                                        f64, ptr, ptr, ptr, i64, ptr]
                    _dsyevr.restype = i64
                    break
    return _dsyevr


def top_eigh(a: np.ndarray, k: int):
    """Ascending eigenvalues and n x k eigenvectors of the k largest
    eigenpairs of the C-contiguous real symmetric float64 n x n ``a``, or
    None where ``LAPACKE_dsyevr`` is absent. LAPACK overwrites ``a``.

    ``a`` goes in as LAPACK_COL_MAJOR, that is as its own transpose, so
    LAPACKE copies nothing; its upper triangle is read, the triangle of
    the transpose that ``np.linalg.eigh`` reads by default. A nonzero
    ``info`` or a count of pairs other than k raises NumericError.
    """
    fn = lapacke_dsyevr()
    if fn is None:
        return None
    import ctypes
    n = a.shape[0]
    if a.dtype != np.float64 or a.shape != (n, n) or not a.flags.c_contiguous:
        raise ValueError("top_eigh needs a C-contiguous float64 square matrix")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    w = np.empty(n)
    z = np.empty((k, n))  # column-major n x k, ldz = n
    isuppz = np.empty(2 * k, dtype=np.int64)
    m = ctypes.c_int64(0)
    info = fn(_LAPACK_COL_MAJOR, b"V", b"I", b"U", n, a.ctypes.data, n, 0.0, 0.0,
              n - k + 1, n, 0.0, ctypes.byref(m), w.ctypes.data, z.ctypes.data, n,
              isuppz.ctypes.data)
    if info != 0 or m.value != k:
        raise NumericError(f"dsyevr (n={n}, k={k}) returned info={info} "
                           f"with {m.value} eigenpairs")
    return w[:k], z.T


@contextmanager
def single_blas_thread():
    """Run the block with every loaded OpenBLAS on one thread."""
    global _depth, _saved
    libraries = openblas_libraries()
    with _lock:
        if _depth == 0:
            _saved = [get() for _, get, _ in libraries]
            for _, _, set_ in libraries:
                set_(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for (_, _, set_), count in zip(libraries, _saved):
                    set_(count)
