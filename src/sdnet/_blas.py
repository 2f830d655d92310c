"""LAPACK's top-k symmetric eigensolver, reached by ctypes in numpy's
OpenBLAS, the one check every computed eigenpair passes, and
``sum_squares``. sdnet never sets a BLAS thread count: every solve runs
at the count the process has (``OPENBLAS_NUM_THREADS`` sets it).

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

``top_eigh`` solves for the k largest eigenpairs of a dense real
symmetric matrix by ``dsyevr`` over an index range (bisection and
inverse iteration; Dhillon & Parlett, SIAM J. Matrix Anal. Appl. 2004)
through the LAPACKE symbol numpy's ILP64 OpenBLAS exports, so no scipy
is loaded. Its lookup (``lapacke_dsyevr``) reads ``/proc/self/maps``
once; where the symbol is absent (another OS, MKL, a system BLAS)
``top_eigh`` returns None. ctypes is imported only by the lookup.
"""

from __future__ import annotations

from functools import cache

import numpy as np

# LAPACKE_dsyevr as numpy's ILP64 OpenBLAS wheel spells it: int64 lapack_int
_DSYEVR = "scipy_LAPACKE_dsyevr64_"
_LAPACK_COL_MAJOR = 102

# an eigenpair residual above RESIDUAL_RTOL * max(1, ||M||_inf) fails
RESIDUAL_RTOL = 1e-10


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
    """Each OpenBLAS already mapped into the process."""
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
            yield ctypes.CDLL(path, mode=os.RTLD_NOLOAD)  # never loads a new copy
        except OSError:
            continue


@cache
def lapacke_dsyevr():
    """The loaded OpenBLAS's ``LAPACKE_dsyevr`` (int64 lapack_int), or None."""
    for lib in _mapped_openblas():
        if hasattr(lib, _DSYEVR):
            import ctypes
            i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
            fn = getattr(lib, _DSYEVR)
            # layout, jobz, range, uplo, n, a, lda, vl, vu, il, iu, abstol,
            # m, w, z, ldz, isuppz
            fn.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_char, ctypes.c_char,
                           i64, ptr, i64, f64, f64, i64, i64, f64, ptr, ptr, ptr, i64, ptr]
            fn.restype = i64
            return fn
    return None


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
