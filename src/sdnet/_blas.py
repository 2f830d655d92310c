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

``top_eigh`` is sdnet's one dense top-k eigensolver: the k largest
eigenpairs of a real symmetric matrix, descending, by ``dsyevr`` over an
index range (bisection and inverse iteration; Dhillon & Parlett, SIAM J.
Matrix Anal. Appl. 2004) through the LAPACKE symbol numpy's ILP64
OpenBLAS exports, so no scipy is loaded. Its lookup (``lapacke_dsyevr``)
asks the handle of numpy's own LAPACK extension for the symbol, once per
process; where it is absent (MKL, a system BLAS) ``top_eigh`` takes the
top of a full ``np.linalg.eigh``. ctypes is imported only when the
symbol is looked up or called.
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


@cache
def lapacke_dsyevr():
    """``LAPACKE_dsyevr`` (int64 lapack_int) of the OpenBLAS that numpy's
    own LAPACK extension links, or None. A symbol lookup on the handle of
    ``numpy.linalg._umath_linalg``, which RTLD_NOLOAD never loads anew,
    searches that extension's libraries."""
    import ctypes
    import os
    from numpy.linalg import _umath_linalg
    try:
        lib = ctypes.CDLL(_umath_linalg.__file__, mode=getattr(os, "RTLD_NOLOAD", 0))
    except OSError:
        return None
    fn = getattr(lib, _DSYEVR, None)
    if fn is not None:
        i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
        # layout, jobz, range, uplo, n, a, lda, vl, vu, il, iu, abstol,
        # m, w, z, ldz, isuppz
        fn.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_char, ctypes.c_char,
                       i64, ptr, i64, f64, f64, i64, i64, f64, ptr, ptr, ptr, i64, ptr]
        fn.restype = i64
    return fn


def top_eigh(a: np.ndarray, k: int):
    """The k largest eigenpairs of the C-contiguous real symmetric float64
    n x n ``a``, by descending eigenvalue, the vectors as a C-contiguous
    n x k array: ``dsyevr`` for those k alone, or the top of a full
    ``np.linalg.eigh`` where ``LAPACKE_dsyevr`` is absent. LAPACK may
    overwrite ``a``.

    ``a`` goes to ``dsyevr`` as LAPACK_COL_MAJOR, that is as its own
    transpose, so LAPACKE copies nothing; its upper triangle is read, the
    triangle of the transpose that ``np.linalg.eigh`` reads by default. A
    nonzero ``info`` or a count of pairs other than k raises NumericError.
    """
    n = a.shape[0]
    if a.dtype != np.float64 or a.shape != (n, n) or not a.flags.c_contiguous:
        raise ValueError("top_eigh needs a C-contiguous float64 square matrix")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    fn = lapacke_dsyevr()
    if fn is None:
        vals, vecs = np.linalg.eigh(a)
    else:
        import ctypes
        vals = np.empty(n)
        z = np.empty((k, n))  # column-major n x k, ldz = n
        isuppz = np.empty(2 * k, dtype=np.int64)
        m = ctypes.c_int64(0)
        info = fn(_LAPACK_COL_MAJOR, b"V", b"I", b"U", n, a.ctypes.data, n, 0.0, 0.0,
                  n - k + 1, n, 0.0, ctypes.byref(m), vals.ctypes.data, z.ctypes.data, n,
                  isuppz.ctypes.data)
        if info != 0 or m.value != k:
            raise NumericError(f"dsyevr (n={n}, k={k}) returned info={info} "
                               f"with {m.value} eigenpairs")
        vals, vecs = vals[:k], z.T
    return vals[::-1][:k], np.ascontiguousarray(vecs[:, ::-1][:, :k])
