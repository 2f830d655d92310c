"""Sparse storage for spectral operators.

Imported only from inside the ``spectral`` functions that build or solve
an operator, so that ``import sdnet`` (and every pipeline that never
builds an operator) loads no scipy.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse


class CSRMatrix(sparse.csr_array):
    """``csr_array`` whose ``nbytes`` counts its data, indices and indptr."""

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes + self.indices.nbytes + self.indptr.nbytes)


def hermitian_from_upper(n: int, rows: np.ndarray, cols: np.ndarray,
                         upper: np.ndarray, diag: np.ndarray | None) -> CSRMatrix:
    """CSR matrix with ``upper`` at (rows, cols), its conjugate mirrored
    at (cols, rows) and an optional real or complex diagonal.

    (rows, cols) must be distinct strictly off-diagonal cells. Column
    indices come out sorted within each row.
    """
    r = [rows, cols]
    c = [cols, rows]
    v = [upper, np.conj(upper)]
    if diag is not None:
        r.append(np.arange(n))
        c.append(np.arange(n))
        v.append(diag)
    r = np.concatenate(r)
    c = np.concatenate(c)
    # + 0.0 turns a -0.0 component into 0.0, as an averaged (M + M^H) / 2 does
    v = np.concatenate(v).astype(np.complex128) + 0.0
    order = np.lexsort((c, r))
    index = np.int32 if max(n, v.size) < 2 ** 31 else np.int64
    indptr = np.zeros(n + 1, dtype=index)
    np.cumsum(np.bincount(r, minlength=n), out=indptr[1:])
    return CSRMatrix((v[order], c[order].astype(index), indptr), shape=(n, n))


def as_csr(m) -> CSRMatrix:
    """Complex CSR form of a dense array or sparse matrix, in canonical
    format: duplicates summed and column indices sorted within rows."""
    if not sparse.issparse(m):
        return CSRMatrix(np.asarray(m, dtype=np.complex128))
    out = CSRMatrix(m, dtype=np.complex128)
    if not out.has_canonical_format:
        out = out.copy()  # may share arrays with m, which stays as it was
        out.sum_duplicates()
    return out
