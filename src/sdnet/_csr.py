"""Sparse storage for spectral operators.

Imported only from inside the ``spectral`` functions that build or solve
an operator, so that ``import sdnet`` (and every pipeline that never
builds an operator) loads no scipy.

``hermitian_from_upper`` assembles an operator's CSR rows in place:
row i holds its mirrored cells (columns below i), its diagonal, then its
upper cells (columns above i), and the row counts say where each run
starts. The upper cells arrive ordered by (row, column), so they fill
their slots in order; the mirrored ones fill theirs in (column, row)
order, which a counting sort of the upper triangle (scipy's CSR to CSC
conversion) gives. No COO triple is concatenated or lexsorted.
``hermitian_residual`` measures ||M - M^H||_F entry by entry against each
entry's mirror, whose position the same counting sort of the entry
numbers finds, with no transposed or subtracted matrix formed.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

# entries compared per step, which bounds each step's temporaries
BLOCK = 1 << 16


class CSRMatrix(sparse.csr_array):
    """``csr_array`` whose ``nbytes`` counts its data, indices and indptr."""

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes + self.indices.nbytes + self.indptr.nbytes)


def hermitian_from_upper(n: int, rows: np.ndarray, cols: np.ndarray,
                         upper: np.ndarray, diag: np.ndarray | None) -> CSRMatrix:
    """CSR matrix with ``upper`` at (rows, cols), its conjugate mirrored
    at (cols, rows) and an optional real or complex diagonal.

    (rows, cols) must be distinct cells above the diagonal (rows < cols),
    ordered by (rows, cols), as ``graph.symmetric_pairs`` gives them.
    Column indices come out sorted within each row, and every stored
    diagonal is kept, zero or not; the data keeps the dtype of ``upper``
    and ``diag``, and a -0.0 component is stored as 0.0, as an averaged
    (M + M^H) / 2 gives it.
    """
    on = 0 if diag is None else 1
    dtype = upper.dtype if diag is None else np.result_type(upper, diag)
    below = np.bincount(cols, minlength=n)  # mirrored cells per row
    above = np.bincount(rows, minlength=n)
    nnz = 2 * upper.size + on * n
    index = np.int32 if max(n, nnz) < 2 ** 31 else np.int64
    indptr = np.zeros(n + 1, dtype=index)
    np.cumsum(below + above + on, out=indptr[1:])
    # slot kinds along the rows: 0 mirrored, 1 diagonal, 2 upper
    kind = np.repeat(np.tile(np.array([0, 1, 2], dtype=np.uint8), n),
                     np.stack([below, np.full(n, on), above], axis=1).ravel())
    del below
    data = np.empty(nnz, dtype=dtype)
    indices = np.empty(nnz, dtype=index)
    slots = kind == 2
    data[slots] = upper
    indices[slots] = cols
    if diag is not None:
        np.equal(kind, 1, out=slots)
        data[slots] = diag
        indices[slots] = np.arange(n, dtype=index)
    # the mirrored cells are the upper triangle's transpose, in (cols, rows)
    # order, which scipy's counting sort gives
    starts = np.zeros(n + 1, dtype=index)
    np.cumsum(above, out=starts[1:])
    del above
    mirrored = sparse.csr_array((upper, cols.astype(index), starts), shape=(n, n)).tocsc()
    np.equal(kind, 0, out=slots)
    del kind
    data[slots] = np.conjugate(mirrored.data, out=mirrored.data)
    indices[slots] = mirrored.indices
    del mirrored, slots
    data += 0.0
    return CSRMatrix((data, indices, indptr), shape=(n, n))


def hermitian_residual(m: CSRMatrix) -> float:
    """||m - m^H||_F of a canonical square CSR matrix.

    When the stored pattern is symmetric, each entry is compared with
    its mirror, BLOCK entries at a time; the mirror positions come from
    transposing the entry numbers (a counting sort), so no transposed
    values are held. Otherwise m - m^H is formed and measured.
    """
    nnz = m.nnz
    number = np.arange(nnz, dtype=np.int32 if nnz < 2 ** 31 else np.int64)
    mirror = sparse.csr_array((number, m.indices, m.indptr), shape=m.shape).tocsc()
    del number
    if not (np.array_equal(mirror.indptr, m.indptr)
            and np.array_equal(mirror.indices, m.indices)):
        return float(np.linalg.norm((m - m.conj().T).data))
    total = 0.0
    for s in range(0, nnz, BLOCK):
        diff = m.data[mirror.data[s:s + BLOCK]]
        np.conjugate(diff, out=diff)
        np.subtract(m.data[s:s + BLOCK], diff, out=diff)
        parts = diff.view(np.float64)  # real and imaginary parts
        total += float(np.square(parts, out=parts).sum())  # no threaded BLAS call
    return float(np.sqrt(total))


def as_csr(m) -> CSRMatrix:
    """CSR form of a dense array or sparse matrix, in canonical format
    (duplicates summed, column indices sorted within rows): float64 when
    every imaginary part is zero, complex128 otherwise."""
    out = CSRMatrix(m if sparse.issparse(m) else np.asarray(m))
    if not out.has_canonical_format:
        out = out.copy()  # may share arrays with m, which stays as it was
        out.sum_duplicates()
    real = not np.any(out.data.imag)
    out.data = np.asarray(out.data.real if real else out.data,
                          dtype=np.float64 if real else np.complex128)
    return out
