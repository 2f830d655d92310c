"""Sparse storage for spectral operators.

Imported only from inside the ``spectral`` functions that build or solve
an operator, so that ``import sdnet`` (and every pipeline that never
builds an operator) loads no scipy.

``hermitian_from_upper`` assembles an operator's CSR rows in place:
row i holds its mirrored cells (columns below i), its diagonal, then its
upper cells (columns above i), and the row counts say where each run
starts. Every value is written straight to its slot, BLOCK cells at a
time: an upper cell's slot follows from its place in the input, which is
ordered by (row, column), and a mirrored cell's from its rank within its
new row, which a counting sort of the int32 cell numbers by column
(scipy's CSR to CSC conversion) gives. No COO triple is concatenated or
lexsorted and no value is copied to be sorted, so the build holds, beside
its inputs and the matrix, one index per cell.
``hermitian_residual`` measures ||M - M^H||_F entry by entry against each
entry's mirror, whose position the same counting sort of the entry
numbers finds, with no transposed or subtracted matrix formed; its
temporaries are three indices per entry and one block.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from ._blas import sum_squares
from .graph import index_dtype

# entries written or compared per step, which bounds each step's
# temporaries (128 KiB of complex values)
BLOCK = 1 << 13


class CSRMatrix(sparse.csr_array):
    """``csr_array`` whose ``nbytes`` counts its data, indices and indptr."""

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes + self.indices.nbytes + self.indptr.nbytes)


def _transposed_order(n: int, indices: np.ndarray, indptr: np.ndarray):
    """The n x n CSR pattern (indices, indptr) transposed by a counting sort
    (scipy's CSR to CSC) of its entry numbers: a CSC array whose data are
    the entry numbers in (column, row) order. No values are moved."""
    number = np.arange(indices.size, dtype=index_dtype(n, indices.size))
    return sparse.csr_array((number, indices, indptr), shape=(n, n)).tocsc()


def hermitian_from_upper(n: int, rows: np.ndarray, cols: np.ndarray,
                         upper: np.ndarray, diag: np.ndarray | None) -> CSRMatrix:
    """CSR matrix with ``upper`` at (rows, cols), its conjugate mirrored
    at (cols, rows) and an optional real or complex diagonal.

    (rows, cols) must be distinct cells above the diagonal (rows < cols),
    ordered by (rows, cols), as ``graph.symmetric_pairs`` gives them.
    Column indices come out sorted within each row, and every stored
    diagonal is kept, zero or not; the data keeps the dtype of ``upper``
    and ``diag``, and a -0.0 component is stored as 0.0, as an averaged
    (M + M^H) / 2 gives it. Beside its inputs and the matrix it returns,
    it holds one index per cell and BLOCK-sized temporaries.
    """
    on = 0 if diag is None else 1
    dtype = upper.dtype if diag is None else np.result_type(upper, diag)
    nnz = 2 * upper.size + on * n
    index = index_dtype(n, nnz)
    starts = np.searchsorted(rows, np.arange(n + 1))  # upper cells by row
    # each cell's rank among its row's mirrored cells, which are ordered by
    # (cols, rows); taken before the matrix is allocated, so the sort's
    # temporaries are gone by then
    transposed = _transposed_order(n, cols, starts)
    ends = transposed.indptr  # mirrored cells by row
    rank = np.empty(upper.size, dtype=transposed.data.dtype)
    rank[transposed.data] = np.arange(upper.size, dtype=rank.dtype)
    del transposed
    # row r holds its mirrored cells, its diagonal, then its upper cells: the
    # j-th upper cell, of row r, goes to slot j + to_upper[r], and the
    # mirrored cell of rank k in row r to slot k + to_mirrored[r]
    step = on * np.arange(n + 1)
    to_mirrored = starts + step
    to_upper = ends[1:] + step[1:]
    indptr = (to_mirrored + ends).astype(index)
    del ends, step
    data = np.empty(nnz, dtype=dtype)
    indices = np.empty(nnz, dtype=index)
    if diag is not None:
        slots = to_upper - 1 + starts[:-1]
        data[slots] = diag
        indices[slots] = np.arange(n, dtype=index)
    for s in range(0, upper.size, BLOCK):
        end = min(s + BLOCK, upper.size)
        r, c, v = rows[s:end], cols[s:end], upper[s:end]
        slots = to_upper[r]
        slots += np.arange(s, end)
        data[slots] = v
        indices[slots] = c
        slots = to_mirrored[c]
        slots += rank[s:end]
        data[slots] = np.conjugate(v)
        indices[slots] = r
    data += 0.0
    return CSRMatrix((data, indices, indptr), shape=(n, n))


def hermitian_residual(m: CSRMatrix) -> float:
    """||m - m^H||_F of a canonical square CSR matrix.

    When the stored pattern is symmetric, each entry is compared with
    its mirror, BLOCK entries at a time; the mirror positions come from
    transposing the entry numbers (a counting sort), so no transposed
    values are held. Otherwise m - m^H is formed and measured.
    """
    n, nnz = m.shape[0], m.nnz
    mirror = _transposed_order(n, m.indices, m.indptr)
    if not (np.array_equal(mirror.indptr, m.indptr)
            and np.array_equal(mirror.indices, m.indices)):
        return float(np.sqrt(sum_squares((m - m.conj().T).data)))
    mirror = mirror.data  # each entry's mirror; the CSC pattern goes
    total = 0.0
    for s in range(0, nnz, BLOCK):
        diff = m.data[mirror[s:s + BLOCK]]
        np.conjugate(diff, out=diff)
        np.subtract(m.data[s:s + BLOCK], diff, out=diff)
        total += sum_squares(diff)
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
