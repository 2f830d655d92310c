"""Sparse real and Hermitian graph operators plus a Lanczos eigensolver.

The constructors cover the normalized Laplacian, the signed Laplacian
(combinatorial and normalized), the magnetic Laplacian for unsigned
directed graphs, a signed magnetic Laplacian that reduces to the former
two on their home domains, and the Hermitian imbalance operator
i * (A - A^T). Zero-degree rows use the pseudo-inverse convention
D^{-1/2} = 0, keeping every operator well-defined.

Every operator is a sparse Hermitian CSR matrix built in O(m) from the
graph's COO arrays: each cell of the symmetrized support is computed
from its pair (A[u, v], A[v, u]) and mirrored as its conjugate.
``eigh`` finds the k requested eigenpairs with ARPACK's implicitly
restarted Lanczos method (``scipy.sparse.linalg.eigsh``) and a
Rayleigh-Ritz step; raw ndarray inputs and k >= n - 1 take a dense
LAPACK decomposition. scipy is imported inside the functions that need
it, so ``import sdnet`` loads none.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import SignedDirectedGraph, pair_row_sums, symmetric_pairs
from .rng import stream

SPECTRAL_KINDS = (
    "normalized_laplacian",
    "signed_laplacian",
    "signed_laplacian_sym",
    "magnetic_laplacian",
    "signed_magnetic_laplacian",
    "hermitian_imbalance",
)

HERMITICITY_RTOL = 1e-12

# Philox key of the fixed Lanczos start vector
LANCZOS_V0_KEY = 0x1A2C


class NumericError(RuntimeError):
    """Numerical failure (non-convergence, invalid operator)."""


@dataclass(frozen=True)
class SpectralMatrix:
    """Sparse Hermitian operator; real kinds have zero imaginary part.

    ``entries`` is a complex CSR array (a dense input is stored sparse)
    whose ``nbytes`` counts its data, indices and indptr;
    ``toarray()`` gives the dense n x n view. Hermiticity is checked in
    O(nnz) on construction.
    """

    entries: object
    kind: str
    q: float | None = None

    def __post_init__(self):
        from ._csr import as_csr
        m = self.entries
        if not hasattr(m, "tocsr"):
            m = np.asarray(m)
        if len(m.shape) != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("operator must be a square matrix")
        if self.kind not in SPECTRAL_KINDS:
            raise ValueError(f"unknown spectral kind {self.kind!r}")
        m = as_csr(m)
        scale = max(1.0, float(np.linalg.norm(m.data)))
        if np.linalg.norm((m - m.conj().T).data) > HERMITICITY_RTOL * scale:
            raise NumericError("operator is not Hermitian to tolerance")
        object.__setattr__(self, "entries", m)

    @property
    def num_nodes(self) -> int:
        return int(self.entries.shape[0])

    def toarray(self) -> np.ndarray:
        """Dense complex n x n copy of the operator."""
        return self.entries.toarray()


@dataclass(frozen=True)
class EigenPairs:
    """Eigenvalues in ascending order with matching orthonormal vectors."""

    values: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64).ravel()
        vecs = np.asarray(self.vectors, dtype=np.complex128)
        if vecs.ndim != 2 or vecs.shape[1] != vals.size:
            raise ValueError("vectors must be n x k with k = len(values)")
        if vals.size > 1 and np.any(np.diff(vals) < 0):
            raise ValueError("eigenvalues must be ascending")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "vectors", vecs)


def _inv_sqrt_degrees(d: np.ndarray) -> np.ndarray:
    out = np.zeros_like(d)
    nz = d > 0
    out[nz] = 1.0 / np.sqrt(d[nz])
    return out


def _laplacian(g: SignedDirectedGraph, lo, hi, h, d, normalized: bool,
               kind: str, q: float | None = None) -> SpectralMatrix:
    """I - D^{-1/2} H D^{-1/2} (normalized) or D - H, with H given per cell.

    ``h`` holds H[lo, hi] for every cell of the symmetrized support and
    ``d`` the degrees; H[hi, lo] is its conjugate.
    """
    from ._csr import hermitian_from_upper
    n = g.num_nodes
    if normalized:
        dis = _inv_sqrt_degrees(d)
        h = dis[lo] * h * dis[hi]
        diag = np.ones(n, dtype=np.complex128)
    else:
        diag = d.astype(np.complex128)
    loop = lo == hi
    diag[lo[loop]] -= h[loop]
    off = ~loop
    entries = hermitian_from_upper(n, lo[off], hi[off], -h[off], diag)
    return SpectralMatrix(entries, kind, q=q)


def normalized_laplacian(g: SignedDirectedGraph) -> SpectralMatrix:
    """I - D^{-1/2} A_s D^{-1/2} on the symmetrized absolute adjacency."""
    lo, hi, a_lh, a_hl = symmetric_pairs(g)
    m = (np.abs(a_lh) + np.abs(a_hl)) / 2.0
    d = pair_row_sums(g.num_nodes, lo, hi, m)
    return _laplacian(g, lo, hi, m, d, True, "normalized_laplacian")


def signed_laplacian(g: SignedDirectedGraph, normalized: bool = False) -> SpectralMatrix:
    """Dbar - A_s with absolute-degree diagonal, or its normalized form."""
    lo, hi, a_lh, a_hl = symmetric_pairs(g)
    a_s = (a_lh + a_hl) / 2.0
    dbar = pair_row_sums(g.num_nodes, lo, hi, np.abs(a_s))
    kind = "signed_laplacian_sym" if normalized else "signed_laplacian"
    return _laplacian(g, lo, hi, a_s, dbar, normalized, kind)


def _check_q(q: float) -> float:
    q = float(q)
    if not 0.0 <= q <= 0.5:
        raise ValueError(f"phase parameter q must lie in [0, 0.5], got {q}")
    return q


def magnetic_laplacian(g: SignedDirectedGraph, q: float = 0.25,
                       normalized: bool = True) -> SpectralMatrix:
    """Magnetic Laplacian of an unsigned directed graph.

    Connectivity lives in the magnitude A_s = (A + A^T)/2 and direction
    in the phase Theta = 2 pi q (A - A^T); the Hermitian adjacency is
    H = A_s * exp(i Theta).
    """
    q = _check_q(q)
    if bool(np.any(g.weight < 0)):
        raise ValueError("magnetic_laplacian needs nonnegative weights; "
                         "use signed_magnetic_laplacian for signed graphs")
    lo, hi, a_lh, a_hl = symmetric_pairs(g)
    a_s = (a_lh + a_hl) / 2.0
    h = a_s * np.exp(1j * (2.0 * np.pi * q * (a_lh - a_hl)))
    d = pair_row_sums(g.num_nodes, lo, hi, a_s)
    return _laplacian(g, lo, hi, h, d, normalized, "magnetic_laplacian", q=q)


def signed_magnetic_laplacian(g: SignedDirectedGraph, q: float = 0.25,
                              normalized: bool = True) -> SpectralMatrix:
    """Magnetic Laplacian generalized to signed directed graphs.

    Magnitude m = (|A| + |A|^T)/2, sign s = sign(A + A^T) with the 0 tie
    mapping to +1, phase theta = 2 pi q (|A| - |A|^T); H = s * m *
    exp(i theta). Equals the signed Laplacian on undirected graphs and
    the magnetic Laplacian on all-positive ones.
    """
    q = _check_q(q)
    lo, hi, a_lh, a_hl = symmetric_pairs(g)
    abs_lh, abs_hl = np.abs(a_lh), np.abs(a_hl)
    m = (abs_lh + abs_hl) / 2.0
    s = np.where(a_lh + a_hl < 0, -1.0, 1.0)
    h = s * m * np.exp(1j * (2.0 * np.pi * q * (abs_lh - abs_hl)))
    d = pair_row_sums(g.num_nodes, lo, hi, m)
    return _laplacian(g, lo, hi, h, d, normalized, "signed_magnetic_laplacian", q=q)


def hermitian_imbalance(g: SignedDirectedGraph) -> SpectralMatrix:
    """i (A - A^T): purely imaginary off-diagonals, spectrum symmetric about 0."""
    from ._csr import hermitian_from_upper
    lo, hi, a_lh, a_hl = symmetric_pairs(g)
    off = lo != hi
    h = 1j * (a_lh[off] - a_hl[off])
    return SpectralMatrix(hermitian_from_upper(g.num_nodes, lo[off], hi[off], h, None),
                          "hermitian_imbalance")


def _select(vals: np.ndarray, k: int, which: str) -> np.ndarray:
    n = vals.size
    if which == "smallest":
        return np.arange(k)
    if which == "largest":
        return np.arange(n - k, n)
    return np.sort(np.argsort(-np.abs(vals), kind="stable")[:k])


def _dense_eigh(m: np.ndarray, k: int, which: str) -> EigenPairs:
    try:
        vals, vecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed to converge: {exc}") from exc
    idx = _select(vals, k, which)
    return EigenPairs(vals[idx], vecs[:, idx])


def _lanczos_eigh(op: SpectralMatrix, k: int, which: str) -> EigenPairs:
    """k eigenpairs of a sparse operator by ARPACK, then Rayleigh-Ritz.

    ``smallest`` takes the largest-algebraic pairs of c I - L with c the
    Gershgorin bound (max absolute row sum), so every wanted eigenvalue
    is the top of a nonnegative spectrum. Real kinds run in real
    arithmetic. ARPACK's complex driver does not return orthonormal
    Ritz vectors, so the basis is orthonormalized (QR) and the k x k
    projection Q^H L Q diagonalized, giving orthonormal vectors and
    ascending values.
    """
    from scipy.sparse import identity
    from scipy.sparse.linalg import ArpackError, eigsh
    a = op.entries
    n = op.num_nodes
    if not np.any(a.data.imag):
        a = a.real
    z = stream(LANCZOS_V0_KEY).standard_normal((2, n))
    v0 = z[0] if a.dtype.kind == "f" else z[0] + 1j * z[1]
    shift = 0.0
    if which == "smallest":
        shift = float(abs(a).sum(axis=1).max(initial=0.0))
        target, mode = shift * identity(n, dtype=a.dtype, format="csr") - a, "LA"
    else:
        target, mode = a, ("LA" if which == "largest" else "LM")
    if not np.any(target.data):
        # the operator is shift * I: every vector is an eigenvector, and
        # ARPACK would stop on a zero Krylov vector
        return EigenPairs(np.full(k, shift), np.eye(n, k))
    try:
        _, basis = eigsh(target, k, which=mode, v0=v0)
    except ArpackError as exc:  # ArpackNoConvergence among them
        raise NumericError(f"Lanczos eigensolver failed on {op.kind} "
                           f"(n={n}, k={k}, which={which!r}): {exc}") from exc
    basis, _ = np.linalg.qr(basis)
    proj = basis.conj().T @ (a @ basis)
    vals, small = np.linalg.eigh((proj + proj.conj().T) / 2.0)
    return EigenPairs(vals, basis @ small)


def eigh(matrix, k: int | None = None, which: str = "smallest") -> EigenPairs:
    """Deterministic Hermitian eigenpairs, in ascending eigenvalue order.

    ``which`` selects the k smallest, largest, or largest-|value|
    eigenpairs (k defaults to all n). A SpectralMatrix is solved by
    Lanczos (ARPACK) from a fixed start vector; a raw Hermitian ndarray,
    and any k >= n - 1 (beyond ARPACK's limit), by a dense LAPACK
    decomposition. Non-convergence raises NumericError.
    """
    if which not in ("smallest", "largest", "largest_abs"):
        raise ValueError(f"unknown selection {which!r}")
    sparse = isinstance(matrix, SpectralMatrix)
    if sparse:
        n = matrix.num_nodes
    else:
        m = np.asarray(matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("matrix must be square")
        scale = max(1.0, float(np.linalg.norm(m)))
        if np.linalg.norm(m - m.conj().T) > HERMITICITY_RTOL * scale:
            raise NumericError("matrix is not Hermitian to tolerance")
        n = m.shape[0]
    if k is None:
        k = n
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if sparse:
        if k < n - 1:
            return _lanczos_eigh(matrix, k, which)
        m = matrix.toarray()
    return _dense_eigh(m, k, which)
