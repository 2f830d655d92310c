"""Sparse real and Hermitian graph operators plus a Lanczos eigensolver.

The constructors cover the normalized Laplacian, the signed Laplacian
(combinatorial and normalized), the magnetic Laplacian for unsigned
directed graphs, a signed magnetic Laplacian that reduces to the former
two on their home domains, and the Hermitian imbalance operator
i * (A - A^T). Zero-degree rows use the pseudo-inverse convention
D^{-1/2} = 0, keeping every operator well-defined.

Every operator is a sparse Hermitian CSR matrix built in O(m) from the
graph's COO arrays: each cell of the symmetrized support is computed
from its pair (A[u, v], A[v, u]) and mirrored as its conjugate, straight
into CSR rows (``_csr.hermitian_from_upper``), with each builder
temporary dropped after its last use. ``SpectralMatrix`` checks
Hermiticity entry by entry against each entry's mirror, without forming
M - M^H. A build, its check included, holds at most about twice the
bytes the operator keeps.
``eigh`` finds the k requested eigenpairs with ARPACK's implicitly
restarted Lanczos method (scipy's ``eigsh``, or ``eigs`` when complex)
and a Rayleigh-Ritz step; raw ndarray inputs and k >= n - 1 take a dense
LAPACK decomposition. The smallest eigenpairs of L are the largest of
c I - L, which ARPACK sees only as the product x -> c x - L x, so a
solve stores no shifted copy of L. ARPACK stops at relative accuracy
``LANCZOS_TOL`` (1e-12) rather than machine precision, and every
returned pair is then checked by the rule every eigensolve here shares
(``_blas.check_residual``): a residual ||A v - lambda v|| above
1e-10 * max(1, ||A||_inf) raises NumericError. Below
``LANCZOS_THREADED_MIN_N`` (10,000) rows the whole sparse solve runs
with every loaded OpenBLAS limited to one thread (``_blas``): ARPACK's
small panel products lose more to thread handoff than they gain. The
limit is process-wide for the solve's duration and the counts are
restored after. scipy is imported inside the functions that need it,
so ``import sdnet`` loads none.
"""

from __future__ import annotations

import inspect
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from ._blas import NumericError, check_residual, single_blas_thread
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
# ARPACK's relative stopping tolerance; the Ritz pairs are then checked
# column by column (``_blas.check_residual``)
LANCZOS_TOL = 1e-12
# sparse solves below this many rows run on one BLAS thread; measured on
# 2 cores (tools/scale_probe.py N), one thread solves n = 1000 3x faster,
# ties at n = 10,000, and is ~13% slower at n = 30,000 and ~17% slower
# at n = 100,000
LANCZOS_THREADED_MIN_N = 10_000


@dataclass(frozen=True)
class SpectralMatrix:
    """Sparse Hermitian operator.

    ``entries`` is a CSR array (a dense input is stored sparse) whose
    ``nbytes`` counts its data, indices and indptr. Its dtype is decided
    here, once: float64 when every imaginary part is zero (the real
    kinds, and a complex kind whose phases all vanish), complex128
    otherwise. ``toarray()`` gives the dense n x n view. Hermiticity is
    checked in O(nnz) on construction: each stored entry is compared with
    its mirror, a block at a time, without forming M - M^H (``_csr``).
    """

    entries: object
    kind: str

    def __post_init__(self):
        from ._csr import as_csr, frobenius_norm, hermitian_residual
        m = self.entries
        if not hasattr(m, "tocsr"):
            m = np.asarray(m)
        if len(m.shape) != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("operator must be a square matrix")
        if self.kind not in SPECTRAL_KINDS:
            raise ValueError(f"unknown spectral kind {self.kind!r}")
        m = as_csr(m)
        scale = max(1.0, frobenius_norm(m))
        if hermitian_residual(m) > HERMITICITY_RTOL * scale:
            raise NumericError("operator is not Hermitian to tolerance")
        object.__setattr__(self, "entries", m)

    @property
    def num_nodes(self) -> int:
        return int(self.entries.shape[0])

    def toarray(self) -> np.ndarray:
        """Dense n x n copy of the operator, in its stored dtype."""
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


def _laplacian(n: int, lo, hi, h, d, normalized: bool):
    """CSR of I - D^{-1/2} H D^{-1/2} (normalized) or D - H, with H given per cell.

    ``h`` holds H[lo, hi] for every cell of the symmetrized support and
    ``d`` the degrees; H[hi, lo] is its conjugate. ``h`` is overwritten.
    """
    from ._csr import hermitian_from_upper
    if normalized:
        dis = _inv_sqrt_degrees(d)
        h *= dis[lo]  # dis[lo] * h * dis[hi], in place with the same bits
        h *= dis[hi]
        diag = np.ones(n, dtype=h.dtype)
    else:
        diag = d.astype(h.dtype)
    np.negative(h, out=h)
    loop = lo == hi
    if loop.any():
        diag[lo[loop]] += h[loop]
        off = ~loop
        lo, hi, h = lo[off], hi[off], h[off]
    return hermitian_from_upper(n, lo, hi, h, diag)


def _signed_laplacian(n: int, lo, hi, a_sum, normalized: bool):
    """CSR of Dbar - A_s, or its normalized form, from a_sum = A[lo, hi] +
    A[hi, lo] per cell (overwritten), with Dbar the absolute degrees of A_s."""
    a_sum /= 2.0
    dbar = pair_row_sums(n, lo, hi, np.abs(a_sum))
    return _laplacian(n, lo, hi, a_sum, dbar, normalized)


def normalized_laplacian(g: SignedDirectedGraph) -> SpectralMatrix:
    """I - D^{-1/2} A_s D^{-1/2} on the symmetrized absolute adjacency: the
    normalized signed Laplacian of |A|."""
    lo, hi, m, a_hl = symmetric_pairs(g)
    np.abs(m, out=m)
    m += np.abs(a_hl, out=a_hl)
    del a_hl
    entries = _signed_laplacian(g.num_nodes, lo, hi, m, True)
    del lo, hi, m
    return SpectralMatrix(entries, "normalized_laplacian")


def signed_laplacian(g: SignedDirectedGraph, normalized: bool = False) -> SpectralMatrix:
    """Dbar - A_s with absolute-degree diagonal, or its normalized form."""
    lo, hi, a_s, a_hl = symmetric_pairs(g)
    a_s += a_hl
    del a_hl
    entries = _signed_laplacian(g.num_nodes, lo, hi, a_s, normalized)
    del lo, hi, a_s
    kind = "signed_laplacian_sym" if normalized else "signed_laplacian"
    return SpectralMatrix(entries, kind)


def _magnetic_laplacian(g: SignedDirectedGraph, q: float, normalized: bool,
                        kind: str) -> SpectralMatrix:
    """The signed magnetic Laplacian of ``signed_magnetic_laplacian``."""
    q = float(q)
    if not 0.0 <= q <= 0.5:
        raise ValueError(f"phase parameter q must lie in [0, 0.5], got {q}")
    lo, hi, a_lh, a_hl = symmetric_pairs(g)
    m = a_lh + a_hl
    negative = m < 0
    np.abs(a_lh, out=a_lh)
    np.abs(a_hl, out=a_hl)
    np.add(a_lh, a_hl, out=m)
    m /= 2.0
    a_lh -= a_hl  # the phase, in a_lh's place
    a_lh *= 2.0 * np.pi * q
    h = 1j * a_lh
    del a_lh, a_hl
    np.exp(h, out=h)
    d = pair_row_sums(g.num_nodes, lo, hi, m)
    np.negative(m, out=m, where=negative)  # s * m with s = -1 or 1 is exact
    del negative
    h *= m
    del m
    entries = _laplacian(g.num_nodes, lo, hi, h, d, normalized)
    del lo, hi, h
    return SpectralMatrix(entries, kind)


def magnetic_laplacian(g: SignedDirectedGraph, q: float = 0.25,
                       normalized: bool = True) -> SpectralMatrix:
    """Magnetic Laplacian of an unsigned directed graph.

    Connectivity lives in the magnitude A_s = (A + A^T)/2 and direction
    in the phase Theta = 2 pi q (A - A^T); the Hermitian adjacency is
    H = A_s * exp(i Theta), built as the signed magnetic Laplacian it
    equals on such a graph.
    """
    if bool(np.any(g.weight < 0)):
        raise ValueError("magnetic_laplacian needs nonnegative weights; "
                         "use signed_magnetic_laplacian for signed graphs")
    return _magnetic_laplacian(g, q, normalized, "magnetic_laplacian")


def signed_magnetic_laplacian(g: SignedDirectedGraph, q: float = 0.25,
                              normalized: bool = True) -> SpectralMatrix:
    """Magnetic Laplacian generalized to signed directed graphs.

    Magnitude m = (|A| + |A|^T)/2, sign s = sign(A + A^T) with the 0 tie
    mapping to +1, phase theta = 2 pi q (|A| - |A|^T); H = s * m *
    exp(i theta). Equals the signed Laplacian on undirected graphs and
    the magnetic Laplacian on all-positive ones.
    """
    return _magnetic_laplacian(g, q, normalized, "signed_magnetic_laplacian")


def hermitian_imbalance(g: SignedDirectedGraph) -> SpectralMatrix:
    """i (A - A^T): purely imaginary off-diagonals, spectrum symmetric about 0."""
    from ._csr import hermitian_from_upper
    lo, hi, a_lh, a_hl = symmetric_pairs(g)
    off = lo != hi
    if not off.all():
        lo, hi, a_lh, a_hl = lo[off], hi[off], a_lh[off], a_hl[off]
    del off
    a_lh -= a_hl
    del a_hl
    h = 1j * a_lh
    del a_lh
    entries = hermitian_from_upper(g.num_nodes, lo, hi, h, None)
    del lo, hi, h
    return SpectralMatrix(entries, "hermitian_imbalance")


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


def _norm_inf(a) -> float:
    """max_i sum_j |a_ij|, each row summed as scipy's ``abs(a).sum(axis=1)``
    sums it (``np.add.reduceat``; a sequential ``bincount`` differs in the
    last bits), without copying a's pattern."""
    rows = np.flatnonzero(np.diff(a.indptr))
    if not rows.size:
        return 0.0
    return float(np.add.reduceat(np.abs(a.data), a.indptr[rows]).max(initial=0.0))


def _lanczos_eigh(op: SpectralMatrix, k: int, which: str) -> EigenPairs:
    """k eigenpairs of a sparse operator by ARPACK, then Rayleigh-Ritz.

    ``smallest`` takes the largest-algebraic pairs of c I - L with c the
    Gershgorin bound ||L||_inf (max absolute row sum), so every wanted
    eigenvalue is the top of a nonnegative spectrum. The bound is summed
    from |L.data| with the bits scipy's ``abs(L).sum(axis=1)`` gives, and
    the shift is applied inside ARPACK's operator, x -> c x - L x, so no
    shifted copy of L is stored. A float64 operator runs in real
    arithmetic. ARPACK stops at relative accuracy
    LANCZOS_TOL. Its complex driver does not return orthonormal Ritz
    vectors, so the basis is orthonormalized (QR) and the k x k
    projection Q^H L Q diagonalized, giving orthonormal vectors and
    ascending values. A pair whose residual ||L v - lambda v|| exceeds
    1e-10 * max(1, ||L||_inf) raises NumericError (``check_residual``).
    Below LANCZOS_THREADED_MIN_N rows all of it runs on one BLAS thread.
    A complex operator goes to ``eigs`` itself, as ``eigsh`` would pass it
    on without the fixed ``rng`` stream that ARPACK's restarts draw from.
    """
    from scipy.sparse import linalg as spla
    a = op.entries
    n = op.num_nodes
    # scipy's BLAS is loaded by now, so the library lookup finds it
    limit = single_blas_thread if n < LANCZOS_THREADED_MIN_N else nullcontext
    with limit():
        z = stream(LANCZOS_V0_KEY).standard_normal((2, n))
        v0 = z[0] if a.dtype.kind == "f" else z[0] + 1j * z[1]
        norm_inf = _norm_inf(a)
        shift = 0.0
        if which == "smallest":
            shift = norm_inf
            target, mode = spla.LinearOperator(
                a.shape, matvec=lambda x: shift * x - a @ x, dtype=a.dtype), "LA"
        else:
            target, mode = a, ("LA" if which == "largest" else "LM")
        if not np.any(target @ v0):
            # the operator is shift * I (c v0 - L v0 rounds to exactly 0 when
            # L = c I): every vector is an eigenvector, and ARPACK would stop
            # on a zero Krylov vector
            return EigenPairs(np.full(k, shift), np.eye(n, k))
        where = f"{op.kind} (n={n}, k={k}, which={which!r})"
        solve = spla.eigsh
        if a.dtype.kind == "c":
            solve, mode = spla.eigs, mode.replace("LA", "LR")
        # older scipy takes no rng
        rng = ({"rng": stream(LANCZOS_V0_KEY, 1)}
               if "rng" in inspect.signature(solve).parameters else {})
        try:
            _, basis = solve(target, k, which=mode, v0=v0, tol=LANCZOS_TOL, **rng)
        except spla.ArpackError as exc:  # ArpackNoConvergence among them
            raise NumericError(f"Lanczos eigensolver failed on {where}: {exc}") from exc
        basis, _ = np.linalg.qr(basis)
        proj = basis.conj().T @ (a @ basis)
        vals, small = np.linalg.eigh((proj + proj.conj().T) / 2.0)
        vecs = basis @ small
        check_residual(np.linalg.norm(a @ vecs - vecs * vals, axis=0), norm_inf,
                       f"Lanczos eigenpairs of {where}")
        return EigenPairs(vals, vecs)


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
        m = matrix.toarray().astype(np.complex128)  # solved like a raw array
    return _dense_eigh(m, k, which)
