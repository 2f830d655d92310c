"""K-means and spectral clustering pipelines.

``spectral_cluster`` is ``spectral_embedding`` then ``cluster_embedding``.
The embedding computes the method's vectors as its ``EMBEDDINGS`` entry
says (an operator and the eigenpairs to keep: smallest for Laplacian
kinds, largest by absolute eigenvalue for the Hermitian imbalance
operator; or a ``graph`` feature function, whose [Re | Im] columns
``hermitian_spectral`` packs back into complex vectors), stacks
real and imaginary parts of complex ones and row-normalizes; it holds
the one eigensolve.
``cluster_embedding`` runs k-means on it; soft assignments come from a
softmax over negated distances to the final centroids (temperature 1),
and hard labels feed the metrics.

``kmeans_full`` runs all its restarts as one array program. Only the
k-means++ seeding draws from the seeded stream, so every restart is
seeded first, in order; Lloyd's steps then move all restarts' centres
together, and a restart drops out of the batch once its labels stop
changing. Each step fills one (restarts, k, n) buffer with distances,
takes the nearest centres, then overwrites the buffer with the labels'
one-hot: one matrix product of it with x gives every cluster's sum in
every restart, and its row sums the member counts.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from . import spectral as sp
from .graph import (SignedDirectedGraph, _fix_phase, _fix_sign,
                    hermitian_spectral_features, signed_degree_features,
                    signed_spectral_features)
from .metrics import SoftAssignment
from .rng import stream


class Embedding(NamedTuple):
    """An operator ``build(g, q)`` solved for the k pairs named by
    ``which``, or ``features(g, k, tau)`` giving the finished vectors."""

    complex: bool
    build: Callable | None = None
    which: str = "smallest"
    features: Callable | None = None


# Builders and feature functions are looked up when an entry is called,
# through ``sp`` or this module's globals, so a wrapper bound over one of
# those names sees every call.
EMBEDDINGS = {
    "normalized_laplacian": Embedding(False, lambda g, q: sp.normalized_laplacian(g)),
    "signed_laplacian": Embedding(
        False, lambda g, q: sp.signed_laplacian(g, normalized=False)),
    "signed_laplacian_sym": Embedding(
        False, lambda g, q: sp.signed_laplacian(g, normalized=True)),
    "magnetic_laplacian": Embedding(True, lambda g, q: sp.magnetic_laplacian(g, q=q)),
    "signed_magnetic_laplacian": Embedding(
        True, lambda g, q: sp.signed_magnetic_laplacian(g, q=q)),
    "hermitian_imbalance": Embedding(
        True, lambda g, q: sp.hermitian_imbalance(g), "largest_abs"),
    "signed_spectral": Embedding(False, features=lambda g, k, tau: (
        signed_spectral_features(g, k, tau=tau).values)),
    # dense on purpose: the sparse operator would load scipy in link
    # prediction, while the dense builder solves only its top pairs by
    # numpy's own LAPACK (dsyevr)
    "hermitian_spectral": Embedding(True, features=lambda g, k, tau: (
        _complex_columns(hermitian_spectral_features(g, k).values))),
    "signed_degree": Embedding(False, features=lambda g, k, tau: (
        signed_degree_features(g).values)),
}

CLUSTER_METHODS = tuple(EMBEDDINGS)


def _entry(method: str) -> Embedding:
    try:
        return EMBEDDINGS[method]
    except (KeyError, TypeError):
        raise ValueError(f"unknown clustering method {method!r}") from None


def is_complex(method: str) -> bool:
    """True iff ``method`` embeds nodes as complex vectors (ValueError if unknown)."""
    return _entry(method).complex


def _kmeanspp(x: np.ndarray, sq: np.ndarray, k: int, rng) -> np.ndarray:
    """k x d k-means++ seed centres; the only k-means step that draws from rng."""
    n = x.shape[0]

    def dist2_to(centers):
        d = sq[:, None] - 2.0 * (x @ centers.T) + (centers * centers).sum(axis=1)[None, :]
        return np.maximum(d, 0.0)

    centers = np.empty((k, x.shape[1]))
    centers[0] = x[int(rng.integers(n))]
    closest = dist2_to(centers[:1]).ravel()
    for j in range(1, k):
        total = closest.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            r = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(closest), r))
            idx = min(idx, n - 1)
        centers[j] = x[idx]
        closest = np.minimum(closest, dist2_to(centers[j:j + 1]).ravel())
    return centers


def _dist2(xt: np.ndarray, sq: np.ndarray, centers: np.ndarray,
           out: np.ndarray) -> np.ndarray:
    """Squared distances from each restart's centres (r, k, d) to every
    column of xt (d, n), written into ``out`` (r, k, n) without other
    temporaries."""
    r, k, d = centers.shape
    # scaling by -2 is exact, so (-2 c) . x has the bits of -2 (c . x)
    np.matmul(centers.reshape(r * k, d) * -2.0, xt, out=out.reshape(r * k, -1))
    out += sq
    out += (centers * centers).sum(axis=2)[:, :, None]
    return np.maximum(out, 0.0, out=out)


def _nearest(d2: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Nearest centre per restart and row into ``labels`` (r, n), the lowest
    index on ties as ``argmin`` gives; returns the distances to it, which
    overwrite ``d2[:, 0]``."""
    best = d2[:, 0]
    labels.fill(0)
    closer = np.empty(best.shape, dtype=bool)
    index = np.min_scalar_type(d2.shape[1]).type  # keeps closer * j small
    for j in range(1, d2.shape[1]):
        np.less(d2[:, j], best, out=closer)
        np.maximum(labels, closer * index(j), out=labels)  # labels < j so far
        np.minimum(best, d2[:, j], out=best)
    return best


def _reseed_empty(x: np.ndarray, centers: np.ndarray, labels: np.ndarray,
                  mind2: np.ndarray) -> None:
    """Each empty cluster, in index order, grabs the point farthest from
    every centroid (one restart; all arguments are updated in place)."""
    for j in range(centers.shape[0]):
        if not np.any(labels == j):
            far = int(np.argmax(mind2))
            centers[j] = x[far]
            labels[far] = j
            mind2[far] = 0.0


def kmeans_full(x: np.ndarray, k: int, restarts: int = 10, max_iter: int = 100,
                seed: int = 0):
    """Lowest-inertia labels, centroids and inertia over k-means++
    restarts (deterministic).

    All restarts are seeded first, in order, then run Lloyd's steps
    together on an (r, k, d) centre array; a restart leaves the batch once
    its labels stop changing, and the lowest inertia wins (the first
    restart on ties). The centroid sums come from a BLAS product, so
    centres may differ from a sequential sum in their last bits.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("data must be an n x d matrix")
    n = x.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"K must be in [1, {n}], got {k}")
    if not np.isfinite(x).all():
        raise ValueError("k-means data must be finite (found NaN or inf)")
    sq = (x * x).sum(axis=1)
    rng = stream(seed)
    restarts = max(restarts, 1)
    centers = np.stack([_kmeanspp(x, sq, k, rng) for _ in range(restarts)])
    # the live temporaries: x^T, d2 (r, k, n) and two (r, n) label arrays;
    # labels take the smallest type that also holds k, the "none yet" mark
    xt = np.ascontiguousarray(x.T)
    d2 = np.empty((restarts, k, n))
    label = np.min_scalar_type(k)
    labels = np.empty((restarts, n), dtype=label)
    prev = np.full((restarts, n), k, dtype=label)  # rows follow ``active``
    ids = np.arange(k, dtype=label)[:, None]
    active = np.arange(restarts)
    for _ in range(max_iter):
        a = active.size
        if not a:
            break
        c, new = centers[active], labels[:a]
        mind2 = _nearest(_dist2(xt, sq, c, d2[:a]), new)
        for i in np.flatnonzero(_has_empty(new, ids)):
            _reseed_empty(x, c[i], new[i], mind2[i])
        # d2 is spent: it takes the labels' one-hot, whose product with x
        # sums each cluster's members and whose row sums count them
        onehot = d2[:a]
        np.equal(new[:, None, :], ids, out=onehot)
        sums = np.matmul(onehot.reshape(a * k, n), x).reshape(a, k, -1)
        counts = onehot.sum(axis=2)
        moved = (new != prev[:a]).any(axis=1)
        update = moved[:, None] & (counts > 0)
        c[update] = sums[update] / counts[update][:, None]
        centers[active] = c
        labels, prev = prev, labels  # this step's labels are the next one's prev
        for row, i in enumerate(np.flatnonzero(moved)):
            if row != i:
                prev[row] = prev[i]
        active = active[moved]
    mind2 = _nearest(_dist2(xt, sq, centers, d2), labels)
    inertia = mind2.sum(axis=1)
    best = int(np.argmin(inertia))
    return labels[best].astype(np.int64), centers[best].copy(), float(inertia[best])


def _has_empty(labels: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Per restart (row of ``labels``), whether some cluster in ``ids``
    (a k x 1 column) has no member."""
    empty = np.zeros(labels.shape[0], dtype=bool)
    hit = np.empty(labels.shape, dtype=bool)
    for j in ids[:, 0]:
        np.equal(labels, j, out=hit)
        empty |= ~hit.any(axis=1)
    return empty


def _row_normalize(x: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    out = np.zeros_like(x)
    nz = norms.ravel() > 0
    out[nz] = x[nz] / norms[nz]
    return out


def _embedding(g: SignedDirectedGraph, method: str, k: int, q: float,
               tau: float) -> np.ndarray:
    """The method's node vectors: phase-fixed complex z for a complex
    method, sign-fixed real vectors (or degree features) otherwise."""
    entry = _entry(method)
    if entry.build is None:
        return entry.features(g, k, tau)
    vectors = sp.eigh(entry.build(g, q), k, entry.which).vectors
    return _fix_phase(vectors) if entry.complex else _fix_sign(vectors.real)


def real_columns(x: np.ndarray) -> np.ndarray:
    """x itself if real, else [Re | Im]."""
    return np.hstack([x.real, x.imag]) if np.iscomplexobj(x) else x


def _complex_columns(x: np.ndarray) -> np.ndarray:
    """The complex z whose [Re | Im] is the real x, bit for bit."""
    k = x.shape[1] // 2
    z = np.empty((x.shape[0], k), dtype=np.complex128)
    z.real, z.imag = x[:, :k], x[:, k:]
    return z


def spectral_embedding(g: SignedDirectedGraph, method: str, k: int,
                       q: float = 0.25, tau: float = 0.25) -> np.ndarray:
    """Row-normalized node embedding that ``spectral_cluster`` clusters.

    A complex method's vectors are stacked as [Re | Im]. Holds the
    method's one eigensolve, so callers clustering the same graph under
    several k-means seeds compute it once.
    """
    return _row_normalize(real_columns(_embedding(g, method, k, q, tau)))


def cluster_embedding(emb: np.ndarray, k: int, seed: int = 0):
    """k-means on an embedding plus soft assignments from its centroids.

    Returns (SoftAssignment, hard labels); the soft rows are a softmax
    over negated distances to the final centroids (temperature 1).
    """
    labels, centers, _ = kmeans_full(emb, k, seed=seed)
    diff = emb[:, None, :] - centers[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    logits = -dist
    logits -= logits.max(axis=1, keepdims=True)
    p = np.exp(logits)
    p /= p.sum(axis=1, keepdims=True)
    return SoftAssignment(p), labels


def spectral_cluster(g: SignedDirectedGraph, method: str, k: int, seed: int = 0,
                     q: float = 0.25, tau: float = 0.25):
    """Cluster nodes with the given spectral method.

    ``spectral_embedding`` followed by ``cluster_embedding``. Returns
    (SoftAssignment, hard labels). ``q`` only affects magnetic kinds and
    ``tau`` only the regularized-adjacency features.
    """
    return cluster_embedding(spectral_embedding(g, method, k, q=q, tau=tau), k, seed=seed)
