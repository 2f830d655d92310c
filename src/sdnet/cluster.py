"""K-means and spectral clustering pipelines.

``spectral_cluster`` is ``spectral_embedding`` then ``cluster_embedding``.
The embedding builds the requested operator and takes its informative
eigenvectors (smallest for Laplacian kinds, largest by absolute
eigenvalue for the Hermitian imbalance operator, real and imaginary
parts stacked for complex kinds), row-normalized; it holds the one
eigensolve. ``cluster_embedding`` runs k-means on it; soft assignments
come from a softmax over negated distances to the final centroids
(temperature 1), and hard labels feed the metrics.
"""

from __future__ import annotations

import numpy as np

from . import spectral as sp
from .graph import (SignedDirectedGraph, _fix_phase, _fix_sign,
                    hermitian_spectral_features, signed_degree_features,
                    signed_spectral_features)
from .metrics import SoftAssignment
from .rng import stream

CLUSTER_METHODS = sp.SPECTRAL_KINDS + (
    "signed_spectral", "hermitian_spectral", "signed_degree")


def _kmeans_once(x: np.ndarray, k: int, max_iter: int, rng):
    n = x.shape[0]
    sq = (x * x).sum(axis=1)

    def dist2_to(centers):
        d = sq[:, None] - 2.0 * (x @ centers.T) + (centers * centers).sum(axis=1)[None, :]
        return np.maximum(d, 0.0)

    # k-means++ seeding
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

    labels = np.full(n, -1, dtype=np.int64)
    for _ in range(max_iter):
        d2 = dist2_to(centers)
        new_labels = d2.argmin(axis=1)
        mind2 = d2[np.arange(n), new_labels]
        # empty clusters grab the point farthest from every centroid
        for j in range(k):
            if not np.any(new_labels == j):
                far = int(np.argmax(mind2))
                centers[j] = x[far]
                new_labels[far] = j
                mind2[far] = 0.0
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(k):
            members = x[labels == j]
            if members.size:
                centers[j] = members.mean(axis=0)
    d2 = dist2_to(centers)
    labels = d2.argmin(axis=1).astype(np.int64)
    inertia = float(d2[np.arange(n), labels].sum())
    return labels, centers, inertia


def kmeans(x: np.ndarray, k: int, restarts: int = 10, max_iter: int = 100,
           seed: int = 0) -> np.ndarray:
    """Lowest-inertia labeling over k-means++ restarts (deterministic)."""
    labels, _, _ = kmeans_full(x, k, restarts=restarts, max_iter=max_iter, seed=seed)
    return labels


def kmeans_full(x: np.ndarray, k: int, restarts: int = 10, max_iter: int = 100,
                seed: int = 0):
    """Like :func:`kmeans` but also returns centroids and inertia."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("data must be an n x d matrix")
    if not 1 <= k <= x.shape[0]:
        raise ValueError(f"K must be in [1, {x.shape[0]}], got {k}")
    rng = stream(seed)
    best = None
    for _ in range(max(restarts, 1)):
        labels, centers, inertia = _kmeans_once(x, k, max_iter, rng)
        if best is None or inertia < best[2]:
            best = (labels, centers, inertia)
    return best


def _row_normalize(x: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    out = np.zeros_like(x)
    nz = norms.ravel() > 0
    out[nz] = x[nz] / norms[nz]
    return out


def _embedding(g: SignedDirectedGraph, method: str, k: int, q: float,
               tau: float) -> np.ndarray:
    if method == "normalized_laplacian":
        pairs = sp.eigh(sp.normalized_laplacian(g), k, "smallest")
        return _fix_sign(pairs.vectors.real)
    if method == "signed_laplacian":
        pairs = sp.eigh(sp.signed_laplacian(g, normalized=False), k, "smallest")
        return _fix_sign(pairs.vectors.real)
    if method == "signed_laplacian_sym":
        pairs = sp.eigh(sp.signed_laplacian(g, normalized=True), k, "smallest")
        return _fix_sign(pairs.vectors.real)
    if method == "magnetic_laplacian":
        pairs = sp.eigh(sp.magnetic_laplacian(g, q=q), k, "smallest")
        vecs = _fix_phase(pairs.vectors)
        return np.hstack([vecs.real, vecs.imag])
    if method == "signed_magnetic_laplacian":
        pairs = sp.eigh(sp.signed_magnetic_laplacian(g, q=q), k, "smallest")
        vecs = _fix_phase(pairs.vectors)
        return np.hstack([vecs.real, vecs.imag])
    if method == "hermitian_imbalance":
        pairs = sp.eigh(sp.hermitian_imbalance(g), k, "largest_abs")
        vecs = _fix_phase(pairs.vectors)
        return np.hstack([vecs.real, vecs.imag])
    if method == "signed_spectral":
        return signed_spectral_features(g, k, tau=tau).values
    if method == "hermitian_spectral":
        return hermitian_spectral_features(g, k).values
    if method == "signed_degree":
        return signed_degree_features(g).values
    raise ValueError(f"unknown clustering method {method!r}")


def spectral_embedding(g: SignedDirectedGraph, method: str, k: int,
                       q: float = 0.25, tau: float = 0.25) -> np.ndarray:
    """Row-normalized node embedding that ``spectral_cluster`` clusters.

    Holds the method's one eigensolve, so callers clustering the same
    graph under several k-means seeds compute it once.
    """
    if method not in CLUSTER_METHODS:
        raise ValueError(f"unknown clustering method {method!r}")
    return _row_normalize(_embedding(g, method, k, q, tau))


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
