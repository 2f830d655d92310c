"""K-means and spectral clustering pipelines.

``spectral_cluster`` is ``spectral_embedding`` then ``cluster_embedding``.
The embedding computes the method's vectors as its ``EMBEDDINGS`` entry
says (an operator and the eigenpairs to keep: smallest for Laplacian
kinds, largest by absolute eigenvalue for the Hermitian imbalance
operator; or a ``graph`` feature function), stacks real and imaginary
parts of complex ones and row-normalizes; it holds the one eigensolve.
``cluster_embedding`` runs k-means on it; soft assignments come from a
softmax over negated distances to the final centroids (temperature 1),
and hard labels feed the metrics.
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


def _as_complex(stacked: np.ndarray) -> np.ndarray:
    """z from its [Re | Im] halves, bit for bit (-0.0 included)."""
    z = stacked[:, :stacked.shape[1] // 2].astype(np.complex128)
    z.imag = stacked[:, z.shape[1]:]
    return z


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
    # dense on purpose: the sparse operator would load scipy in link prediction
    "hermitian_spectral": Embedding(True, features=lambda g, k, tau: _as_complex(
        hermitian_spectral_features(g, k).values)),
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
