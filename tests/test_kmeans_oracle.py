"""Batched k-means against the one-restart-at-a-time loop it replaced.

``_kmeans_once`` and ``ref_kmeans_full`` below are the previous
implementation, kept verbatim as the oracle: the batched
``kmeans_full`` must draw the same seeds, take the same Lloyd steps and
pick the same restart. ``kmeans_seeds``, which runs several seeds'
restarts as one batch, must give each seed ``kmeans_full``'s result bit
for bit (``assert_seeds_match``).
"""

from pathlib import Path

import numpy as np
import pytest

from sdnet import cluster
from sdnet.cluster import kmeans_full, kmeans_seeds, spectral_embedding
from sdnet.config import load
from sdnet.metrics import ari
from sdnet.pipeline import generate_from_params
from sdnet.rng import stream

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


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


def ref_kmeans_full(x: np.ndarray, k: int, restarts: int = 10, max_iter: int = 100,
                    seed: int = 0):
    """Lowest-inertia labels, centroids and inertia over k-means++ restarts."""
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


def assert_same(x, k, rtol=1e-12, **kw):
    """Identical labels, centres and inertia to ``rtol``; returns the labels."""
    labels, centers, inertia = kmeans_full(x, k, **kw)
    want_labels, want_centers, want_inertia = ref_kmeans_full(x, k, **kw)
    assert labels.dtype == want_labels.dtype and centers.shape == want_centers.shape
    assert np.array_equal(labels, want_labels)
    scale = max(1.0, float(np.abs(want_centers).max()))
    assert np.abs(centers - want_centers).max() <= rtol * scale
    assert abs(inertia - want_inertia) <= rtol * max(abs(want_inertia), 1e-300)
    return labels


def assert_seeds_match(x, k, seeds, **kw):
    """``kmeans_seeds`` gives each seed ``kmeans_full``'s labels, centres
    and inertia bit for bit."""
    got = kmeans_seeds(x, k, seeds, **kw)
    assert len(got) == len(seeds)
    for seed, (labels, centers, inertia) in zip(seeds, got):
        want_labels, want_centers, want_inertia = kmeans_full(x, k, seed=seed, **kw)
        assert labels.dtype == want_labels.dtype and np.array_equal(labels, want_labels)
        assert centers.tobytes() == want_centers.tobytes()
        assert inertia == want_inertia


def _sweep_embeddings(name: str, n: int = 300):
    cfg = load(CONFIGS / name)
    sweep = cfg["sweep"]
    for v in sweep["values"]:
        params = {**cfg["graph"], "n": n, sweep["param"]: v}
        g = generate_from_params(params, seed=7).graph
        yield spectral_embedding(g, sweep["method"], sweep["k"]), sweep["k"]


@pytest.mark.parametrize("name", ["dsbm_eta_sweep.toml", "sdsbm_f1_gamma_sweep.toml"])
def test_matches_oracle_on_cluster_config_embeddings(name):
    for emb, k in _sweep_embeddings(name):
        for seed in range(3):
            assert_same(emb, k, seed=seed)
        assert_seeds_match(emb, k, range(5))


def test_matches_oracle_on_random_inputs(monkeypatch):
    batches = []
    lloyd = cluster._lloyd

    def counted(x, sq, centers, restarts, max_iter):
        batches.append(centers.shape[0] // restarts)
        return lloyd(x, sq, centers, restarts, max_iter)

    monkeypatch.setattr(cluster, "_lloyd", counted)
    for case in range(200):
        rng = stream(9000 + case)
        n = int(rng.integers(4, 120))
        d = int(rng.integers(1, 7))
        k = int(rng.integers(1, min(n, 7) + 1))
        x = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0)
        if case % 2:  # a few well-separated blobs
            x += rng.normal(size=(k, d))[rng.integers(k, size=n)] * 5.0
        kw = {"seed": case, "restarts": int(rng.integers(1, 12)),
              "max_iter": int(rng.integers(1, 40))}
        labels, _, inertia = kmeans_full(x, k, **kw)
        want_labels, _, want_inertia = ref_kmeans_full(x, k, **kw)
        assert ari(want_labels, labels) == 1.0, case
        assert abs(inertia - want_inertia) <= 1e-12 * max(want_inertia, 1e-300), case
        # up to 6 seeds under a budget of two seeds' buffers, of less than
        # one (each seed alone) or of the default (one batch)
        seeds = list(range(case, case + int(rng.integers(1, 7))))
        per_batch = (2, 1, len(seeds))[case % 3]
        budget = (2 * max(kw["restarts"], 1) * k * n, 1, 1 << 21)[case % 3]
        monkeypatch.setattr(cluster, "KMEANS_BATCH_CELLS", budget)
        batches.clear()
        assert_seeds_match(x, k, seeds, restarts=kw["restarts"], max_iter=kw["max_iter"])
        # the batched call's batches, then each seed's kmeans_full alone
        want = [len(seeds[i:i + per_batch]) for i in range(0, len(seeds), per_batch)]
        assert batches == want + [1] * len(seeds), case


def test_edge_cases_match_oracle():
    x = stream(3).normal(size=(25, 3))
    assert np.all(assert_same(x, 1) == 0)
    labels = assert_same(x, 25)
    assert np.unique(labels).size == 25
    for max_iter in (0, 1):
        assert_same(x, 4, max_iter=max_iter)
    assert_same(x, 4, restarts=0)
    assert_same(x, 4, restarts=1, max_iter=0)
    dup = np.repeat(stream(4).normal(size=(4, 2)), 5, axis=0)
    labels = assert_same(dup, 4)
    assert all(np.unique(labels[i:i + 5]).size == 1 for i in range(0, 20, 5))


def test_empty_cluster_reseed_matches_oracle(monkeypatch):
    # two distinct points and k = 3: k-means++ must seed a duplicate centre,
    # whose cluster comes up empty and is reseeded
    calls = []
    original = cluster._reseed_empty

    def counted(*args):
        calls.append(args)
        original(*args)

    monkeypatch.setattr(cluster, "_reseed_empty", counted)
    x = np.vstack([np.zeros((5, 2)), np.ones((5, 2))])
    assert_same(x, 3, restarts=4)
    assert calls
    calls.clear()
    assert_seeds_match(x, 3, [0, 1, 2], restarts=4)
    assert calls
