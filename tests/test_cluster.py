import numpy as np
import pytest

from sdnet.cluster import kmeans_full, spectral_cluster
from sdnet.generators import dsbm, meta_graph, pol_ssbm, sdsbm, f1_meta, ssbm
from sdnet.metrics import ari
from sdnet.rng import stream


def test_kmeans_separated_clouds():
    rng = stream(0)
    a = rng.normal(size=(40, 2)) * 0.1
    b = rng.normal(size=(40, 2)) * 0.1 + 10.0
    x = np.vstack([a, b])
    labels = kmeans_full(x, 2, seed=0)[0]
    truth = np.repeat([0, 1], 40)
    assert ari(truth, labels) == 1.0


def test_kmeans_k_equals_n_zero_inertia():
    rng = stream(1)
    x = rng.normal(size=(6, 3))
    _, _, inertia = kmeans_full(x, 6, seed=0)
    assert inertia == pytest.approx(0.0, abs=1e-20)


def test_kmeans_deterministic():
    rng = stream(2)
    x = rng.normal(size=(50, 4))
    a = kmeans_full(x, 3, seed=5)[0]
    b = kmeans_full(x, 3, seed=5)[0]
    assert np.array_equal(a, b)


def test_kmeans_validation():
    with pytest.raises(ValueError):
        kmeans_full(np.zeros((3, 2)), 4)


def test_kmeans_handles_duplicate_points():
    x = np.zeros((10, 2))
    x[5:] = 1.0
    labels = kmeans_full(x, 2, seed=0)[0]
    assert len(set(labels[:5].tolist())) == 1
    assert len(set(labels[5:].tolist())) == 1
    assert labels[0] != labels[5]


def test_spectral_cluster_ssbm_zero_noise():
    inst = ssbm(150, 3, 0.2, 0.2, seed=0)
    soft, labels = spectral_cluster(inst.graph, "signed_laplacian_sym", 3, seed=0)
    assert ari(inst.labels, labels) == 1.0
    assert soft.P.shape == (150, 3)
    assert np.allclose(soft.P.sum(axis=1), 1.0)
    # soft assignment argmax agrees with hard labels
    assert np.array_equal(soft.P.argmax(axis=1), labels)


@pytest.mark.parametrize("method", ["signed_laplacian_sym", "hermitian_imbalance"])
def test_spectral_cluster_soft_is_the_one_hot_of_its_labels(method):
    inst = (ssbm(150, 3, 0.1, 0.1, eta=0.2, seed=5) if method == "signed_laplacian_sym"
            else dsbm(meta_graph("cycle", 3, eta=0.2), 150, 3, 0.1, seed=5))
    soft, labels = spectral_cluster(inst.graph, method, 3, seed=1)
    onehot = np.zeros((150, 3))
    onehot[np.arange(150), labels] = 1.0
    assert soft.P.dtype == np.float64 and soft.P.tobytes() == onehot.tobytes()


def test_spectral_cluster_dsbm_hermitian_zero_noise():
    inst = dsbm(meta_graph("cycle", 3), 150, 3, 0.15, seed=1)
    _, labels = spectral_cluster(inst.graph, "hermitian_imbalance", 3, seed=0)
    assert ari(inst.labels, labels) == 1.0


def test_spectral_cluster_sdsbm_signed_magnetic():
    inst = sdsbm(f1_meta(0.0), 150, 0.2, seed=0)
    _, labels = spectral_cluster(inst.graph, "signed_magnetic_laplacian", 3,
                                 seed=0, q=0.25)
    assert ari(inst.labels, labels) >= 0.9


def test_spectral_cluster_pol_ssbm_signed_spectral():
    inst = pol_ssbm(200, 2, 0.3, N=80, seed=0)
    _, labels = spectral_cluster(inst.graph, "signed_spectral", 5, seed=0)
    # planted clusters recovered well above chance (ambient stays hard)
    planted = inst.labels < 4
    assert ari(inst.labels[planted], labels[planted]) >= 0.5


def test_spectral_cluster_noise_saturation():
    inst = ssbm(150, 3, 0.2, 0.2, eta=0.5, seed=3)
    _, labels = spectral_cluster(inst.graph, "signed_laplacian_sym", 3, seed=0)
    assert abs(ari(inst.labels, labels)) < 0.15


def test_spectral_cluster_unknown_method():
    inst = ssbm(20, 2, 0.3, 0.3, seed=0)
    with pytest.raises(ValueError):
        spectral_cluster(inst.graph, "bogus", 2)


def test_spectral_cluster_magnetic_requires_unsigned():
    inst = ssbm(20, 2, 0.5, 0.5, seed=0)
    with pytest.raises(ValueError):
        spectral_cluster(inst.graph, "magnetic_laplacian", 2)


def test_spectral_cluster_deterministic():
    inst = dsbm(meta_graph("cycle", 3, eta=0.2), 90, 3, 0.2, seed=2)
    _, a = spectral_cluster(inst.graph, "hermitian_imbalance", 3, seed=4)
    _, b = spectral_cluster(inst.graph, "hermitian_imbalance", 3, seed=4)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kmeans_rejects_non_finite_input(bad):
    x = stream(3).normal(size=(12, 2))
    x[4, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        kmeans_full(x, 3)


def test_kmeans_traced_memory_within_its_distance_buffer():
    # the (restarts, k, n) distance buffer also takes each step's one-hot
    # labels; the d weighted bincounts and (restarts, n) int64 labels it
    # replaced traced 2x the buffer
    import tracemalloc
    n, k, d, restarts = 20_000, 3, 6, 10
    x = stream(5).normal(size=(n, d)) + 4.0 * stream(6).normal(size=(k, d))[
        stream(7).integers(k, size=n)]
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        labels, _, _ = kmeans_full(x, k, restarts=restarts, seed=0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert labels.dtype == np.int64 and np.unique(labels).size == k
    buffer = restarts * k * n * 8
    assert peak <= 1.5 * buffer, f"{peak / buffer:.2f} x the distance buffer"
