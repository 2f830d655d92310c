import numpy as np
import pytest

import sdnet.cluster as cluster
import sdnet.graph as graph
from sdnet import _blas
from sdnet.graph import (FeatureMatrix, SignedDirectedGraph, _component_roots,
                         _fix_phase, _fix_sign, _hermitian_vectors, _top_eigh, is_directed,
                         is_signed, largest_weakly_connected_component,
                         signed_degree_counts, signed_degree_features,
                         signed_spectral_features,
                         hermitian_spectral_features, standardize_columns,
                         symmetric_pairs)
from sdnet.generators import f1_meta, f2_meta, sdsbm, ssbm, dsbm, meta_graph, erdos_renyi
from sdnet.cluster import kmeans_full
from sdnet.pipeline import linkpred_run
from sdnet.rng import stream
from sdnet.spectral import NumericError


def G(n, edges, **kw):
    return SignedDirectedGraph.from_edges(n, edges, **kw)


# ---------------------------------------------------------------- invariants

def test_constructor_validation():
    with pytest.raises(ValueError):
        G(2, [(0, 2, 1.0)])
    with pytest.raises(ValueError):
        G(2, [(0, 1, 0.0)])
    with pytest.raises(ValueError):
        G(2, [(0, 1, np.inf)])
    with pytest.raises(ValueError):
        G(2, [(0, 1, 1.0), (0, 1, 2.0)])
    with pytest.raises(ValueError):
        G(-1, [])
    # self-loops are allowed
    assert G(2, [(1, 1, 1.0)]).num_edges == 1


def test_constructor_rejects_every_duplicate_layout():
    # adjacent in sorted input, far apart in unsorted input, and repeated
    # in descending input: the ascending fast path must not pass any
    for edges in ([(0, 1, 1.0), (0, 1, -1.0), (1, 2, 1.0)],
                  [(0, 1, 1.0), (3, 2, 1.0), (1, 2, 1.0), (2, 0, 1.0), (0, 1, 2.0)],
                  [(3, 2, 1.0), (1, 2, 1.0), (1, 2, 1.0), (0, 1, 1.0)]):
        with pytest.raises(ValueError, match="duplicate"):
            G(4, edges)
    # a reversed pair is a different edge
    assert G(2, [(1, 0, 1.0), (0, 1, 1.0)]).num_edges == 2


def test_constructor_keeps_unsorted_edge_order():
    rng = np.random.default_rng(5)
    n = 30
    codes = rng.permutation(n * n)[:200]
    src, dst = np.divmod(codes, n)
    weight = rng.choice([-1.5, 1.0, 2.0], size=codes.size)
    g = SignedDirectedGraph(n, src, dst, weight)
    assert not np.all(np.diff(codes) > 0)
    for got, want in ((g.src, src), (g.dst, dst), (g.weight, weight)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_is_signed():
    assert not is_signed(G(3, [(0, 1, 1.0), (1, 2, 2.0)]))
    assert is_signed(G(3, [(0, 1, 1.0), (1, 2, -1.0)]))
    assert not is_signed(G(3, []))


def test_is_directed():
    assert not is_directed(G(2, [(0, 1, 1.0), (1, 0, 1.0)]))
    assert is_directed(G(2, [(0, 1, 1.0)]))
    assert is_directed(G(2, [(0, 1, 1.0), (1, 0, 2.0)]))
    assert not is_directed(G(2, []))


def test_is_directed_matches_dense_oracle():
    rng = np.random.default_rng(11)
    for trial in range(60):
        n = int(rng.integers(1, 12))
        a = np.zeros((n, n))
        mask = rng.random((n, n)) < 0.3  # self-loops included
        a[mask] = rng.choice([-2.0, -1.0, 0.5, 1.0, 2.0], size=int(mask.sum()))
        if trial % 3 == 0:
            a = np.triu(a) + np.triu(a, 1).T  # symmetric, keeps loops
        if trial % 3 == 1 and n > 1:
            # reciprocal pairs with equal, unequal and cancelling weights
            a[0, 1], a[1, 0] = 1.5, 1.5 if trial % 2 else -1.5
        src, dst = np.nonzero(a)
        g = SignedDirectedGraph(n, src, dst, a[src, dst])
        assert is_directed(g) == bool(np.any(a != a.T)), trial


def test_standardize_columns_uses_reference_statistics():
    x = np.array([[1.0, 5.0, 2.0], [3.0, 5.0, 4.0]])
    ref = np.array([[0.0, 7.0, 2.0], [2.0, 7.0, 2.0]])
    assert np.array_equal(standardize_columns(x, ref=ref),
                          [[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    assert np.array_equal(standardize_columns(x),
                          [[-1.0, 0.0, -1.0], [1.0, 0.0, 1.0]])


# ------------------------------------------------- weakly connected component

def test_wcc_tiebreak_two_triangles():
    tri = lambda off: [(off, off + 1, 1.0), (off + 1, off + 2, 1.0),
                       (off + 2, off, 1.0)]
    g = G(6, tri(0) + tri(3))
    sub, idx = largest_weakly_connected_component(g)
    assert list(idx) == [0, 1, 2]
    assert sub.num_nodes == 3 and sub.num_edges == 3


def test_wcc_connected_identity_and_isolated():
    g = G(3, [(0, 1, 1.0), (2, 1, -1.0)])
    sub, idx = largest_weakly_connected_component(g)
    assert sub.num_nodes == 3 and list(idx) == [0, 1, 2]
    g2 = G(3, [(0, 1, 1.0)])
    sub2, idx2 = largest_weakly_connected_component(g2)
    assert sub2.num_nodes == 2 and list(idx2) == [0, 1]


def test_wcc_idempotent_and_empty():
    g = erdos_renyi(30, 0.05, seed=5).graph
    sub, _ = largest_weakly_connected_component(g)
    sub2, idx2 = largest_weakly_connected_component(sub)
    assert sub2.num_nodes == sub.num_nodes
    assert sorted(sub2.edge_list()) == sorted(sub.edge_list())
    assert list(idx2) == list(range(sub.num_nodes))
    empty, idx = largest_weakly_connected_component(G(0, []))
    assert empty.num_nodes == 0 and idx.size == 0


def test_wcc_returns_a_spanning_graph_itself():
    # graphs are immutable, so a component that holds every node shares g
    g = G(3, [(0, 1, 1.0), (2, 1, -1.0)])
    sub, idx = largest_weakly_connected_component(g)
    assert sub is g and idx.dtype == np.int64 and list(idx) == [0, 1, 2]
    g2 = G(4, [(0, 1, 1.0), (2, 1, -1.0)])  # node 3 is isolated
    sub2, idx2 = largest_weakly_connected_component(g2)
    assert sub2 is not g2 and sub2.num_nodes == 3 and list(idx2) == [0, 1, 2]
    assert sorted(sub2.edge_list()) == sorted(g2.edge_list())


def _bfs_component_labels(g):
    """Reference: breadth-first search from each unvisited node in id order."""
    adj = [[] for _ in range(g.num_nodes)]
    for u, v in zip(g.src.tolist(), g.dst.tolist()):
        adj[u].append(v)
        adj[v].append(u)
    lab = [-1] * g.num_nodes
    for s in range(g.num_nodes):
        if lab[s] >= 0:
            continue
        lab[s], queue = s, [s]
        while queue:
            x = queue.pop()
            for y in adj[x]:
                if lab[y] < 0:
                    lab[y] = s
                    queue.append(y)
    return lab


def _bfs_graphs():
    """Random graphs up to m = 6n edges, and twins: two copies of one
    random graph on shuffled ids, so two largest components tie."""
    rng = np.random.default_rng(0)
    for trial in range(60):
        n = int(rng.integers(1, 80))
        m = int(rng.integers(0, 6 * n))
        pairs = {(int(u), int(v)) for u, v in rng.integers(n, size=(m, 2))}
        # sparse draws leave isolated nodes; u == v adds self-loops
        pairs |= {(u, u) for u in rng.integers(n, size=3).tolist()}
        yield G(n, [(u, v, 1.0) for u, v in sorted(pairs)])
    for trial in range(20):
        half = int(rng.integers(2, 40))
        pairs = rng.integers(half, size=(int(rng.integers(0, 3 * half)), 2))
        ids = rng.permutation(2 * half)
        edges = {(int(ids[u + off]), int(ids[v + off])) for u, v in pairs for off in (0, half)}
        yield G(2 * half, [(u, v, 1.0) for u, v in sorted(edges)])


def _partition(labels):
    """Each node's label renamed to the first node that carries it."""
    first = {}
    return [first.setdefault(x, i) for i, x in enumerate(np.asarray(labels).tolist())]


def test_component_labels_match_bfs():
    for g in _bfs_graphs():
        want = _bfs_component_labels(g)  # labels are the smallest id already
        n, m = g.num_nodes, g.num_edges
        step = max(m // (2 * n), 1)
        # the windows of largest_weakly_connected_component, one window,
        # and a shuffled index array cut in three
        shuffled = np.random.default_rng(m).permutation(m)
        for windows in ((slice(None, None, step), slice(None)), (slice(None),),
                        np.array_split(shuffled, 3)):
            roots = _component_roots(n, g.src, g.dst, windows)
            assert _partition(roots) == want
            assert np.array_equal(roots[roots], roots)  # every label is a root
    assert _component_roots(0, np.zeros(0, int), np.zeros(0, int), (slice(None),)).size == 0


def test_wcc_index_map_matches_bfs_tiebreak():
    for g in _bfs_graphs():
        labels = np.array(_bfs_component_labels(g))
        sizes = np.bincount(labels, minlength=g.num_nodes)
        # BFS labels are the smallest id, so the smallest largest one wins
        want = np.nonzero(labels == np.nonzero(sizes == sizes.max())[0].min())[0]
        sub, idx = largest_weakly_connected_component(g)
        assert idx.tolist() == want.tolist()
        assert sub.num_nodes == want.size


def test_wcc_traced_peak_per_edge():
    # the large_sparse benchmark graph (seed 1), which is connected; the
    # min-label propagation loop once traced 32.8 bytes per edge here
    n = 20000
    g = sdsbm(f2_meta(0.1), n, 20.0 / n, rho=1.5, eta=0.1, seed=1).graph
    peak = _traced_peak(lambda: largest_weakly_connected_component(g))
    assert peak <= 25 * g.num_edges, f"{peak / g.num_edges:.1f} bytes per edge"


# ------------------------------------------------------------ spectral feats

def test_signed_spectral_full_orthonormal_basis():
    g = G(5, [(0, 1, 1.0), (1, 0, 1.0), (2, 3, -1.0), (3, 2, -1.0)])
    feats = signed_spectral_features(g, 5, tau=0.0).values
    a = g.adjacency()
    assert np.allclose(feats.T @ feats, np.eye(5), atol=1e-10)
    # each column is an eigenvector of A_s
    for j in range(5):
        v = feats[:, j]
        av = a @ v
        lam = v @ av
        assert np.linalg.norm(av - lam * v) <= 1e-8 * max(1.0, np.linalg.norm(a))


def test_signed_spectral_recovers_two_blocks():
    inst = ssbm(20, 2, 1.0, 1.0, seed=0)
    feats = signed_spectral_features(inst.graph, 2).values
    pred = kmeans_full(feats, 2, seed=0)[0]
    from sdnet.metrics import ari
    assert ari(inst.labels, pred) == 1.0


def test_signed_spectral_degenerate_warns():
    g = G(4, [])
    with pytest.warns(RuntimeWarning):
        signed_spectral_features(g, 2, tau=0.0)


def test_signed_spectral_eigen_residual_property():
    inst = ssbm(30, 3, 0.5, 0.5, eta=0.1, seed=7)
    a = inst.graph.adjacency()
    feats = signed_spectral_features(inst.graph, 30, tau=0.0).values
    res = a @ feats - feats * np.einsum("ij,ij->j", feats, a @ feats)
    assert np.abs(res).max() <= 1e-8 * np.linalg.norm(a)


def test_signed_spectral_scalar_shift_keeps_the_bytes():
    def old_formula(g, k, tau):  # the n x n all-ones term, as it was written
        n = g.num_nodes
        a = g.adjacency()
        a_s = (a + a.T) / 2.0
        dbar = float(np.abs(a_s).sum(axis=1).mean())
        reg = a_s + tau * (dbar / n) * np.ones((n, n))
        return _fix_sign(_top_eigh(reg, k)[1])

    for g in (ssbm(60, 3, 0.3, 0.1, eta=0.1, seed=2).graph,
              sdsbm(f1_meta(0.1), 120, 0.1, eta=0.1, seed=3).graph):
        for tau in (0.0, 0.25, 0.7):
            want = old_formula(g, 5, tau)
            assert signed_spectral_features(g, 5, tau=tau).values.tobytes() == \
                want.tobytes()


def test_signed_spectral_errors():
    with pytest.raises(ValueError):
        signed_spectral_features(G(3, []), 4)
    with pytest.raises(ValueError):
        signed_spectral_features(G(0, []), 1)


def test_hermitian_features_zero_for_undirected():
    g = G(4, [(0, 1, 1.0), (1, 0, 1.0), (2, 3, -2.0), (3, 2, -2.0)])
    for k in (1, 2, 3, 4):
        feats = hermitian_spectral_features(g, k).values
        assert feats.shape == (4, 2 * k)
        assert np.all(feats == 0.0)
    feats = hermitian_spectral_features(ssbm(60, 2, 0.3, 0.1, seed=1).graph, 3).values
    assert np.all(feats == 0.0)


def test_hermitian_features_single_edge():
    g = G(2, [(0, 1, 1.0)])
    a = g.adjacency()
    h = 1j * (a - a.T)
    vals = np.linalg.eigvalsh(h)
    assert np.allclose(sorted(vals), [-1.0, 1.0])
    feats = hermitian_spectral_features(g, 2).values
    assert feats.shape == (2, 4)
    # columns have unit norm across the Re/Im stack
    stacked = feats[:, :2] + 1j * feats[:, 2:]
    assert np.allclose(np.linalg.norm(stacked, axis=0), 1.0)


def test_hermitian_features_separate_cyclic_clusters():
    from sdnet.metrics import ari
    inst = dsbm(meta_graph("cycle", 3), 150, 3, 0.2, seed=1)
    feats = hermitian_spectral_features(inst.graph, 2).values
    pred = kmeans_full(feats, 3, seed=0)[0]
    assert ari(inst.labels, pred) == 1.0


# ------------------------------------- hermitian features vs the dense oracle

def dense_hermitian_pairs(g, k):
    """The complex n x n eigh the real solve replaced: eigenvalues and
    phase-fixed vectors of i(A - A^T), top k by |value|, negligible ones
    zeroed."""
    a = g.adjacency()
    h = 1j * (a - a.T)
    vals, vecs = np.linalg.eigh(h)
    order = np.argsort(-np.abs(vals), kind="stable")[:k]
    sel = vecs[:, order]
    scale = np.linalg.norm(h)
    keep = np.abs(vals[order]) > 1e-12 * scale
    return vals[order], _fix_phase(sel * keep[np.newaxis, :])


def _hermitian_graphs():
    return {
        "c8b": dsbm(meta_graph("cycle", 3), 500, 3, 0.1, seed=0).graph,
        "signed_directed": sdsbm(f1_meta(0.1), 120, 0.1, eta=0.1, seed=3).graph,
        "unsigned_directed": dsbm(meta_graph("cycle", 3), 120, 3, 0.1, seed=4).graph,
        "single_edge": G(2, [(0, 1, 1.0)]),
    }


def _rayleigh(g, z):
    a = g.adjacency()
    h = 1j * (a - a.T)
    return np.einsum("ij,ij->j", z.conj(), h @ z).real


def test_hermitian_features_match_dense_oracle():
    for name, g in _hermitian_graphs().items():
        a = g.adjacency()
        scale = np.linalg.norm(a - a.T)
        for k in (1, 2, 3, 4, 8):
            if k > g.num_nodes:
                continue
            want_vals, want = dense_hermitian_pairs(g, k)
            z = _hermitian_vectors(g, k)
            feats = hermitian_spectral_features(g, k).values
            assert feats.tobytes() == np.hstack([z.real, z.imag]).tobytes()
            assert np.allclose(np.linalg.norm(z, axis=0), 1.0, atol=1e-12)
            vals = _rayleigh(g, z)
            assert np.all(np.abs(np.sort(np.abs(vals)) - np.sort(np.abs(want_vals)))
                          <= 1e-12 * scale), (name, k)
            # +sigma then its conjugate -sigma, pair by pair
            assert np.all(z[:, 1::2] == z[:, 0:2 * (k // 2):2].conj()), (name, k)
            assert np.all(vals[0::2] > 0) and np.all(vals[1::2] < 0), (name, k)
            assert np.all(np.diff(vals[0::2]) <= 1e-12 * scale), (name, k)
            if k % 2 == 0:
                gap = np.abs(z @ z.conj().T - want @ want.conj().T).max()
                assert gap <= 1e-10, (name, k, gap)


def test_hermitian_features_odd_k_keeps_the_positive_member():
    g = _hermitian_graphs()["c8b"]
    for k in (1, 3, 5):
        z = _hermitian_vectors(g, k)
        last = _rayleigh(g, z[:, -1:])[0]
        top = np.sort(np.abs(dense_hermitian_pairs(g, k)[0]))[-1 - (k - 1) // 2 * 2]
        assert last > 0 and abs(last - top) <= 1e-10 * top, (k, last, top)
        # the first k - 1 columns span what the dense k - 1 columns span
        if k > 1:
            _, want = dense_hermitian_pairs(g, k - 1)
            gap = np.abs(z[:, :-1] @ z[:, :-1].conj().T - want @ want.conj().T).max()
            assert gap <= 1e-10, (k, gap)


def test_hermitian_features_solve_no_complex_problem_above_2p(monkeypatch):
    seen = []
    real_eigh, real_top = np.linalg.eigh, graph._top_eigh

    def spy_eigh(m, *args, **kwargs):
        seen.append(("eigh", np.iscomplexobj(m), m.shape))
        return real_eigh(m, *args, **kwargs)

    def spy_top(m, k):
        seen.append(("top", np.iscomplexobj(m), m.shape, k))
        return real_top(m, k)

    monkeypatch.setattr(np.linalg, "eigh", spy_eigh)
    monkeypatch.setattr(graph, "_top_eigh", spy_top)
    g = _hermitian_graphs()["unsigned_directed"]
    for k in (1, 3, 8):
        seen.clear()
        _hermitian_vectors(g, k)
        p = (k + 1) // 2
        want = [("top", False, (120, 120), 2 * p), ("eigh", True, (2 * p, 2 * p))]
        if _blas.lapacke_dsyevr() is None:  # the fallback solves all 120 pairs
            want.insert(1, ("eigh", False, (120, 120)))
        assert seen == want, (k, seen)


def _perturbed_top(monkeypatch):
    """Make ``_top_eigh`` return a basis 1e-6 off its eigenvectors."""
    real_top = graph._top_eigh

    def perturbed(m, k):
        vals, vecs = real_top(m, k)
        noise = np.random.default_rng(0).standard_normal(vecs.shape)
        return vals, np.linalg.qr(vecs + 1e-6 * noise)[0]

    monkeypatch.setattr(graph, "_top_eigh", perturbed)


def test_hermitian_features_reject_a_perturbed_basis(monkeypatch):
    _perturbed_top(monkeypatch)
    g = _hermitian_graphs()["unsigned_directed"]
    with pytest.raises(NumericError, match=r"Hermitian .*n=120, k=4"):
        hermitian_spectral_features(g, 4)


def test_signed_spectral_features_reject_a_perturbed_basis(monkeypatch):
    g = _hermitian_graphs()["signed_directed"]
    signed_spectral_features(g, 4)
    _perturbed_top(monkeypatch)
    with pytest.raises(NumericError, match=r"signed spectral .*n=120, k=4"):
        signed_spectral_features(g, 4)


@pytest.mark.parametrize("builder, operator",
                         [(signed_spectral_features, "_signed_operator"),
                          (_hermitian_vectors, "_skew_adjacency")],
                         ids=["signed_spectral", "hermitian"])
def test_dense_feature_builder_forms_its_operator_once(monkeypatch, builder, operator):
    # the solve and the residual check share one build of the operator
    calls, real = [], getattr(graph, operator)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(graph, operator, spy)
    builder(_hermitian_graphs()["signed_directed"], 4)
    assert len(calls) == 1


def test_hermitian_features_keep_dp_accuracy(monkeypatch):
    g = _hermitian_graphs()["c8b"]

    def accuracies():
        return [linkpred_run(g, "DP", embed_method="hermitian_spectral",
                             embed_dim=k, seeds=range(5)).aggregate()[(0.0, "accuracy")][0]
                for k in (3, 8)]

    def dense_features(g, k):
        z = dense_hermitian_pairs(g, k)[1]
        return FeatureMatrix(np.hstack([z.real, z.imag]))

    got = accuracies()
    monkeypatch.setattr(cluster, "hermitian_spectral_features", dense_features)
    want = accuracies()
    assert np.allclose(got, want, rtol=0.0, atol=1e-9), (got, want)


# ------------------------------------------- dense feature bytes and footprint

def eigh_top(m, k):
    """The k largest eigenpairs by a full ``np.linalg.eigh``, descending."""
    vals, vecs = np.linalg.eigh(m)
    return vals[::-1][:k], vecs[:, ::-1][:, :k]


def ref_signed_spectral_features(g, k, tau=0.25, top=_top_eigh):
    """``signed_spectral_features`` as it was written with three n x n arrays,
    solved by ``top`` (the builders' top-k solve, or ``eigh_top``)."""
    a = g.adjacency()
    a_s = (a + a.T) / 2.0
    dbar = float(np.abs(a_s).sum(axis=1).mean())
    reg = a_s + tau * (dbar / g.num_nodes)
    return _fix_sign(top(reg, k)[1])


def ref_hermitian_vectors(g, k, top=_top_eigh):
    """``_hermitian_vectors`` as it was written, holding A, S and S^T S."""
    a = g.adjacency()
    n = g.num_nodes
    s = a - a.T
    p = (k + 1) // 2
    q = top(s.T @ s, min(2 * p, n))[1]
    sigma, r = np.linalg.eigh(1j * (q.T @ s @ q))
    sigma, v = sigma[::-1][:p], q @ r[:, ::-1][:, :p]
    keep = sigma > 1e-12 * np.linalg.norm(s)
    v = _fix_phase(v * keep[np.newaxis, :])
    return np.stack([v, v.conj()], axis=2).reshape(n, 2 * p)[:, :k]


def _dense_feature_graphs():
    return {
        "sdsbm_f1": sdsbm(f1_meta(0.1), 300, 0.1, eta=0.1, seed=3).graph,
        "dsbm_cycle": dsbm(meta_graph("cycle", 3), 300, 3, 0.1, seed=0).graph,
        # self-loops, a one-way edge and reciprocal pairs that do and do not cancel
        "loops": G(9, [(0, 0, 2.0), (0, 1, 1.5), (1, 0, -0.5), (2, 3, 1.0),
                       (3, 2, 1.0), (4, 5, -2.0), (5, 5, -1.0), (6, 7, 0.25),
                       (8, 6, 3.0)]),
    }


@pytest.mark.parametrize("k", [1, 3, 8])
def test_dense_features_keep_the_reference_bytes(k):
    for name, g in _dense_feature_graphs().items():
        for tau in (0.0, 0.25):
            got = signed_spectral_features(g, k, tau=tau).values
            assert got.tobytes() == ref_signed_spectral_features(g, k, tau).tobytes(), name
        assert _hermitian_vectors(g, k).tobytes() == ref_hermitian_vectors(g, k).tobytes(), name


@pytest.mark.parametrize("k", [1, 3, 8])
def test_dense_features_fall_back_to_full_eigh(monkeypatch, k):
    # where LAPACKE_dsyevr is not found, the features are those of the
    # top k of a full np.linalg.eigh, byte for byte
    monkeypatch.setattr(_blas, "lapacke_dsyevr", lambda: None)
    assert _blas.top_eigh(np.eye(3), 1) is None
    for name, g in _dense_feature_graphs().items():
        for tau in (0.0, 0.25):
            want = ref_signed_spectral_features(g, k, tau, top=eigh_top)
            assert signed_spectral_features(g, k, tau=tau).values.tobytes() == \
                want.tobytes(), name
        want = ref_hermitian_vectors(g, k, top=eigh_top)
        assert _hermitian_vectors(g, k).tobytes() == want.tobytes(), name


def _feature_operators():
    for name, g in _dense_feature_graphs().items():
        a = g.adjacency()
        a_s = (a + a.T) / 2.0
        s = a - a.T
        yield name, "signed", a_s + 0.25 * np.abs(a_s).sum(axis=1).mean() / g.num_nodes
        yield name, "sts", s.T @ s


def test_top_eigh_matches_full_eigh():
    for name, kind, op in _feature_operators():
        vals, vecs = np.linalg.eigh(op)
        scale = max(1.0, float(np.linalg.norm(op)))
        ks = (1, 3, 8) if kind == "signed" else (2, 4, 8)  # S^T S pairs its values
        for k in ks:
            got_vals, got = _top_eigh(op.copy(), k)
            assert got.shape == (op.shape[0], k)
            assert np.abs(got_vals - vals[::-1][:k]).max() <= 1e-12 * scale, (name, kind, k)
            assert np.abs(got.T @ got - np.eye(k)).max() <= 1e-12, (name, kind, k)
            if k < op.shape[0] and vals[-k] - vals[-k - 1] <= 1e-8 * scale:
                continue  # a tie across the cut: no unique top-k subspace
            want = vecs[:, ::-1][:, :k]
            gap = np.abs(got @ got.T - want @ want.T).max()
            assert gap <= 1e-10, (name, kind, k, gap)


def test_top_eigh_is_deterministic():
    for _, _, op in _feature_operators():
        runs = [_top_eigh(op.copy(), 8) for _ in range(3)]
        for vals, vecs in runs[1:]:
            assert vals.tobytes() == runs[0][0].tobytes()
            assert vecs.tobytes() == runs[0][1].tobytes()


def test_top_eigh_rejects_bad_input_and_failed_solves():
    if _blas.lapacke_dsyevr() is None:
        pytest.skip("LAPACKE_dsyevr not found")
    # LAPACKE rejects a NaN entry with info = -6, which is never ignored
    a = np.eye(6)
    a[2, 3] = a[3, 2] = np.nan
    with pytest.raises(NumericError, match=r"dsyevr \(n=6, k=2\) returned info=-6"):
        _blas.top_eigh(a, 2)
    for bad, k in ((np.eye(6)[:, ::2].copy(), 2), (np.eye(6)[::-1], 2),
                   (np.eye(6, dtype=np.float32), 2), (np.eye(6), 0), (np.eye(6), 7)):
        with pytest.raises(ValueError):
            _blas.top_eigh(bad, k)


def _traced_peak(fn):
    import tracemalloc
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


@pytest.mark.parametrize("model", ["sdsbm_f1", "dsbm_cycle"])
@pytest.mark.parametrize("builder", [signed_spectral_features, _hermitian_vectors],
                         ids=["signed_spectral", "hermitian"])
def test_dense_feature_builder_holds_one_n_by_n_beside_eigh(model, builder):
    # A, A + A^T and the shifted operator (or A, S and S^T S) once traced
    # 4.0 n^2 doubles with a full eigh's eigenvectors; the top-k solve
    # holds one operator, and summing A + A^T holds two
    n = 1000
    g = (sdsbm(f1_meta(0.0), n, 0.1, seed=1) if model == "sdsbm_f1" else
         dsbm(meta_graph("cycle", 3), n, 3, 0.1, seed=0)).graph
    peak = _traced_peak(lambda: builder(g, 8))
    assert peak <= 2.5 * n * n * 8, f"{peak / (8 * n * n):.2f} n^2 doubles"


# ------------------------------------------------------------- degree feats

def test_signed_degree_counts_example():
    g = G(3, [(0, 1, 1.0), (2, 0, -1.0)])
    counts = signed_degree_counts(g)
    assert list(counts[0]) == [1.0, 0.0, 0.0, 1.0]


def _add_at_degree_counts(g):
    """The masked np.add.at form that signed_degree_counts replaced."""
    counts = np.zeros((g.num_nodes, 4), dtype=np.float64)
    pos = g.weight > 0
    np.add.at(counts[:, 0], g.src[pos], g.weight[pos])
    np.add.at(counts[:, 1], g.dst[pos], g.weight[pos])
    np.add.at(counts[:, 2], g.src[~pos], -g.weight[~pos])
    np.add.at(counts[:, 3], g.dst[~pos], -g.weight[~pos])
    return counts


def _random_weighted(n, m, seed):
    rng = np.random.default_rng(seed)
    codes = np.unique(rng.integers(0, n * n, size=m))
    weight = rng.standard_normal(codes.size) * 10.0 ** rng.integers(-8, 8, codes.size)
    return SignedDirectedGraph(n, codes // n, codes % n, np.where(weight == 0, 1.0, weight))


@pytest.mark.parametrize("g", [
    G(6, [(0, 0, 2.5), (0, 1, -0.25), (1, 1, -3.0), (2, 0, 1e-300), (4, 2, -7.0)]),
    G(0, []),
    G(4, []),
    _random_weighted(300, 4000, seed=5),
    sdsbm(f1_meta(0.2), 120, 0.1, eta=0.1, seed=2).graph,
], ids=["self-loops-isolated", "n0", "no-edges", "weighted", "sdsbm"])
def test_signed_degree_counts_match_add_at(g):
    got, want = signed_degree_counts(g), _add_at_degree_counts(g)
    assert got.shape == want.shape == (g.num_nodes, 4) and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_signed_degree_all_positive_zero_columns():
    g = G(3, [(0, 1, 1.0), (1, 2, 1.0)])
    feats = signed_degree_features(g).values
    assert np.all(feats[:, 2] == 0.0) and np.all(feats[:, 3] == 0.0)


def test_signed_degree_census_oracle():
    g = erdos_renyi(10, 0.5, seed=2).graph
    counts = signed_degree_counts(g)
    n_pos = float(np.sum(g.weight > 0))
    n_neg = float(np.sum(g.weight < 0))
    assert list(counts.sum(axis=0)) == [n_pos, n_pos, n_neg, n_neg]


def test_feature_matrix_validation():
    with pytest.raises(ValueError):
        FeatureMatrix(np.array([[np.nan]]))
    with pytest.raises(ValueError):
        FeatureMatrix(np.zeros(2))


# ------------------------------------------------------------ symmetric pairs

def ref_symmetric_pairs(g):
    """The int64 cell builder that the int32 one replaced, kept verbatim."""
    n = max(g.num_nodes, 1)
    codes = np.minimum(g.src, g.dst) * n + np.maximum(g.src, g.dst)
    order = np.argsort(codes)
    ranked = codes[order]
    new = np.empty(ranked.size, dtype=bool)
    new[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=new[1:])
    cells = ranked[new]
    cell = np.empty(ranked.size, dtype=np.int64)
    cell[order] = np.cumsum(new) - 1
    a_lh = np.zeros(cells.size)
    a_hl = np.zeros(cells.size)
    up = g.src <= g.dst
    a_lh[cell[up]] = g.weight[up]
    down = g.src >= g.dst
    a_hl[cell[down]] = g.weight[down]
    return cells // n, cells % n, a_lh, a_hl


def test_symmetric_pairs_int32_ends_hold_the_int64_values():
    graphs = [G(0, []), G(1, [(0, 0, -2.0)]),
              # a self-loop, a cancelling reciprocal pair and a one-way edge
              G(4, [(0, 1, 1.0), (1, 0, -1.0), (2, 2, 0.5), (3, 1, 2.0)])]
    for seed in range(4):
        rng = stream(5200 + seed)
        n = int(rng.integers(2, 60))
        edges = {}
        for _ in range(3 * n):
            u, v = (int(x) for x in rng.integers(n, size=2))
            edges[(u, v)] = float(rng.normal()) or 1.0
        for u in range(0, n - 1, 4):
            edges[(u, u)] = 1.5
            edges[(u, u + 1)], edges[(u + 1, u)] = 0.75, -0.75
        graphs.append(G(n, [(u, v, w) for (u, v), w in edges.items()]))  # unsorted
    for g in graphs:
        got, want = symmetric_pairs(g), ref_symmetric_pairs(g)
        assert got[0].dtype == got[1].dtype == np.int32
        for a, b in zip(got, want):
            assert np.array_equal(a, b) and a.shape == b.shape
        for a, b in zip(got[2:], want[2:]):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
