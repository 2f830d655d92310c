import numpy as np
import pytest

from sdnet.generators import dsbm, meta_graph, sdsbm, f1_meta, signed_erdos_renyi, ssbm
from sdnet.graph import SignedDirectedGraph
from sdnet.rng import stream
from sdnet.spectral import (EigenPairs, NumericError, SpectralMatrix, eigh,
                            hermitian_imbalance, magnetic_laplacian,
                            normalized_laplacian, signed_laplacian,
                            signed_magnetic_laplacian)


def G(n, edges):
    return SignedDirectedGraph.from_edges(n, edges)


def undirected(n, pairs):
    edges = []
    for u, v, w in pairs:
        edges.append((u, v, w))
        edges.append((v, u, w))
    return G(n, edges)


def random_graph(n, seed, signed=True, directed=True):
    rng = stream(seed)
    edges = []
    for u in range(n):
        for v in range(n):
            if u == v:
                continue
            if rng.random() < 0.15:
                w = rng.random() + 0.5
                if signed and rng.random() < 0.4:
                    w = -w
                edges.append((u, v, w))
    if not directed:
        sym = {}
        for u, v, w in edges:
            sym[(min(u, v), max(u, v))] = w
        edges = []
        for (u, v), w in sym.items():
            edges.extend([(u, v, w), (v, u, w)])
    return G(n, edges)


# ------------------------------------------------------- normalized Laplacian

def test_normalized_laplacian_single_edge():
    lap = normalized_laplacian(undirected(2, [(0, 1, 1.0)]))
    assert np.allclose(sorted(np.linalg.eigvalsh(lap.toarray())), [0.0, 2.0])


def test_normalized_laplacian_isolated_nodes():
    lap = normalized_laplacian(G(3, []))
    assert np.allclose(lap.toarray(), np.eye(3))


def test_normalized_laplacian_k3_spectrum():
    g = undirected(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    vals = np.linalg.eigvalsh(normalized_laplacian(g).toarray())
    assert np.allclose(sorted(vals), [0.0, 1.5, 1.5])


# ------------------------------------------------------------ signed Laplacian

def test_signed_laplacian_single_negative_edge():
    lap = signed_laplacian(undirected(2, [(0, 1, -1.0)]))
    assert np.allclose(lap.toarray().real, [[1.0, 1.0], [1.0, 1.0]])
    assert np.allclose(sorted(np.linalg.eigvalsh(lap.toarray())), [0.0, 2.0])


def test_signed_laplacian_all_positive_equals_ordinary():
    g = random_graph(12, 3, signed=False, directed=False)
    a = g.adjacency()
    lap = signed_laplacian(g).toarray().real
    assert np.allclose(lap, np.diag(a.sum(1)) - a, atol=1e-12)
    lap_n = signed_laplacian(g, normalized=True).toarray()
    assert np.allclose(lap_n, normalized_laplacian(g).toarray(), atol=1e-12)


def test_signed_laplacian_balanced_two_block_nullvector():
    # balanced sign pattern: positive within, negative across
    edges = []
    blocks = [0, 0, 0, 1, 1, 1]
    for u in range(6):
        for v in range(u + 1, 6):
            w = 1.0 if blocks[u] == blocks[v] else -1.0
            edges.append((u, v, w))
    g = undirected(6, edges)
    pairs = eigh(signed_laplacian(g), 1, "smallest")
    assert pairs.values[0] == pytest.approx(0.0, abs=1e-10)
    v = pairs.vectors[:, 0].real
    signs = np.sign(v)
    assert np.allclose(np.abs(v), np.abs(v[0]))
    assert np.all(signs[:3] == signs[0]) and np.all(signs[3:] == -signs[0])


def test_signed_laplacians_psd():
    for seed in range(3):
        g = random_graph(15, seed, signed=True, directed=False)
        for normalized in (False, True):
            vals = np.linalg.eigvalsh(signed_laplacian(g, normalized).toarray())
            assert vals.min() >= -1e-9


# ---------------------------------------------------------- magnetic Laplacian

def test_magnetic_q0_equals_normalized():
    g = random_graph(14, 1, signed=False, directed=True)
    m0 = magnetic_laplacian(g, q=0.0).toarray()
    ln = normalized_laplacian(g).toarray()
    assert np.max(np.abs(m0 - ln)) <= 1e-12


def test_magnetic_single_directed_edge():
    g = G(2, [(0, 1, 1.0)])
    lap = magnetic_laplacian(g, q=0.25, normalized=True)
    assert lap.toarray()[0, 1] == pytest.approx(-1j)
    assert np.allclose(sorted(np.linalg.eigvalsh(lap.toarray())), [0.0, 2.0])


def test_magnetic_three_cycle_characteristic_polynomial():
    g = G(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
    lap = magnetic_laplacian(g, q=1.0 / 3.0, normalized=False).toarray()
    vals = np.sort(np.linalg.eigvalsh(lap))
    coeffs = np.poly(lap)  # characteristic polynomial of the 3x3 matrix
    roots = np.sort(np.roots(coeffs).real)
    assert np.allclose(vals, roots, atol=1e-8)


def test_magnetic_rejects_signed_and_bad_q():
    signed = G(2, [(0, 1, -1.0)])
    with pytest.raises(ValueError):
        magnetic_laplacian(signed, q=0.25)
    g = G(2, [(0, 1, 1.0)])
    with pytest.raises(ValueError):
        magnetic_laplacian(g, q=0.6)
    with pytest.raises(ValueError):
        magnetic_laplacian(g, q=-0.1)


# --------------------------------------------------- signed magnetic Laplacian

def test_signed_magnetic_reduces_to_signed_on_undirected():
    for seed in range(3):
        g = random_graph(13, seed + 10, signed=True, directed=False)
        for normalized in (False, True):
            a = signed_magnetic_laplacian(g, q=0.3, normalized=normalized).toarray()
            b = signed_laplacian(g, normalized=normalized).toarray()
            assert np.max(np.abs(a - b)) <= 1e-12


def test_signed_magnetic_reduces_to_magnetic_on_positive():
    for seed in range(3):
        g = random_graph(13, seed + 20, signed=False, directed=True)
        for normalized in (False, True):
            a = signed_magnetic_laplacian(g, q=0.2, normalized=normalized).toarray()
            b = magnetic_laplacian(g, q=0.2, normalized=normalized).toarray()
            assert np.max(np.abs(a - b)) <= 1e-12


def test_signed_magnetic_opposite_sign_tie():
    g = G(2, [(0, 1, 1.0), (1, 0, -1.0)])
    lap = signed_magnetic_laplacian(g, q=0.25, normalized=False)
    # L = D - H; magnitude 1, sign tie -> +1, phase 0, hence H_01 = 1
    h = np.diag(np.diag(lap.toarray())) - lap.toarray()
    assert h[0, 1] == pytest.approx(1.0)
    assert h[1, 0] == pytest.approx(1.0)


# ---------------------------------------------------------- hermitian imbalance

def test_hermitian_imbalance_symmetric_graph_zero():
    g = random_graph(10, 4, signed=True, directed=False)
    assert np.all(hermitian_imbalance(g).toarray() == 0)


def test_hermitian_imbalance_single_weighted_edge():
    h = hermitian_imbalance(G(2, [(0, 1, 2.0)])).toarray()
    assert np.allclose(h, [[0.0, 2.0j], [-2.0j, 0.0]])
    assert np.allclose(sorted(np.linalg.eigvalsh(h)), [-2.0, 2.0])


def test_hermitian_imbalance_spectrum_symmetric():
    g = random_graph(17, 5, signed=True, directed=True)
    vals = np.sort(np.linalg.eigvalsh(hermitian_imbalance(g).toarray()))
    assert np.allclose(vals, -vals[::-1], atol=1e-9)


# ------------------------------------------------------------------------ eigh

def test_eigh_identity_and_diag():
    pairs = eigh(np.eye(5, dtype=complex), 3)
    assert np.allclose(pairs.values, 1.0)
    pairs = eigh(np.diag([1.0, 2.0, 3.0]).astype(complex), 2, "smallest")
    assert np.allclose(pairs.values, [1.0, 2.0])
    pairs = eigh(np.diag([1.0, 2.0, 3.0]).astype(complex), 2, "largest")
    assert np.allclose(pairs.values, [2.0, 3.0])
    pairs = eigh(np.diag([-5.0, 1.0, 3.0]).astype(complex), 2, "largest_abs")
    assert np.allclose(pairs.values, [-5.0, 3.0])


def test_eigh_residuals_random_hermitian():
    rng = stream(77)
    a = rng.normal(size=(50, 50)) + 1j * rng.normal(size=(50, 50))
    m = (a + a.conj().T) / 2.0
    pairs = eigh(m)
    scale = np.linalg.norm(m)
    for j in range(50):
        v = pairs.vectors[:, j]
        r = m @ v - pairs.values[j] * v
        assert np.linalg.norm(r) <= 1e-8 * scale
    # orthonormality and full reconstruction
    gram = pairs.vectors.conj().T @ pairs.vectors
    assert np.max(np.abs(gram - np.eye(50))) <= 1e-8
    recon = pairs.vectors @ np.diag(pairs.values) @ pairs.vectors.conj().T
    assert np.linalg.norm(recon - m) <= 1e-7 * scale


def test_eigh_rejects_non_hermitian():
    with pytest.raises(NumericError):
        eigh(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_eigh_k_validation():
    with pytest.raises(ValueError):
        eigh(np.eye(3, dtype=complex), 4)


# ------------------------------------------------------ constructed invariants

def fixtures():
    metas = [meta_graph("cycle", 3, eta=0.2), meta_graph("path", 4, eta=0.1)]
    out = []
    for seed in range(5):
        out.append(ssbm(40, 3, 0.2, 0.2, eta=0.1, seed=seed).graph)
        out.append(dsbm(metas[seed % 2], 40, metas[seed % 2].num_clusters,
                        0.2, seed=seed).graph)
        out.append(sdsbm(f1_meta(0.3), 40, 0.2, eta=0.1, seed=seed).graph)
        out.append(signed_erdos_renyi(40, 0.15, seed=seed))
    return out


def test_all_operators_hermitian_and_bounded():
    for g in fixtures():
        ops = [normalized_laplacian(g), signed_laplacian(g),
               signed_laplacian(g, normalized=True),
               signed_magnetic_laplacian(g, q=0.25),
               hermitian_imbalance(g)]
        if not np.any(g.weight < 0):
            ops.append(magnetic_laplacian(g, q=0.25))
        for op in ops:
            m = op.toarray()
            assert np.linalg.norm(m - m.conj().T) <= 1e-12 * max(1.0, np.linalg.norm(m))
            vals = np.linalg.eigvalsh(m)
            if op.kind in ("normalized_laplacian", "signed_laplacian_sym"):
                assert vals.min() >= -1e-9 and vals.max() <= 2 + 1e-9
            if op.kind == "magnetic_laplacian":
                assert vals.min() >= -1e-9 and vals.max() <= 2 + 1e-9


def test_spectral_matrix_rejects_non_hermitian():
    with pytest.raises(NumericError):
        SpectralMatrix(np.array([[0, 1], [0, 0]], dtype=complex),
                       "hermitian_imbalance")


def test_eigenpairs_requires_ascending():
    with pytest.raises(ValueError):
        EigenPairs(np.array([2.0, 1.0]), np.eye(2, dtype=complex))


# ------------------------------------------------- dense reference operators
# The dense n x n formulas the operators were first written with; the
# sparse constructors must reproduce them cell for cell.

def _ref_hermitize(m):
    return (m + m.conj().T) / 2.0


def _ref_inv_sqrt(d):
    out = np.zeros_like(d)
    out[d > 0] = 1.0 / np.sqrt(d[d > 0])
    return out


def _ref_normalize(h, d):
    dis = _ref_inv_sqrt(d)
    return np.eye(h.shape[0]) - dis[:, None] * h * dis[None, :]


def ref_normalized_laplacian(g):
    a = np.abs(g.adjacency())
    a_s = (a + a.T) / 2.0
    return _ref_hermitize(_ref_normalize(a_s, a_s.sum(axis=1)).astype(complex))


def ref_signed_laplacian(g, normalized=False):
    a = g.adjacency()
    a_s = (a + a.T) / 2.0
    dbar = np.abs(a_s).sum(axis=1)
    lap = _ref_normalize(a_s, dbar) if normalized else np.diag(dbar) - a_s
    return _ref_hermitize(lap.astype(complex))


def ref_magnetic_laplacian(g, q, normalized=True):
    a = g.adjacency()
    a_s = (a + a.T) / 2.0
    h = a_s * np.exp(1j * 2.0 * np.pi * q * (a - a.T))
    d = a_s.sum(axis=1)
    return _ref_hermitize(_ref_normalize(h, d) if normalized else np.diag(d) - h)


def ref_signed_magnetic_laplacian(g, q, normalized=True):
    a = g.adjacency()
    aa = np.abs(a)
    m = (aa + aa.T) / 2.0
    s = np.where(a + a.T < 0, -1.0, 1.0)
    h = s * m * np.exp(1j * 2.0 * np.pi * q * (aa - aa.T))
    d = m.sum(axis=1)
    return _ref_hermitize(_ref_normalize(h, d) if normalized else np.diag(d) - h)


def ref_hermitian_imbalance(g):
    a = g.adjacency()
    return _ref_hermitize(1j * (a - a.T))


def oracle_fixtures():
    """Graphs with self-loops, cancelling reciprocal pairs, isolated nodes
    and non-unit weights, plus one unsigned directed graph."""
    rng = stream(31)
    out = []
    for seed in range(3):
        base = random_graph(30, 100 + seed, signed=True, directed=True)
        edges = {(int(u), int(v)): float(w) * (0.5 + 2.0 * rng.random())
                 for u, v, w in zip(base.src, base.dst, base.weight)}
        for u in (0, 3, 7):                      # self-loops, both signs
            edges[(u, u)] = -1.5 if u == 3 else 2.25
        for u, v in ((1, 2), (4, 9), (5, 6)):    # opposite-sign pairs that cancel
            edges[(u, v)] = 1.75
            edges[(v, u)] = -1.75
        edges = {e: w for e, w in edges.items() if 30 not in e}
        out.append(G(34, [(u, v, w) for (u, v), w in sorted(edges.items())]))
    pos = random_graph(25, 7, signed=False, directed=True)
    out.append(G(28, [(int(u), int(v), 0.3 + float(w)) for u, v, w
                      in zip(pos.src, pos.dst, pos.weight)] + [(2, 2, 1.5)]))
    return out


def _oracle_pairs(g):
    pairs = [(normalized_laplacian(g), ref_normalized_laplacian(g))]
    for normalized in (False, True):
        pairs.append((signed_laplacian(g, normalized), ref_signed_laplacian(g, normalized)))
        pairs.append((signed_magnetic_laplacian(g, q=0.2, normalized=normalized),
                      ref_signed_magnetic_laplacian(g, 0.2, normalized)))
        if not np.any(g.weight < 0):
            pairs.append((magnetic_laplacian(g, q=0.3, normalized=normalized),
                          ref_magnetic_laplacian(g, 0.3, normalized)))
    pairs.append((hermitian_imbalance(g), ref_hermitian_imbalance(g)))
    return pairs


def test_operators_match_dense_reference_formulas():
    from sdnet.spectral import SPECTRAL_KINDS
    kinds = set()
    for g in oracle_fixtures():
        assert np.any(g.src == g.dst)
        for op, ref in _oracle_pairs(g):
            kinds.add(op.kind)
            assert np.max(np.abs(op.toarray() - ref)) <= 1e-12
    assert kinds == set(SPECTRAL_KINDS)


def test_cancelling_pair_keeps_its_cell():
    # A + A^T is 0 on the pair, yet the magnitude and the +1 sign tie remain
    g = G(3, [(0, 1, 2.0), (1, 0, -2.0), (1, 2, 1.0)])
    h = -signed_magnetic_laplacian(g, q=0.25, normalized=False).toarray()
    assert h[0, 1] == pytest.approx(2.0)
    assert h[1, 0] == pytest.approx(2.0)


def test_self_loop_counts_once():
    g = G(2, [(0, 0, 3.0), (0, 1, 1.0), (1, 0, 1.0)])
    lap = signed_laplacian(g).toarray()
    assert np.allclose(lap, [[1.0, -1.0], [-1.0, 1.0]])


def test_operator_entries_are_sparse_with_nbytes():
    g = ssbm(200, 2, 0.05, 0.05, seed=0).graph
    op = signed_magnetic_laplacian(g)
    csr = op.entries
    assert csr.nnz <= 2 * g.num_edges + g.num_nodes
    assert csr.nbytes == csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes
    assert csr.nbytes < op.toarray().nbytes // 10


def test_spectral_matrix_rejects_sparse_non_hermitian():
    op = signed_laplacian(undirected(3, [(0, 1, 1.0), (1, 2, -1.0)]))
    skew = op.entries.copy()
    skew.data = skew.data * (1.0 + 1e-6 * np.arange(skew.nnz))
    with pytest.raises(NumericError):
        SpectralMatrix(skew, "signed_laplacian")


def test_spectral_matrix_accepts_dense_hermitian():
    m = np.array([[1.0, 2j], [-2j, 0.0]])
    op = SpectralMatrix(m, "hermitian_imbalance")
    assert np.array_equal(op.toarray(), m)
    assert op.entries.nnz == 3


def _old_matrix_csv_rows(dense):
    lines = ["row,col,re,im"]
    for i in range(dense.shape[0]):
        for j in range(dense.shape[1]):
            z = dense[i, j]
            if z != 0:
                lines.append(f"{i},{j},{repr(float(z.real))},{repr(float(z.imag))}")
    return lines


def test_matrix_csv_equals_dense_walk(tmp_path):
    from sdnet.io import write_matrix_csv
    for g in oracle_fixtures()[:2]:
        for op, _ in _oracle_pairs(g):
            path = tmp_path / "m.csv"
            write_matrix_csv(path, op, {"kind": op.kind})
            want = [f'# kind = "{op.kind}"'] + _old_matrix_csv_rows(op.toarray())
            assert path.read_bytes() == ("\n".join(want) + "\n").encode()


# --------------------------------------------------------- Lanczos vs dense

def _workload_graphs():
    """The two clustering workload families (cyclic DSBM, signed f1 SDSBM)."""
    from sdnet.pipeline import generate_from_params
    dsbm_g = generate_from_params({"model": "dsbm", "meta": "cycle", "n": 500, "k": 3,
                                   "p": 0.04, "rho": 1.5, "eta": 0.1}, seed=5).graph
    sdsbm_g = generate_from_params({"model": "sdsbm", "meta": "f1", "n": 400, "p": 0.1,
                                    "rho": 1.5, "eta": 0.1, "gamma": 0.1}, seed=6).graph
    return dsbm_g, sdsbm_g


def _dense_pairs(op):
    vals, vecs = np.linalg.eigh(op.toarray())
    return vals, vecs


def _projector(v):
    return v @ v.conj().T


@pytest.mark.parametrize("which", ["smallest", "largest", "largest_abs"])
def test_lanczos_matches_dense_eigh(which):
    dsbm_g, sdsbm_g = _workload_graphs()
    ops = [hermitian_imbalance(dsbm_g), magnetic_laplacian(dsbm_g, q=0.25),
           normalized_laplacian(dsbm_g), signed_magnetic_laplacian(sdsbm_g, q=0.25),
           signed_laplacian(sdsbm_g, normalized=True), hermitian_imbalance(sdsbm_g)]
    for op in ops:
        vals, vecs = _dense_pairs(op)
        for k in (3, 4):
            got = eigh(op, k, which)
            order = np.argsort(-np.abs(vals), kind="stable") if which == "largest_abs" \
                else (np.arange(k) if which == "smallest" else np.arange(op.num_nodes - k,
                                                                         op.num_nodes))
            idx = np.sort(order[:k])
            if which == "largest_abs":
                # a +-lambda pair may straddle the k-th place; |lambda| is unique
                assert np.allclose(np.sort(np.abs(got.values)),
                                   np.sort(np.abs(vals[idx])), rtol=0, atol=1e-9)
                rest = np.abs(vals[order[k:]])
                tied = rest.size and abs(np.abs(vals[order[k - 1]]) - rest.max()) < 1e-8
                if tied:
                    continue
            else:
                assert np.allclose(got.values, vals[idx], rtol=0, atol=1e-9)
            # the projector is defined only when a gap separates the k pairs
            outside = np.setdiff1d(np.arange(op.num_nodes), idx)
            gap = np.min(np.abs(vals[idx][:, None] - vals[outside][None, :]))
            assert gap > 1e-6, (op.kind, which, k)
            assert np.max(np.abs(_projector(got.vectors) - _projector(vecs[:, idx]))) <= 1e-9
            gram = got.vectors.conj().T @ got.vectors
            assert np.max(np.abs(gram - np.eye(k))) <= 1e-12
            res = op.entries @ got.vectors - got.vectors * got.values[None, :]
            assert np.linalg.norm(res, axis=0).max() <= 1e-9


def test_lanczos_is_deterministic():
    _, g = _workload_graphs()
    op = signed_magnetic_laplacian(g)
    a, b = eigh(op, 3), eigh(signed_magnetic_laplacian(g), 3)
    assert np.array_equal(a.values, b.values) and np.array_equal(a.vectors, b.vectors)


def test_lanczos_non_convergence_raises_numeric_error(monkeypatch):
    import scipy.sparse.linalg as spla

    def stalled(*args, **kwargs):
        raise spla.ArpackNoConvergence("ARPACK error -1: No convergence", [], [])

    monkeypatch.setattr(spla, "eigsh", stalled)
    op = signed_magnetic_laplacian(random_graph(20, 1))
    with pytest.raises(NumericError, match=r"signed_magnetic_laplacian.*n=20, k=3"):
        eigh(op, 3)


@pytest.mark.parametrize("which", ["smallest", "largest", "largest_abs"])
def test_k_at_arpack_limit_takes_dense_path(monkeypatch, which):
    import scipy.sparse.linalg as spla

    def unused(*args, **kwargs):
        raise AssertionError("ARPACK called for k >= n - 1")

    monkeypatch.setattr(spla, "eigsh", unused)
    op = signed_magnetic_laplacian(random_graph(12, 2))
    vals, vecs = np.linalg.eigh(op.toarray())
    for k in (11, 12):
        got = eigh(op, k, which)
        order = {"smallest": np.arange(k), "largest": np.arange(12 - k, 12),
                 "largest_abs": np.sort(np.argsort(-np.abs(vals), kind="stable")[:k])}[which]
        assert np.array_equal(got.values, vals[order])
        assert np.array_equal(got.vectors, vecs[:, order])


def test_lanczos_on_multiples_of_identity():
    # i(A - A^T) of an undirected graph is 0; the Laplacian of an empty graph is I
    zero = hermitian_imbalance(random_graph(20, 3, signed=True, directed=False))
    ident = normalized_laplacian(G(20, []))
    for op, value in ((zero, 0.0), (ident, 1.0)):
        for which in ("smallest", "largest", "largest_abs"):
            got = eigh(op, 3, which)
            assert np.allclose(got.values, value, rtol=0, atol=1e-12)
            assert np.allclose(got.vectors.conj().T @ got.vectors, np.eye(3))
            assert np.allclose(op.entries @ got.vectors, value * got.vectors)
