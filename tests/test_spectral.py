import numpy as np
import pytest

from sdnet.generators import dsbm, meta_graph, sdsbm, f1_meta, erdos_renyi, ssbm
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
    # the normalized Laplacian of a signed graph is the normalized signed
    # Laplacian of |A|, bit for bit
    for seed in range(3):
        s = random_graph(14, seed + 30, signed=True, directed=True)
        mag = SignedDirectedGraph(s.num_nodes, s.src, s.dst, np.abs(s.weight))
        assert _same_bytes(normalized_laplacian(s).entries,
                           signed_laplacian(mag, normalized=True).entries)


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
    for seed in range(3):
        g = random_graph(14, seed + 1, signed=False, directed=True)
        assert _same_bytes(magnetic_laplacian(g, q=0.0).entries,
                           normalized_laplacian(g).entries)


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
            a = signed_magnetic_laplacian(g, q=0.2, normalized=normalized)
            b = magnetic_laplacian(g, q=0.2, normalized=normalized)
            assert _same_bytes(a.entries, b.entries)


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
        out.append(erdos_renyi(40, 0.15, seed=seed).graph)
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


def test_operator_dtype_per_kind():
    signed = random_graph(30, 7)
    unsigned = random_graph(30, 8, signed=False)
    sym = random_graph(30, 9, directed=False)
    real = [normalized_laplacian(signed), signed_laplacian(signed),
            signed_laplacian(signed, normalized=True),
            # complex kinds whose phases all vanish
            magnetic_laplacian(unsigned, q=0.0),
            magnetic_laplacian(random_graph(30, 10, signed=False, directed=False)),
            signed_magnetic_laplacian(sym), hermitian_imbalance(sym)]
    cplx = [magnetic_laplacian(unsigned), signed_magnetic_laplacian(signed),
            hermitian_imbalance(signed)]
    for op in real:
        assert op.entries.dtype == np.float64, op.kind
    for op in cplx:
        assert op.entries.dtype == np.complex128, op.kind
    for op in real + cplx:
        assert op.toarray().dtype == op.entries.dtype


def test_real_operator_stored_once_as_float64():
    g = sdsbm(f1_meta(0.0), 300, 0.05, seed=1).graph
    op = signed_laplacian(g, normalized=True)
    csr = op.entries
    assert csr.nbytes == csr.data.size * 8 + csr.indices.nbytes + csr.indptr.nbytes
    # a complex input with zero imaginary parts is stored as float64 too,
    # and solves to the same eigenpairs
    as_complex = SpectralMatrix(csr.astype(np.complex128), op.kind)
    assert as_complex.entries.dtype == np.float64
    for which in ("smallest", "largest"):
        a, b = eigh(op, 3, which), eigh(as_complex, 3, which)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.vectors, b.vectors)


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


@pytest.mark.parametrize("which", ["largest", "largest_abs"])
def test_lanczos_restart_vectors_are_deterministic(which):
    # the reciprocal pairs cancel, so i(A - A^T) has rank 2: a k = 3 Krylov
    # space runs out and ARPACK restarts from a vector of its own drawing
    g = G(35, [(0, 1, 1.0), (2, 3, 1.0), (3, 2, 1.0), (4, 5, 1.0), (5, 4, 1.0)])
    runs = [eigh(hermitian_imbalance(g), 3, which) for _ in range(5)]
    assert len({r.values.tobytes() + r.vectors.tobytes() for r in runs}) == 1


def test_lanczos_without_rng_parameter(monkeypatch):
    # an older scipy's eigs and eigsh take no rng: none is passed, and a
    # solve that never restarts from a drawn vector gives the same bytes
    import inspect
    import scipy.sparse.linalg as spla
    calls = []

    def without_rng(fn):
        sig = inspect.signature(fn)

        def solve(*args, **kwargs):
            assert "rng" not in kwargs
            calls.append((fn.__name__, args[0].dtype.kind))
            return fn(*args, **kwargs)
        solve.__signature__ = sig.replace(
            parameters=[p for p in sig.parameters.values() if p.name != "rng"])
        return solve

    dsbm_g, sdsbm_g = _workload_graphs()
    ssbm_g = ssbm(300, 3, 0.1, 0.05, eta=0.1, seed=4).graph
    # i(A - A^T) goes to the real solver as its float64 S; an odd k keeps
    # +sigma of the pair it splits, an even one takes whole pairs
    cases = [(signed_magnetic_laplacian(sdsbm_g), "smallest", 3),
             (hermitian_imbalance(dsbm_g), "largest_abs", 3),
             (hermitian_imbalance(sdsbm_g), "largest_abs", 4),
             (signed_laplacian(ssbm_g, normalized=True), "smallest", 3)]
    want = [eigh(op, k, which) for op, which, k in cases]
    monkeypatch.setattr(spla, "eigs", without_rng(spla.eigs))
    monkeypatch.setattr(spla, "eigsh", without_rng(spla.eigsh))
    for (op, which, k), w in zip(cases, want):
        got = eigh(op, k, which)
        assert got.values.tobytes() == w.values.tobytes(), op.kind
        assert got.vectors.tobytes() == w.vectors.tobytes(), op.kind
    assert calls == [("eigs", "c"), ("eigs", "f"), ("eigs", "f"), ("eigsh", "f")]


def _solver_dtypes(monkeypatch):
    """The dtype kind of each operator handed to ARPACK's ``eigs``."""
    import scipy.sparse.linalg as spla
    seen, eigs = [], spla.eigs

    def recorded(a, *args, **kwargs):
        seen.append(a.dtype.kind)
        return eigs(a, *args, **kwargs)

    monkeypatch.setattr(spla, "eigs", recorded)
    return seen


def _imbalance_oracle(op, k):
    """The k largest-|value| eigenvalues of i S by the dense oracle, ascending:
    each +-sigma pair whole, and +sigma alone of the pair an odd k splits."""
    vals = np.linalg.eigvalsh(op.toarray())
    sigma = vals[::-1][:(k + 1) // 2]
    want = np.concatenate([sigma, -sigma[:k // 2]])
    return np.sort(want)


@pytest.mark.parametrize("family", [0, 1])
def test_largest_abs_through_real_skew_part_matches_dense_oracle(monkeypatch, family):
    g = _workload_graphs()[family]  # dsbm cycle, then signed sdsbm f1
    op = hermitian_imbalance(g)
    seen = _solver_dtypes(monkeypatch)
    for k in range(1, 7):
        got = eigh(op, k, "largest_abs")
        want = _imbalance_oracle(op, k)
        assert np.allclose(got.values, want, rtol=0, atol=1e-9), k
        # an odd k keeps the +sigma member of its last pair
        assert (got.values > 0).sum() == (k + 1) // 2, k
        gram = got.vectors.conj().T @ got.vectors
        assert np.max(np.abs(gram - np.eye(k))) <= 1e-12
        res = op.entries @ got.vectors - got.vectors * got.values[None, :]
        assert np.linalg.norm(res, axis=0).max() <= 1e-9
    assert seen == ["f"] * 6


def test_largest_abs_beyond_the_real_solver_limit_takes_the_dense_route(monkeypatch):
    # the real solver needs 2 ceil(k/2) < n - 1: at n = 5, k = 3 asks for 4.
    # Beyond it the dense decomposition keeps +sigma of the pair an odd k
    # splits, as the real route does, by position
    edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 2.0), (3, 4, 1.0), (4, 0, 1.0), (1, 3, 1.0)]
    graphs = {4: G(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 2.0), (3, 0, 1.0), (1, 3, 1.0)]),
              5: G(5, edges),
              6: G(6, edges + [(4, 5, 1.0), (5, 1, 1.0)])}
    seen = _solver_dtypes(monkeypatch)
    for n, g in graphs.items():
        op = hermitian_imbalance(g)
        for k in (1, 3):
            seen.clear()
            got = eigh(op, k, "largest_abs")
            dense = (n, k) in ((4, 3), (5, 3))
            assert seen == ([] if dense else ["f"]), (n, k, seen)
            assert np.allclose(got.values, _imbalance_oracle(op, k), rtol=0, atol=1e-9), (n, k)
            assert (got.values > 0).sum() == (k + 1) // 2, (n, k, got.values)
            res = op.entries @ got.vectors - got.vectors * got.values[None, :]
            assert np.linalg.norm(res, axis=0).max() <= 1e-9, (n, k)


def test_lanczos_non_convergence_raises_numeric_error(monkeypatch):
    import scipy.sparse.linalg as spla

    seen = []

    def stalled(a, *args, **kwargs):
        seen.append(a.dtype.kind)
        raise spla.ArpackNoConvergence("ARPACK error -1: No convergence", [], [])

    # a complex operator goes to eigs, and so does i(A - A^T) as its real S
    monkeypatch.setattr(spla, "eigs", stalled)
    op = signed_magnetic_laplacian(random_graph(20, 1))
    with pytest.raises(NumericError, match=r"signed_magnetic_laplacian.*n=20, k=3"):
        eigh(op, 3)
    op = hermitian_imbalance(random_graph(20, 1))
    with pytest.raises(NumericError, match=r"hermitian_imbalance.*n=20, k=3.*largest_abs"):
        eigh(op, 3, "largest_abs")
    assert seen == ["c", "f"]


@pytest.mark.parametrize("which", ["smallest", "largest", "largest_abs"])
def test_k_at_arpack_limit_takes_dense_path(monkeypatch, which):
    import scipy.sparse.linalg as spla

    def unused(*args, **kwargs):
        raise AssertionError("ARPACK called for k >= n - 1")

    monkeypatch.setattr(spla, "eigsh", unused)
    monkeypatch.setattr(spla, "eigs", unused)
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


def test_lanczos_residual_guard_raises_numeric_error(monkeypatch):
    import scipy.sparse.linalg as spla
    real_eigs = spla.eigs

    def perturbed(*args, **kwargs):
        vals, basis = real_eigs(*args, **kwargs)
        return vals, basis + 1e-6 * stream(7).standard_normal(basis.shape)

    monkeypatch.setattr(spla, "eigs", perturbed)
    _, g = _workload_graphs()
    with pytest.raises(NumericError, match=r"signed_magnetic_laplacian.*n=400, k=3.*residual"):
        eigh(signed_magnetic_laplacian(g), 3)


def test_check_residual_passes_at_the_bound_and_fails_above_it_or_on_nan():
    from sdnet._blas import RESIDUAL_RTOL, check_residual
    # the bound is RESIDUAL_RTOL * max(1, ||M||_inf), so a norm below 1 keeps 1e-10
    for norm_inf in (0.0, 0.5, 1.0, 40.0):
        bound = RESIDUAL_RTOL * max(1.0, norm_inf)
        check_residual(np.array([0.0, bound]), norm_inf, "pairs")
        with pytest.raises(NumericError, match=r"^pairs have residual .* above "):
            check_residual(np.array([0.0, np.nextafter(bound, 1.0)]), norm_inf, "pairs")
    with pytest.raises(NumericError, match="residual nan"):
        check_residual(np.array([0.0, np.nan]), 1.0, "pairs")
    check_residual(np.zeros(0), 1.0, "pairs")  # no pairs to check


def test_numeric_error_is_one_class():
    # the CLI's exit code 3 catches one class for every layer's failures
    import sdnet
    from sdnet import _blas, cli, logistic, spectral
    assert sdnet.NumericError is spectral.NumericError is _blas.NumericError
    assert cli.NumericError is logistic.NumericError is _blas.NumericError


def test_lanczos_clusters_like_dense_eigh(monkeypatch):
    from sdnet import spectral
    from sdnet.cluster import spectral_cluster
    dsbm_g, sdsbm_g = _workload_graphs()
    cases = [(dsbm_g, "hermitian_imbalance"), (dsbm_g, "magnetic_laplacian"),
             (sdsbm_g, "signed_magnetic_laplacian"), (sdsbm_g, "signed_laplacian_sym")]
    for k in (3, 4):
        lanczos = [spectral_cluster(g, method, k, seed=1)[1] for g, method in cases]
        solved = []

        def dense_eigh(op, k, which, sparse_eigh=spectral.eigh):
            solved.append(op.kind)
            return sparse_eigh(op.toarray(), k, which)

        with monkeypatch.context() as m:
            m.setattr(spectral, "eigh", dense_eigh)
            dense = [spectral_cluster(g, method, k, seed=1)[1] for g, method in cases]
        assert len(solved) == len(cases)
        for (_, method), got, want in zip(cases, lanczos, dense):
            assert np.array_equal(got, want), (method, k)


# ----------------------------------------------------- BLAS thread count

def test_lanczos_runs_at_the_process_blas_thread_count(run_at_blas_threads):
    # sdnet sets no BLAS thread count: inside ARPACK every loaded OpenBLAS,
    # scipy's own among them, still runs on the two threads the process
    # started with
    import json
    script = """
import ctypes
import json
import os
import scipy.sparse.linalg as spla
from sdnet.pipeline import generate_from_params
from sdnet.spectral import eigh, signed_magnetic_laplacian

GETS = ("openblas_get_num_threads", "scipy_openblas_get_num_threads",
        "scipy_openblas_get_num_threads64_")


def counts():
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split(maxsplit=5)[5].strip() for line in maps
                            if "openblas" in line})
    except OSError:
        return {}
    out = {}
    for path in paths:
        lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        for name in GETS:
            if hasattr(lib, name):
                out[path] = getattr(lib, name)()
                break
    return out


real_eigs, inside = spla.eigs, []


def spy(*args, **kwargs):
    inside.append(counts())
    return real_eigs(*args, **kwargs)


spla.eigs = spy
g = generate_from_params({"model": "sdsbm", "meta": "f1", "n": 1000, "p": 0.1, "rho": 1.5,
                          "eta": 0.1, "gamma": 0.1}, seed=11).graph
before = counts()
eigh(signed_magnetic_laplacian(g), 3)
print(json.dumps({"before": before, "inside": inside}))
"""
    out = json.loads(run_at_blas_threads(script, 2))
    if not out["before"]:
        pytest.skip("no OpenBLAS mapped")
    if set(out["before"].values()) != {2}:
        pytest.skip(f"OpenBLAS did not start on 2 threads: {out['before']}")
    assert out["inside"] == [out["before"]]


@pytest.mark.parametrize("params, method, which", [
    ({"model": "dsbm", "meta": "cycle", "n": 1000, "k": 3, "p": 0.02, "rho": 1.5, "eta": 0.1},
     "hermitian_imbalance", "largest_abs"),
    ({"model": "sdsbm", "meta": "f1", "n": 1000, "p": 0.1, "rho": 1.5, "eta": 0.1,
      "gamma": 0.1}, "signed_magnetic_laplacian", "smallest"),
])
def test_single_thread_solve_matches_two_thread_solve(run_at_blas_threads, tmp_path, params,
                                                     method, which):
    # the two operators of the cluster sweeps, solved in a process on one
    # BLAS thread and in one on two. Bytes may differ: how OpenBLAS splits
    # ARPACK's panel products between threads depends on its build and the
    # CPU kernel it picks, and a threaded solve can return a Ritz vector
    # with another phase. Values and the eigenspace must agree.
    # largest_abs with odd k picks one of a +-lambda pair; a flip moves a value
    # by 2|lambda| and fails the values check.
    solved = []
    for threads in (1, 2):
        path = tmp_path / f"{threads}.npz"
        run_at_blas_threads(f"""
import numpy as np
from sdnet import spectral
from sdnet.pipeline import generate_from_params
op = spectral.{method}(generate_from_params({params!r}, seed=11).graph)
pairs = spectral.eigh(op, 3, {which!r})
np.savez({str(path)!r}, values=pairs.values, vectors=pairs.vectors)
""", threads)
        with np.load(path) as pairs:
            solved.append((pairs["values"], pairs["vectors"]))
    (single_vals, single_vecs), (two_vals, two_vecs) = solved
    assert np.allclose(single_vals, two_vals, rtol=0, atol=1e-9)
    assert np.max(np.abs(_projector(single_vecs) - _projector(two_vecs))) <= 1e-9


# ------------------------------------- byte oracles for assembly and bound
# The COO builder and the scipy row sums that the row-by-row assembly and
# the reduceat bound replaced, kept verbatim: the operators and eigenpairs
# must keep their bytes.

def ref_hermitian_from_upper(n, rows, cols, upper, diag):
    from sdnet._csr import CSRMatrix
    r = [rows, cols]
    c = [cols, rows]
    v = [upper, np.conj(upper)]
    if diag is not None:
        r.append(np.arange(n))
        c.append(np.arange(n))
        v.append(diag)
    r = np.concatenate(r)
    c = np.concatenate(c)
    # + 0.0 turns a -0.0 component into 0.0, as an averaged (M + M^H) / 2 does
    v = np.concatenate(v) + 0.0
    order = np.lexsort((c, r))
    index = np.int32 if max(n, v.size) < 2 ** 31 else np.int64
    indptr = np.zeros(n + 1, dtype=index)
    np.cumsum(np.bincount(r, minlength=n), out=indptr[1:])
    return CSRMatrix((v[order], c[order].astype(index), indptr), shape=(n, n))


def ref_norm_inf(a):
    return float(abs(a).sum(axis=1).max(initial=0.0))


def _all_kinds(g):
    ops = [normalized_laplacian(g), signed_laplacian(g), signed_laplacian(g, normalized=True),
           signed_magnetic_laplacian(g, q=0.2), signed_magnetic_laplacian(g, normalized=False),
           hermitian_imbalance(g)]
    if not np.any(g.weight < 0):
        ops += [magnetic_laplacian(g, q=0.3), magnetic_laplacian(g, normalized=False)]
    return ops


def _same_bytes(a, b):
    return all(x.dtype == y.dtype and x.tobytes() == y.tobytes()
               for x, y in ((a.data, b.data), (a.indices, b.indices), (a.indptr, b.indptr)))


def byte_oracle_graphs():
    """Random graphs with self-loops, reciprocal pairs whose weights cancel
    and isolated nodes, unsigned ones among them, and every graph on n <= 2."""
    out = oracle_fixtures()
    out += [G(0, []), G(1, []), G(1, [(0, 0, -2.0)]), G(2, []), G(2, [(0, 1, 1.0)]),
            G(2, [(0, 1, 2.0), (1, 0, -2.0)]), G(2, [(0, 0, 1.5), (0, 1, -0.5), (1, 1, 3.0)])]
    for seed in range(6):
        rng = stream(4100 + seed)
        n = int(rng.integers(3, 50))
        edges = {}
        for _ in range(int(rng.integers(0, 3 * n))):
            u, v = (int(x) for x in rng.integers(n - 2, size=2))  # the last two isolated
            edges[(u, v)] = float(rng.normal()) or 1.0
        for u in range(0, n - 2, 5):
            w = 0.25 + float(rng.random())
            edges[(u, u + 1)], edges[(u + 1, u)] = w, -w
        if seed % 2:
            edges = {e: abs(w) for e, w in edges.items()}
        out.append(G(n, [(u, v, w) for (u, v), w in sorted(edges.items())]))
    return out


def test_operators_byte_identical_to_coo_lexsort_oracle(monkeypatch):
    from sdnet import _csr
    from sdnet.spectral import SPECTRAL_KINDS
    kinds = set()
    for g in byte_oracle_graphs():
        got = _all_kinds(g)
        with monkeypatch.context() as m:
            m.setattr(_csr, "hermitian_from_upper", ref_hermitian_from_upper)
            want = _all_kinds(g)
        for a, b in zip(got, want):
            kinds.add(a.kind)
            assert _same_bytes(a.entries, b.entries), (g.num_nodes, a.kind)
    assert kinds == set(SPECTRAL_KINDS)


def test_norm_inf_byte_identical_to_scipy_row_sums():
    from sdnet.spectral import _norm_inf
    for g in byte_oracle_graphs():
        for op in _all_kinds(g):
            assert _norm_inf(op.entries) == ref_norm_inf(op.entries), (g.num_nodes, op.kind)


@pytest.mark.parametrize("which", ["smallest", "largest", "largest_abs"])
def test_eigh_byte_identical_to_oracles_on_workload_families(monkeypatch, which):
    from sdnet import _csr, spectral
    dsbm_g, sdsbm_g = _workload_graphs()
    builds = [lambda: hermitian_imbalance(dsbm_g), lambda: magnetic_laplacian(dsbm_g),
              lambda: signed_magnetic_laplacian(sdsbm_g),
              lambda: signed_laplacian(sdsbm_g, normalized=True)]
    for build in builds:
        got = eigh(build(), 3, which)
        with monkeypatch.context() as m:
            m.setattr(_csr, "hermitian_from_upper", ref_hermitian_from_upper)
            m.setattr(spectral, "_norm_inf", ref_norm_inf)
            want = eigh(build(), 3, which)
        assert got.values.tobytes() == want.values.tobytes()
        assert got.vectors.tobytes() == want.vectors.tobytes()


# ------------------------------------------------------ Hermiticity check

def test_hermiticity_check_catches_one_value_off_by_1e9():
    op = signed_magnetic_laplacian(_workload_graphs()[1])
    bad = op.entries.copy()
    upper = np.flatnonzero(bad.indices > np.repeat(np.arange(bad.shape[0]),
                                                   np.diff(bad.indptr)))[17]
    scale = np.linalg.norm(bad.data)
    bad.data[upper] += 1e-9 * scale
    with pytest.raises(NumericError):
        SpectralMatrix(bad, op.kind)
    bad.data[upper] = op.entries.data[upper]
    assert SpectralMatrix(bad, op.kind).entries.nnz == op.entries.nnz


def test_hermiticity_check_catches_entry_without_mirror():
    import scipy.sparse as sps
    m = sps.csr_array(np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.25, 0.0, 1.0]]))
    with pytest.raises(NumericError):
        SpectralMatrix(m, "signed_laplacian")
    # an explicitly stored zero needs no mirror, as M - M^H stays zero
    m = sps.csr_array((np.array([1.0, 0.0, 1.0]), np.array([0, 1, 1]), np.array([0, 2, 3])),
                      shape=(2, 2))
    assert SpectralMatrix(m, "signed_laplacian").entries.nnz == 3


def test_hermiticity_check_catches_dense_non_hermitian():
    m = np.array([[1.0, 2.0 + 1j], [2.0 + 1j, 0.5]])  # symmetric, not Hermitian
    with pytest.raises(NumericError):
        SpectralMatrix(m, "hermitian_imbalance")
    with pytest.raises(NumericError):
        SpectralMatrix(np.array([[0.0, 1.0], [1.0 + 1e-6, 0.0]]), "signed_laplacian")


def test_hermitian_residual_is_frobenius_norm_of_difference():
    import scipy.sparse as sps
    from sdnet._csr import as_csr, hermitian_residual
    rng = stream(12)
    for case in range(20):
        n = int(rng.integers(1, 30))
        dense = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        dense[rng.random((n, n)) < 0.7] = 0.0
        if case % 2:
            dense = dense + dense.conj().T
            dense[0, -1] += 1e-7  # a near-Hermitian one with a symmetric pattern
        m = as_csr(sps.csr_array(dense))
        want = np.linalg.norm(dense - dense.conj().T)
        assert hermitian_residual(m) == pytest.approx(want, rel=1e-12, abs=1e-300)


def test_sum_squares_is_squared_frobenius_norm():
    from sdnet._blas import sum_squares
    rng = stream(13)
    for shape in [(1,), (50,), (7, 9)]:
        real = rng.normal(size=shape)
        for a in (real, real + 1j * rng.normal(size=shape)):
            assert sum_squares(a) == pytest.approx(np.linalg.norm(a) ** 2, rel=1e-15)
    assert sum_squares(np.empty(0)) == 0.0
    assert sum_squares(np.empty((0, 3), dtype=np.complex128)) == 0.0


def test_sum_squares_holds_no_copy():
    # einsum's iterator and the views trace a fixed 1.3-1.4 KiB at any
    # size; one float64 copy of these 10^6 entries would be 16 MB
    from sdnet._blas import sum_squares
    a = stream(14).normal(size=(10**6, 2)).view(np.complex128)
    sum_squares(a)
    peak, total = _traced_peak(lambda: sum_squares(a))
    assert total > 0.0
    assert peak < 2048, f"{peak} bytes"


# ------------------------------------------------------------------ memory

def _traced_peak(fn):
    import tracemalloc
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return tracemalloc.get_traced_memory()[1] - base, out
    finally:
        if started:
            tracemalloc.stop()


@pytest.mark.parametrize("kind", ["normalized_laplacian", "signed_laplacian",
                                  "signed_laplacian_sym", "magnetic_laplacian",
                                  "signed_magnetic_laplacian", "hermitian_imbalance"])
def test_operator_build_traced_bytes_per_edge(kind):
    # about twice what the operator keeps (25.6 bytes per edge for the real
    # kinds, 40.4-42.4 for the complex ones), its check included; the COO
    # lexsort builder and the M - M^H check once traced 313 for the signed
    # magnetic Laplacian, and 108 with int64 cell ends and a complex CSC
    # copy of the upper triangle
    n = 20_000
    g = sdsbm(f1_meta(0.0), n, 20.0 / n, seed=1).graph
    if kind == "magnetic_laplacian":
        g = SignedDirectedGraph(n, g.src, g.dst, np.abs(g.weight))
    build = {"normalized_laplacian": normalized_laplacian,
             "signed_laplacian": signed_laplacian,
             "signed_laplacian_sym": lambda g: signed_laplacian(g, normalized=True),
             "magnetic_laplacian": magnetic_laplacian,
             "signed_magnetic_laplacian": signed_magnetic_laplacian,
             "hermitian_imbalance": hermitian_imbalance}[kind]
    # the first build in a process also imports scipy.sparse, about 10 MB
    # that the limit is not about
    build(G(2, [(0, 1, 1.0)]))
    peak, op = _traced_peak(lambda: build(g))
    assert op.kind == kind and g.num_edges > 190_000
    limit = 85 if op.entries.dtype == np.complex128 else 65
    assert peak <= limit * g.num_edges, f"{peak / g.num_edges:.1f} bytes per edge"


def test_hermiticity_recheck_traced_bytes_per_edge():
    # re-checking a cluster-sized operator holds three indices per entry and
    # one block; a 1 MB block once added about 20 bytes per edge here
    from sdnet.pipeline import generate_from_params
    g = generate_from_params({"model": "sdsbm", "meta": "f1", "n": 1000, "p": 0.1,
                              "rho": 1.5, "eta": 0.1, "gamma": 0.1}, seed=2).graph
    op = signed_magnetic_laplacian(g)
    peak, again = _traced_peak(lambda: SpectralMatrix(op.entries, op.kind))
    assert again.entries.nnz == op.entries.nnz and g.num_edges > 45_000
    assert peak <= 30 * g.num_edges, f"{peak / g.num_edges:.1f} bytes per edge"


@pytest.mark.parametrize("kind, limit", [("signed_magnetic_laplacian", 55),
                                         ("signed_laplacian_sym", 45)])
def test_lanczos_solve_traced_bytes_per_edge(kind, limit):
    # a stored copy of c I - L once lifted these to 80 and 56 bytes per edge;
    # what is left is mostly ARPACK's 20-vector basis
    build = {"signed_magnetic_laplacian": signed_magnetic_laplacian,
             "signed_laplacian_sym": lambda g: signed_laplacian(g, normalized=True)}[kind]
    # the first solve in a process also loads scipy's ARPACK code, about
    # 3 MB that the limit is not about
    eigh(build(_workload_graphs()[1]), 3)
    n = 20_000
    g = sdsbm(f1_meta(0.0), n, 20.0 / n, seed=1).graph
    op = build(g)
    peak, pairs = _traced_peak(lambda: eigh(op, 3))
    assert op.kind == kind and pairs.values.shape == (3,)
    assert peak <= limit * g.num_edges, f"{peak / g.num_edges:.1f} bytes per edge"
