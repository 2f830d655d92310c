import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdnet.generators import (block_sizes, custom_meta, dsbm, erdos_renyi, f1_meta,
                              f2_meta, meta_graph, pol_ssbm, sdsbm, ssbm)
from sdnet.graph import is_directed, is_signed


def binom_3sigma(rate, n):
    return 3.0 * np.sqrt(rate * (1.0 - rate) / max(n, 1))


# ----------------------------------------------------------------- block sizes

def test_block_sizes_examples():
    assert list(block_sizes(10, 3, 1.0).sizes) == [3, 3, 4]
    assert list(block_sizes(1000, 3, 1.5).sizes) == [268, 328, 404]
    assert list(block_sizes(5, 5, 1.0).sizes) == [1, 1, 1, 1, 1]
    assert list(block_sizes(7, 1, 3.0).sizes) == [7]


def test_block_sizes_ratio_near_rho():
    sizes = block_sizes(1000, 3, 1.5).sizes
    assert 1.4 <= sizes.max() / sizes.min() <= 1.6


def test_block_sizes_errors():
    with pytest.raises(ValueError):
        block_sizes(2, 3)
    with pytest.raises(ValueError):
        block_sizes(10, 8, 100.0)
    with pytest.raises(ValueError):
        block_sizes(10, 0)
    with pytest.raises(ValueError):
        block_sizes(10, 2, 0.5)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(10, 3000), K=st.integers(1, 8),
       rho=st.floats(1.0, 10.0, allow_nan=False))
def test_block_sizes_properties(n, K, rho):
    if n < 4 * K:
        n = 4 * K
    try:
        sizes = block_sizes(n, K, rho).sizes
    except ValueError as exc:
        # extreme ratios can force a zero-size smallest block; the
        # documented error is the contract there
        assert "infeasible" in str(exc)
        return
    assert sizes.sum() == n
    assert sizes.size == K
    assert np.all(np.diff(sizes) >= 0)
    assert np.all(sizes > 0)


# ------------------------------------------------------------------------ ssbm

def test_ssbm_deterministic_limit():
    inst = ssbm(6, 2, 1.0, 1.0, seed=0)
    g = inst.graph
    assert g.num_edges == 6 * 5  # complete undirected, both directions stored
    same = inst.labels[g.src] == inst.labels[g.dst]
    assert np.all(g.weight[same] == 1.0)
    assert np.all(g.weight[~same] == -1.0)


def test_ssbm_empty():
    assert ssbm(10, 2, 0.0, 0.0, seed=0).graph.num_edges == 0


def test_ssbm_undirected_and_signed():
    inst = ssbm(60, 3, 0.2, 0.2, eta=0.1, seed=1)
    assert not is_directed(inst.graph)
    assert is_signed(inst.graph)


def test_ssbm_census():
    n, p, eta = 2000, 0.05, 0.1
    inst = ssbm(n, 3, p, p, eta_in=eta, eta_out=eta, seed=0)
    g, labels = inst.graph, inst.labels
    half = g.src < g.dst  # one copy per undirected edge
    same = labels[g.src[half]] == labels[g.dst[half]]
    counts = np.bincount(labels)
    within_pairs = int((counts * (counts - 1) // 2).sum())
    across_pairs = n * (n - 1) // 2 - within_pairs
    rate_in = same.sum() / within_pairs
    rate_out = (~same).sum() / across_pairs
    assert abs(rate_in - p) <= binom_3sigma(p, within_pairs)
    assert abs(rate_out - p) <= binom_3sigma(p, across_pairs)
    # sign flips: within edges started +1, across started -1
    w = g.weight[half]
    neg_in = np.mean(w[same] < 0)
    pos_out = np.mean(w[~same] > 0)
    assert abs(neg_in - eta) <= binom_3sigma(eta, int(same.sum()))
    assert abs(pos_out - eta) <= binom_3sigma(eta, int((~same).sum()))


def test_ssbm_block_census_matches_sizes():
    inst = ssbm(103, 4, 0.1, 0.1, rho=2.0, seed=2)
    assert list(np.bincount(inst.labels)) == list(block_sizes(103, 4, 2.0).sizes)


def test_ssbm_determinism():
    a = ssbm(50, 2, 0.2, 0.3, eta=0.2, seed=9)
    b = ssbm(50, 2, 0.2, 0.3, eta=0.2, seed=9)
    assert a.graph.edge_list() == b.graph.edge_list()
    c = ssbm(50, 2, 0.2, 0.3, eta=0.2, seed=10)
    assert a.graph.edge_list() != c.graph.edge_list()


def test_ssbm_same_seed_same_support_across_eta():
    a = ssbm(50, 2, 0.3, 0.3, eta=0.0, seed=3)
    b = ssbm(50, 2, 0.3, 0.3, eta=0.4, seed=3)
    pa = {(u, v) for u, v, _ in a.graph.edge_list()}
    pb = {(u, v) for u, v, _ in b.graph.edge_list()}
    assert pa == pb


# ------------------------------------------------------------------- pol-ssbm

def test_pol_ssbm_cluster_ids():
    inst = pol_ssbm(200, 5, 0.1, N=20, seed=0)
    assert set(np.unique(inst.labels)) == set(range(11))


def test_pol_ssbm_degenerate_no_ambient():
    inst = pol_ssbm(40, 1, 0.5, N=40, seed=1)
    assert set(np.unique(inst.labels)) <= {0, 1}
    assert not is_directed(inst.graph)


def test_pol_ssbm_paper_configuration_smoke():
    inst = pol_ssbm(5000, 5, 0.1, rho=1.5, eta=0.1, seed=0)
    assert inst.graph.num_nodes == 5000
    assert inst.labels.max() == 10
    assert is_signed(inst.graph) and not is_directed(inst.graph)


def test_pol_ssbm_planted_blocks_positive_within():
    # eta=0: inside a planted block every edge is +1
    inst = pol_ssbm(60, 2, 0.4, N=15, seed=2)
    g, labels = inst.graph, inst.labels
    for b in range(4):
        members = np.nonzero(labels == b)[0]
        sel = np.isin(g.src, members) & np.isin(g.dst, members)
        assert np.all(g.weight[sel] == 1.0)


def test_pol_ssbm_infeasible():
    with pytest.raises(ValueError):
        pol_ssbm(30, 4, 0.1, N=10, seed=0)


# ---------------------------------------------------------------- meta graphs

def test_meta_cycle_example():
    m = meta_graph("cycle", 3, eta=0.1)
    expected = np.array([[0.5, 0.9, 0.1], [0.1, 0.5, 0.9], [0.9, 0.1, 0.5]])
    assert np.allclose(m.F, expected)
    assert np.allclose(m.F_filled, expected)  # no structural zeros


def test_meta_path_fill_rule():
    m = meta_graph("path", 3, eta=0.0)
    expected_f = np.array([[0.5, 1.0, 0.0], [0.0, 0.5, 1.0], [0.0, 0.0, 0.5]])
    assert np.allclose(m.F, expected_f)
    filled = expected_f.copy()
    filled[0, 2] = filled[2, 0] = 0.5
    assert np.allclose(m.F_filled, filled)


def test_meta_complete_antisymmetric():
    m = meta_graph("complete", 5, eta=0.2, seed=3)
    off = ~np.eye(5, dtype=bool)
    assert np.allclose((m.F + m.F.T)[off], 1.0)
    assert set(np.round(np.unique(m.F[off]), 6)) <= {0.2, 0.8}


def test_meta_star_structure():
    m = meta_graph("star", 5, eta=0.1)
    center = 2
    assert np.allclose(np.diag(m.F), 0.5)
    for l in range(5):
        if l != center:
            expect = 0.9 if l % 2 == 1 else 0.1
            assert m.F[center, l] == pytest.approx(expect)
            assert m.F[l, center] == pytest.approx(1 - expect)
    # non-center off-diagonal entries are structural zeros, filled with 0.5
    assert m.F[0, 1] == 0.0 and m.F_filled[0, 1] == 0.5


@pytest.mark.parametrize("kind", ["cycle", "path", "complete", "star"])
def test_meta_pattern_pairs_split_their_flow(kind):
    # every off-diagonal pattern entry is eta or 1 - eta, so F > 0 marks it
    m = meta_graph(kind, 5, eta=0.1, seed=3)
    pattern = (m.F > 0) & ~np.eye(5, dtype=bool)
    assert pattern.any() and np.array_equal(pattern, pattern.T)
    k, l = np.nonzero(pattern)
    np.testing.assert_allclose(m.F[k, l] + m.F[l, k], 1.0, rtol=0, atol=1e-15)


def test_meta_ambient_cycle():
    m = meta_graph("cycle", 4, eta=0.1, ambient=True)
    # core is a 3-cluster cycle
    assert np.allclose(m.F[:3, :3], meta_graph("cycle", 3, eta=0.1).F)
    assert np.all(m.F[3, :] == 0.0) and np.all(m.F[:, 3] == 0.0)
    assert np.all(m.F_filled[3, :] == 0.5) and np.all(m.F_filled[:, 3] == 0.5)


def test_meta_errors():
    with pytest.raises(ValueError):
        meta_graph("cycle", 1)
    with pytest.raises(ValueError):
        meta_graph("cycle", 2, ambient=True)
    with pytest.raises(ValueError):
        meta_graph("hexagon", 3)


def test_f1_f2_matrices():
    f = f1_meta(0.5)
    assert np.allclose(f.F, [[0.5, 0.5, -0.5], [0.5, 0.5, -0.5], [-0.5, -0.5, 0.5]])
    f1 = f1_meta(0.1)
    assert np.allclose(f1.F[0], [0.5, 0.1, -0.1])
    f2 = f2_meta(0.3)
    assert np.allclose(f2.F[3], [-0.7, -0.7, -0.7, 0.5])
    # gamma + (1 - gamma) pattern sums to unit magnitude
    s = f1_meta(0.3).F + f1_meta(0.3).F.T
    assert np.allclose(np.abs(s[0, 1]), 1.0) and np.allclose(np.abs(s[0, 2]), 1.0)


# ------------------------------------------------------------------------ dsbm

def test_dsbm_zero_noise_cycle_forward_only():
    inst = dsbm(meta_graph("cycle", 3, eta=0.0), 60, 3, 0.5, seed=0)
    g, labels = inst.graph, inst.labels
    lu, lv = labels[g.src], labels[g.dst]
    cross = lu != lv
    assert np.all((lv[cross] - lu[cross]) % 3 == 1)


def test_dsbm_census():
    n, K, p = 1000, 3, 0.02
    meta = meta_graph("cycle", K, eta=0.1)
    inst = dsbm(meta, n, K, p, rho=1.5, seed=0)
    g, labels = inst.graph, inst.labels
    counts = np.bincount(labels)
    pair_counts = np.outer(counts, counts) - np.diag(counts)
    observed = np.zeros((K, K))
    np.add.at(observed, (labels[g.src], labels[g.dst]), 1.0)
    for k in range(K):
        for l in range(K):
            rate = observed[k, l] / pair_counts[k, l]
            target = p * meta.F_filled[k, l]
            assert abs(rate - target) <= binom_3sigma(target, pair_counts[k, l])


def test_dsbm_directed_and_unsigned():
    inst = dsbm(meta_graph("cycle", 3), 100, 3, 0.1, seed=0)
    assert is_directed(inst.graph)
    assert not is_signed(inst.graph)
    assert np.all(inst.graph.weight == 1.0)


def test_dsbm_eta_half_forward_backward_balance():
    from scipy.stats import binomtest
    meta = meta_graph("cycle", 3, eta=0.5)
    inst = dsbm(meta, 2000, 3, 0.02, seed=0)
    g, labels = inst.graph, inst.labels
    lu, lv = labels[g.src], labels[g.dst]
    for k in range(3):
        for l in range(k + 1, 3):
            fwd = int(np.sum((lu == k) & (lv == l)))
            bwd = int(np.sum((lu == l) & (lv == k)))
            assert binomtest(fwd, fwd + bwd, 0.5).pvalue >= 0.001


def test_dsbm_validation():
    meta = meta_graph("cycle", 3)
    with pytest.raises(ValueError):
        dsbm(meta, 30, 4, 0.1)
    with pytest.raises(ValueError):
        dsbm(meta, 30, 3, 1.2)


# ----------------------------------------------------------------------- sdsbm

def test_sdsbm_signs_match_meta_at_zero_noise():
    meta = f1_meta(0.2)
    inst = sdsbm(meta, 90, 0.4, seed=0)
    g, labels = inst.graph, inst.labels
    signs = meta.F[labels[g.src], labels[g.dst]]
    assert np.all(np.abs(signs) > 0)  # zero cells emit no edges
    assert np.all(np.sign(g.weight) == np.sign(signs))


def test_sdsbm_negative_cell_rate():
    F = np.zeros((3, 3))
    F[0, 2] = -0.5
    inst = sdsbm(custom_meta(F), 300, 0.8, seed=1)
    g, labels = inst.graph, inst.labels
    assert np.all(g.weight == -1.0)
    assert np.all(labels[g.src] == 0) and np.all(labels[g.dst] == 2)
    cell_pairs = int(np.sum(labels == 0)) * int(np.sum(labels == 2))
    rate = g.num_edges / cell_pairs
    assert abs(rate - 0.4) <= binom_3sigma(0.4, cell_pairs)


def test_sdsbm_flip_census_against_shared_seed():
    meta = f1_meta(0.1)
    base = sdsbm(meta, 300, 0.1, eta=0.0, seed=5)
    noisy = sdsbm(meta, 300, 0.1, eta=0.1, seed=5)
    eb, en = base.graph.edge_list(), noisy.graph.edge_list()
    assert [(u, v) for u, v, _ in eb] == [(u, v) for u, v, _ in en]
    flips = np.mean([wb != wn for (_, _, wb), (_, _, wn) in zip(eb, en)])
    assert abs(flips - 0.1) <= binom_3sigma(0.1, len(eb))


def test_sdsbm_directed_signed():
    inst = sdsbm(f1_meta(0.0), 120, 0.1, eta=0.05, seed=0)
    assert is_directed(inst.graph) and is_signed(inst.graph)


# ------------------------------------------------------------------ signed ER

def test_signed_er_limits():
    assert erdos_renyi(10, 0.0, seed=0).graph.num_edges == 0
    g = erdos_renyi(4, 1.0, seed=0).graph
    assert g.num_edges == 12  # 6 undirected edges, both directions
    assert not is_directed(g)


def test_signed_er_sign_census():
    g = erdos_renyi(2000, 0.05, seed=0).graph
    half = g.src < g.dst
    pos_frac = np.mean(g.weight[half] > 0)
    assert abs(pos_frac - 0.5) <= binom_3sigma(0.5, int(half.sum()))


# ---------------------------------------------------------------- determinism

@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_generator_determinism_property(seed):
    a = dsbm(meta_graph("cycle", 3, eta=0.2), 40, 3, 0.2, seed=seed)
    b = dsbm(meta_graph("cycle", 3, eta=0.2), 40, 3, 0.2, seed=seed)
    assert a.graph.edge_list() == b.graph.edge_list()
    assert list(a.labels) == list(b.labels)


# ------------------------------------------------------- block-pair sampler

def _edge_set(g):
    return {(u, v): w for u, v, w in g.edge_list()}


def _all_ordered_pairs(n):
    return [(i, j) for i in range(n) for j in range(n) if i != j]


def test_dsbm_unit_probability_cells_all_present():
    # block_sizes(5, 3) = [1, 1, 3]: two blocks of size 1
    F = np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    inst = dsbm(custom_meta(F), 5, 3, 1.0, seed=0)
    lab = inst.labels
    want = {(i, j) for i, j in _all_ordered_pairs(5) if F[lab[i], lab[j]] == 1.0}
    assert set(_edge_set(inst.graph)) == want
    full = dsbm(custom_meta(np.ones((3, 3))), 5, 3, 1.0, seed=1)
    assert set(_edge_set(full.graph)) == set(_all_ordered_pairs(5))


def test_sdsbm_unit_magnitude_cells_all_present():
    F = np.array([[1.0, -1.0, 0.0], [0.0, -1.0, 1.0], [1.0, 0.0, -1.0]])
    for eta, seed in ((0.0, 0), (0.5, 3)):
        inst = sdsbm(custom_meta(F), 5, 1.0, eta=eta, seed=seed)
        lab = inst.labels
        edges = _edge_set(inst.graph)
        assert set(edges) == {(i, j) for i, j in _all_ordered_pairs(5)
                              if F[lab[i], lab[j]] != 0.0}
        if eta == 0.0:
            assert all(w == F[lab[u], lab[v]] for (u, v), w in edges.items())


def test_ssbm_and_signed_er_unit_probability():
    inside = ssbm(5, 3, 1.0, 0.0, seed=0)  # blocks [1, 1, 3]
    lab = inside.labels
    edges = _edge_set(inside.graph)
    assert set(edges) == {(i, j) for i, j in _all_ordered_pairs(5) if lab[i] == lab[j]}
    assert set(edges.values()) == {1.0}
    across = ssbm(5, 3, 0.0, 1.0, seed=0)
    edges = _edge_set(across.graph)
    assert set(edges) == {(i, j) for i, j in _all_ordered_pairs(5) if lab[i] != lab[j]}
    assert set(edges.values()) == {-1.0}
    er = erdos_renyi(7, 1.0, seed=2).graph
    assert set(_edge_set(er)) == set(_all_ordered_pairs(7))


def test_pol_ssbm_unit_probability():
    # two communities of 2 nodes (halves of size 1) and one ambient node
    inst = pol_ssbm(5, 2, 1.0, N=2, seed=0)
    lab = inst.labels
    assert lab.tolist() == [0, 1, 2, 3, 4]
    edges = _edge_set(inst.graph)
    assert set(edges) == set(_all_ordered_pairs(5))
    assert edges[(0, 1)] == -1.0 and edges[(2, 3)] == -1.0  # across halves
    big = pol_ssbm(12, 2, 1.0, N=5, seed=1)  # halves [2, 3], 2 ambient nodes
    lab = big.labels
    for (u, v), w in _edge_set(big.graph).items():
        if lab[u] == lab[v] and lab[u] < 4:
            assert w == 1.0


def _sampler_families(eta):
    yield "ssbm", ssbm(40, 3, 0.3, 0.2, rho=2.0, eta=eta, seed=7).graph
    yield "er", erdos_renyi(30, 0.2, seed=7).graph
    yield "pol_ssbm", pol_ssbm(40, 2, 0.3, eta=eta, N=12, seed=7).graph
    yield "dsbm", dsbm(meta_graph("cycle", 3, eta=0.2), 40, 3, 0.4, rho=2.0, seed=7).graph
    yield "sdsbm", sdsbm(f1_meta(0.3), 40, 0.5, rho=2.0, eta=eta, seed=7).graph


def test_sampler_sorted_without_self_loops_or_duplicates():
    for name, g in _sampler_families(0.1):
        codes = g.src * g.num_nodes + g.dst
        assert np.all(np.diff(codes) > 0), name  # (src, dst) order, distinct
        assert np.all(g.src != g.dst), name
        assert g.num_edges > 0, name


def test_same_seed_same_support_across_eta():
    for (name, a), (_, b) in zip(_sampler_families(0.0), _sampler_families(0.4)):
        if name in ("ssbm", "pol_ssbm", "sdsbm"):
            assert np.array_equal(a.src, b.src) and np.array_equal(a.dst, b.dst), name
            assert not np.array_equal(a.weight, b.weight), name


# Many-seed exactness: for each family, the per-cell presence probability
# P and the probability of a + sign given presence are written out here
# from the model definitions, then compared with counts over many seeds.

SEEDS = 200


def _cycle_filled(eta):
    return np.array([[0.5, 1 - eta, eta], [eta, 0.5, 1 - eta], [1 - eta, eta, 0.5]])


def _exact_models():
    # (name, make(seed) -> (graph, labels), directed, P(lab_i, lab_j), P(+)(lab_i, lab_j))
    lab = block_sizes(12, 3, 2.0).labels()
    cyc = 0.6 * _cycle_filled(0.2)
    yield ("dsbm", lambda s: dsbm(meta_graph("cycle", 3, eta=0.2), 12, 3, 0.6,
                                  rho=2.0, seed=s), True, lab, cyc, np.ones((3, 3)))
    g1 = 0.3
    f1 = np.array([[0.5, g1, -g1], [1 - g1, 0.5, -0.5], [-1 + g1, -0.5, 0.5]])
    yield ("sdsbm", lambda s: sdsbm(f1_meta(g1), 12, 0.8, rho=2.0, eta=0.2, seed=s),
           True, lab, 0.8 * np.abs(f1), np.where(f1 > 0, 0.8, 0.2))
    same = np.eye(3, dtype=bool)
    yield ("ssbm", lambda s: ssbm(12, 3, 0.5, 0.2, rho=2.0, eta_in=0.1, eta_out=0.3,
                                  seed=s), False, lab,
           np.where(same, 0.5, 0.2), np.where(same, 0.9, 0.3))
    yield ("er", lambda s: erdos_renyi(12, 0.3, seed=s), False,
           np.zeros(12, dtype=np.int64), np.full((1, 1), 0.3), np.full((1, 1), 0.5))
    # pol_ssbm, r=2, N=5: halves [2, 3] per community and 4 ambient nodes
    pol = np.repeat(np.arange(5), [2, 3, 2, 3, 4])
    pos = np.full((5, 5), 0.5)
    for c in (0, 2):
        pos[c:c + 2, c:c + 2] = [[0.8, 0.2], [0.2, 0.8]]
    yield ("pol_ssbm", lambda s: pol_ssbm(14, 2, 0.4, eta=0.2, N=5, seed=s), False,
           pol, np.full((5, 5), 0.4), pos)


@pytest.mark.parametrize("model", list(_exact_models()), ids=lambda m: m[0])
def test_sampler_exact_over_many_seeds(model):
    name, make, directed, lab, prob, pos_prob = model
    n, K = lab.size, prob.shape[0]
    cells = ~np.eye(n, dtype=bool) if directed else np.triu(np.ones((n, n), bool), 1)
    P = prob[lab[:, None], lab[None, :]]
    Q = pos_prob[lab[:, None], lab[None, :]]
    blocks = [(k, l) for k in range(K) for l in range(K) if directed or k <= l]
    hits = np.zeros((n, n))
    pos = np.zeros((n, n))
    per_seed = np.zeros((SEEDS, len(blocks)))
    for s in range(SEEDS):
        g = make(s).graph
        A = np.zeros((n, n))
        A[g.src, g.dst] = g.weight
        if not directed:
            assert np.array_equal(A, A.T)
        present = (A != 0) & cells
        hits += present
        pos += (A > 0) & cells
        for b, (k, l) in enumerate(blocks):
            sel = cells & (lab[:, None] == k) & (lab[None, :] == l)
            p_sel = P[sel]
            per_seed[s, b] = ((present[sel].sum() - p_sel.sum())
                              / np.sqrt((p_sel * (1 - p_sel)).sum()))
    # per block pair: the pooled count, the spread of the per-seed z-scores
    # and the + signs among present edges, each against its exact law
    for b, (k, l) in enumerate(blocks):
        sel = cells & (lab[:, None] == k) & (lab[None, :] == l)
        pooled = per_seed[:, b].mean() * np.sqrt(SEEDS)
        assert abs(pooled) < 4.0, (name, k, l, pooled)
        assert 0.8 < per_seed[:, b].std() < 1.2, (name, k, l, per_seed[:, b].std())
        h, q = hits[sel], Q[sel]
        var = (h * q * (1 - q)).sum()
        if var > 0:
            z_sign = (pos[sel].sum() - (h * q).sum()) / np.sqrt(var)
            assert abs(z_sign) < 4.0, (name, k, l, z_sign)
    # per cell: every cell, the first and last of each block included
    p_cell = P[cells]
    z_cell = (hits[cells] - SEEDS * p_cell) / np.sqrt(SEEDS * p_cell * (1 - p_cell))
    assert np.abs(z_cell).max() < 4.5, (name, np.abs(z_cell).max())
    assert not np.diag(hits).any()  # no self-loops
