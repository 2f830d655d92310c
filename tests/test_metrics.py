import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdnet.generators import dsbm, f1_meta, meta_graph, pol_ssbm, sdsbm, ssbm
from sdnet.graph import SignedDirectedGraph
from sdnet.metrics import (MetricReport, SoftAssignment, accuracy, ari, auc,
                           balanced_triangle_ratio, macro_f1, pbnc_loss,
                           prob_imbalance, unhappy_ratio)
from sdnet.rng import stream


def G(n, edges):
    return SignedDirectedGraph.from_edges(n, edges)


def undirected(n, pairs):
    edges = []
    for u, v, w in pairs:
        edges.extend([(u, v, w), (v, u, w)])
    return G(n, edges)


# ---------------------------------------------------------------- ARI oracles

def ari_pairwise_oracle(a, b):
    """Independent pair-counting evaluation of the adjusted Rand index."""
    n = len(a)
    ss = sd = ds = dd = 0
    for i in range(n):
        for j in range(i + 1, n):
            sa = a[i] == a[j]
            sb = b[i] == b[j]
            ss += sa and sb
            sd += sa and not sb
            ds += (not sa) and sb
            dd += (not sa) and (not sb)
    total = ss + sd + ds + dd
    index = ss
    expected = (ss + sd) * (ss + ds) / total
    maximum = ((ss + sd) + (ss + ds)) / 2.0
    if maximum == expected:
        return 1.0
    return (index - expected) / (maximum - expected)


def test_ari_examples():
    assert ari([0, 1, 1, 2], [0, 1, 1, 2]) == 1.0
    assert ari([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0
    assert ari([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(-0.5)


def test_ari_matches_pairwise_oracle_sampled():
    rng = stream(123)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        a = rng.integers(0, 4, size=n)
        b = rng.integers(0, 4, size=n)
        assert ari(a, b) == pytest.approx(ari_pairwise_oracle(list(a), list(b)),
                                          abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=2, max_size=12), st.permutations(range(4)))
def test_ari_label_permutation_invariance(labels, perm):
    other = [x % 2 for x in range(len(labels))]
    permuted = [perm[v] for v in labels]
    assert ari(other, labels) == pytest.approx(ari(other, permuted), abs=1e-12)


def test_ari_validation():
    with pytest.raises(ValueError):
        ari([0, 1], [0, 1, 2])
    with pytest.raises(ValueError):
        ari([0], [0])


# ---------------------------------------------------- accuracy / f1 / auc

def test_perfect_predictions():
    y = [0, 1, 0, 1, 1]
    assert accuracy(y, y) == 1.0
    assert macro_f1(y, y) == 1.0
    assert auc([0.1, 0.9, 0.2, 0.8, 0.7], y) == 1.0


def test_auc_all_ties():
    assert auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5


def test_auc_example():
    assert auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75)


def auc_pairwise_oracle(scores, y):
    wins = ties = 0
    pos = [s for s, t in zip(scores, y) if t == 1]
    neg = [s for s, t in zip(scores, y) if t == 0]
    for p in pos:
        for q in neg:
            wins += p > q
            ties += p == q
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def test_auc_matches_pairwise_oracle():
    rng = stream(9)
    for _ in range(300):
        n = int(rng.integers(2, 13))
        y = rng.integers(0, 2, size=n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        scores = np.round(rng.random(n), 1)  # coarse grid forces ties
        assert auc(scores, y) == pytest.approx(
            auc_pairwise_oracle(list(scores), list(y)), abs=1e-12)


def test_auc_heavy_ties_equal_pairwise_oracle_exactly():
    rng = stream(10)
    for levels in (1, 2, 3, 5):
        y = rng.integers(0, 2, size=300)
        y[:2] = [0, 1]
        scores = rng.integers(0, levels, size=300) / 4.0
        # midranks are exact halves, so both sides round once, identically
        assert auc(scores, y) == auc_pairwise_oracle(list(scores), list(y))


def test_auc_single_class_error():
    with pytest.raises(ValueError):
        auc([0.1, 0.2], [1, 1])


def test_auc_rejects_labels_other_than_0_and_1():
    # unchecked, a third label is ranked but counted in neither class (AUC
    # 2.0 here), and a fractional one truncates to 0 (AUC 1.0 here)
    with pytest.raises(ValueError, match="not 2"):
        auc([0.1, 0.9, 0.5], [0, 1, 2])
    with pytest.raises(ValueError, match="not 0.7"):
        auc([0.1, 0.9, 0.5], [0.0, 1.0, 0.7])
    scores = [0.1, 0.9, 0.5, 0.3]
    want = auc(scores, [0, 1, 1, 0])
    for labels in ([False, True, True, False], [0.0, 1.0, 1.0, 0.0],
                   np.array([0, 1, 1, 0], dtype=np.int8)):
        assert auc(scores, labels) == want


def test_macro_f1_empty_class_contributes_zero():
    # class 2 never predicted nor true among explicit classes
    assert macro_f1([0, 0, 1], [0, 1, 1], classes=[0, 1, 2]) == pytest.approx(
        (2 / 3 + 2 / 3 + 0.0) / 3)


def test_macro_f1_needs_a_sample_and_a_class():
    # both once returned nan with "Mean of empty slice" warnings
    for classes in (None, [0, 1], []):
        with pytest.raises(ValueError, match="need at least one sample"):
            macro_f1([], [], classes=classes)
    with pytest.raises(ValueError, match="need at least one class"):
        macro_f1([0, 1], [0, 1], classes=[])


# -------------------------------------------------------------- unhappy ratio

def test_unhappy_ratio_cases():
    labels = [0, 0, 1, 1]
    g = undirected(4, [(0, 1, 1.0), (2, 3, 1.0), (0, 2, -1.0)])
    assert unhappy_ratio(g, labels) == 0.0
    g2 = undirected(4, [(0, 1, 1.0), (2, 3, 1.0), (0, 2, -1.0), (0, 3, 1.0)])
    assert unhappy_ratio(g2, labels) == pytest.approx(0.25)
    g3 = undirected(4, [(0, 1, 1.0), (0, 2, -1.0), (1, 3, -2.0)])
    assert unhappy_ratio(g3, [0, 0, 0, 0]) == pytest.approx(3.0 / 4.0)


def test_unhappy_plus_happy_is_one():
    inst = ssbm(40, 2, 0.3, 0.3, eta=0.2, seed=1)
    g, labels = inst.graph, inst.labels
    same = labels[g.src] == labels[g.dst]
    pos = g.weight > 0
    happy = np.abs(g.weight)[(pos & same) | (~pos & ~same)].sum()
    happy_ratio = happy / np.abs(g.weight).sum()
    assert unhappy_ratio(g, labels) + happy_ratio == pytest.approx(1.0)


def test_unhappy_ratio_empty_edge_set():
    with pytest.raises(ValueError):
        unhappy_ratio(G(3, []), [0, 1, 0])


# ------------------------------------------------------------------------ pbnc

def pbnc_onehot_oracle(g, labels):
    """Naive edge-count evaluation of the balanced normalized cut."""
    a = g.adjacency()
    a_s = (a + a.T) / 2.0
    n = g.num_nodes
    total = 0.0
    for k in set(labels):
        members = [i for i in range(n) if labels[i] == k]
        cut_pos = sum(a_s[i, j] for i in members for j in range(n)
                      if labels[j] != k and a_s[i, j] > 0)
        within_neg = sum(-a_s[i, j] for i in members for j in members
                         if a_s[i, j] < 0)
        vol = sum(abs(a_s[i, j]) for i in members for j in range(n))
        if vol > 0:
            total += (cut_pos + within_neg) / vol
    return total


def test_pbnc_one_hot_equals_combinatorial_exhaustive():
    inst = ssbm(8, 2, 0.8, 0.8, eta=0.25, seed=3)
    g = inst.graph
    for bits in itertools.product([0, 1], repeat=7):
        labels = np.array((0,) + bits)
        soft = SoftAssignment.from_labels(labels, 2)
        assert pbnc_loss(g, soft) == pytest.approx(
            pbnc_onehot_oracle(g, list(labels)), abs=1e-12)


def test_pbnc_single_cluster_closed_form():
    g = undirected(4, [(0, 1, 1.0), (1, 2, -2.0), (2, 3, 1.0)])
    soft = SoftAssignment(np.ones((4, 1)))
    neg_mass = 2.0  # unordered negative magnitude
    degree_mass = 2 * (1 + 2 + 1)
    assert pbnc_loss(g, soft) == pytest.approx(2 * neg_mass / degree_mass)


def test_pbnc_perfectly_balanced_partition_zero():
    labels = [0, 0, 0, 1, 1, 1]
    edges = []
    for u in range(6):
        for v in range(u + 1, 6):
            edges.append((u, v, 1.0 if labels[u] == labels[v] else -1.0))
    g = undirected(6, edges)
    assert pbnc_loss(g, SoftAssignment.from_labels(np.array(labels), 2)) == 0.0


def test_soft_assignment_validation():
    with pytest.raises(ValueError):
        SoftAssignment(np.array([[0.5, 0.4]]))
    with pytest.raises(ValueError):
        SoftAssignment(np.array([[1.2, -0.2]]))


def test_soft_assignment_from_labels_rejects_labels_outside_range():
    # a negative label would index the last column, one >= k past the end
    with pytest.raises(ValueError, match=r"labels must lie in \[0, 2\)"):
        SoftAssignment.from_labels([-1, 0, 1])
    with pytest.raises(ValueError, match=r"labels must lie in \[0, 2\)"):
        SoftAssignment.from_labels([0, 1, 2], num_clusters=2)
    assert SoftAssignment.from_labels([0, 1, 1], num_clusters=3).P.shape == (3, 3)


# -------------------------------------------------------------- flow imbalance

def test_prob_imbalance_fully_imbalanced_pair():
    g = G(4, [(0, 2, 1.0), (0, 3, 1.0), (1, 2, 1.0)])
    labels = np.array([0, 0, 1, 1])
    assert prob_imbalance(g, SoftAssignment.from_labels(labels, 2)) == 1.0


def test_prob_imbalance_symmetric_zero():
    g = undirected(6, [(0, 3, 1.0), (1, 4, 1.0), (2, 5, 1.0)])
    rng = stream(4)
    p = rng.random((6, 3))
    p /= p.sum(axis=1, keepdims=True)
    assert prob_imbalance(g, SoftAssignment(p)) == pytest.approx(0.0, abs=1e-12)


def test_prob_imbalance_cyclic_dsbm_is_one():
    inst = dsbm(meta_graph("cycle", 3, eta=0.0), 90, 3, 0.3, seed=0)
    soft = SoftAssignment.from_labels(inst.labels, 3)
    # eta=0: all cross flow goes forward, within-cluster flow is k=l
    assert prob_imbalance(inst.graph, soft) == pytest.approx(1.0)


def test_prob_imbalance_column_permutation_invariant():
    inst = dsbm(meta_graph("cycle", 3, eta=0.2), 60, 3, 0.2, seed=1)
    rng = stream(5)
    p = rng.random((60, 3))
    p /= p.sum(axis=1, keepdims=True)
    base = prob_imbalance(inst.graph, SoftAssignment(p))
    for perm in itertools.permutations(range(3)):
        assert prob_imbalance(inst.graph, SoftAssignment(p[:, perm])) == \
            pytest.approx(base, abs=1e-12)


def test_prob_imbalance_needs_two_clusters():
    with pytest.raises(ValueError):
        prob_imbalance(G(2, [(0, 1, 1.0)]), SoftAssignment(np.ones((2, 1))))


# ---------------------------------------------------------- balanced triangles

def triangle_brute_force(g):
    a = g.adjacency()
    a_s = (a + a.T) / 2.0
    np.fill_diagonal(a_s, 0.0)
    n = g.num_nodes
    balanced = total = 0
    for i, j, k in itertools.combinations(range(n), 3):
        if a_s[i, j] and a_s[j, k] and a_s[i, k]:
            total += 1
            negs = sum(1 for w in (a_s[i, j], a_s[j, k], a_s[i, k]) if w < 0)
            balanced += negs % 2 == 0
    return balanced, total


def dense_balanced_triangle_ratio(g):
    """The dense n x n trace form the sparse wedge count replaced."""
    a = g.adjacency()
    a_s = (a + a.T) / 2.0
    np.fill_diagonal(a_s, 0.0)
    pos, neg = (a_s > 0).astype(np.float64), (a_s < 0).astype(np.float64)
    pp = pos @ pos
    nn = neg @ neg
    t0 = np.trace(pos @ pp) / 6.0
    t1 = np.trace(neg @ pp) / 2.0
    t2 = np.trace(pos @ nn) / 2.0
    t3 = np.trace(neg @ nn) / 6.0
    total = t0 + t1 + t2 + t3
    if round(total) == 0:
        raise ValueError("graph has no triangles")
    return float((t0 + t2) / total)


def test_triangle_examples():
    tri = undirected(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    tri_neg = undirected(3, [(0, 1, -1.0), (1, 2, 1.0), (0, 2, 1.0)])
    two = undirected(5, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
                         (2, 3, -1.0), (3, 4, 1.0), (2, 4, 1.0)])
    # directed edges, a self-loop and a cancelling reciprocal pair: the
    # support is {01, 12, 02, 23, 13} minus the cancelled 23
    mixed = G(4, [(0, 1, 1.0), (2, 1, -0.5), (0, 2, 2.0), (0, 0, -1.0),
                  (2, 3, 1.5), (3, 2, -1.5), (1, 3, -1.0)])
    for g, want in ((tri, 1.0), (tri_neg, 0.0), (two, 0.5), (mixed, 0.0)):
        assert balanced_triangle_ratio(g) == want
        assert dense_balanced_triangle_ratio(g) == want


def test_triangle_matches_brute_force():
    for seed in range(5):
        inst = ssbm(25, 2, 0.4, 0.4, eta=0.3, seed=seed)
        balanced, total = triangle_brute_force(inst.graph)
        if total == 0:
            continue
        assert balanced_triangle_ratio(inst.graph) == pytest.approx(
            balanced / total, abs=1e-12)
        assert balanced_triangle_ratio(inst.graph) == \
            dense_balanced_triangle_ratio(inst.graph)


def test_triangle_matches_dense_traces():
    graphs = [ssbm(200, 3, 0.1, 0.05, eta=0.1, seed=s).graph for s in range(2)]
    graphs += [sdsbm(f1_meta(0.1), 300, 0.05, eta=0.1, seed=s).graph for s in range(2)]
    graphs += [pol_ssbm(300, 2, 0.05, eta=0.1, seed=s).graph for s in range(2)]
    graphs.append(dsbm(meta_graph("cycle", 3), 150, 3, 0.1, seed=0).graph)
    for g in graphs:
        assert balanced_triangle_ratio(g) == dense_balanced_triangle_ratio(g)


def test_triangle_counts_exact_in_any_wedge_step(monkeypatch):
    # steps of one wedge, a few and more than a graph holds give the same counts
    from sdnet import metrics
    graphs = [sdsbm(f1_meta(0.1), 300, 0.05, eta=0.1, seed=0).graph,
              pol_ssbm(300, 2, 0.05, eta=0.1, seed=1).graph]
    for g in graphs:
        want = dense_balanced_triangle_ratio(g)
        for wedges in (1, 7, 1000, 1 << 30):
            monkeypatch.setattr(metrics, "WEDGES", wedges)
            assert balanced_triangle_ratio(g) == want


def test_triangle_traced_bytes_per_edge():
    # holding every wedge at once once traced 356 bytes per edge here
    import tracemalloc
    n = 20_000
    g = sdsbm(f1_meta(0.2), n, 20.0 / n, eta=0.2, seed=1).graph
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        ratio = balanced_triangle_ratio(g)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert 0.0 < ratio < 1.0 and g.num_edges > 190_000
    assert peak <= 120 * g.num_edges, f"{peak / g.num_edges:.1f} bytes per edge"


def test_triangle_no_triangles_error():
    for g in (undirected(3, [(0, 1, 1.0), (1, 2, 1.0)]), G(0, []),
              # the cancelled pair 0-2 leaves a path, not a triangle
              G(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (2, 0, -1.0)])):
        for fn in (balanced_triangle_ratio, dense_balanced_triangle_ratio):
            with pytest.raises(ValueError, match="graph has no triangles"):
                fn(g)


def test_metric_report():
    rep = MetricReport("ari", 0.5, 100)
    assert rep.name == "ari" and rep.value == 0.5 and rep.support == 100
