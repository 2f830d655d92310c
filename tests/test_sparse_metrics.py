"""The edge-list forms of pbnc_loss and prob_imbalance against the dense
n x n formulas they replace, their bits at any BLAS thread count, and
their memory."""

import numpy as np

from sdnet.generators import dsbm, meta_graph, sdsbm, f1_meta
from sdnet.graph import SignedDirectedGraph, symmetric_pairs
from sdnet.metrics import SoftAssignment, pbnc_loss, prob_imbalance
from sdnet.rng import stream


def dense_pbnc(g, p):
    a = g.adjacency()
    a_s = (a + a.T) / 2.0
    a_pos = np.where(a_s > 0, a_s, 0.0)
    a_neg = np.where(a_s < 0, -a_s, 0.0)
    d_pos = a_pos.sum(axis=1)
    d_bar = d_pos + a_neg.sum(axis=1)
    total = 0.0
    for k in range(p.shape[1]):
        x = p[:, k]
        vol = float(x @ (d_bar * x))
        if vol == 0.0:
            continue
        total += (float(x @ (d_pos * x) - x @ (a_pos @ x)) + float(x @ (a_neg @ x))) / vol
    return total


def dense_prob_imbalance(g, p):
    w = p.T @ np.abs(g.adjacency()) @ p
    k = p.shape[1]
    total = 0.0
    for i in range(k):
        for j in range(i + 1, k):
            if w[i, j] + w[j, i] > 0:
                total += abs(w[i, j] - w[j, i]) / (w[i, j] + w[j, i])
    return 2.0 * total / (k * (k - 1))


def one_product_prob_imbalance(g, p):
    """prob_imbalance with W formed by one product over every edge."""
    k = p.shape[1]
    w = (p[g.src] * np.abs(g.weight)[:, None]).T @ p[g.dst]
    i, j = np.triu_indices(k, 1)
    denom = w[i, j] + w[j, i]
    ratio = np.abs(w[i, j] - w[j, i]) / np.where(denom > 0, denom, 1.0)
    return float(2.0 * np.cumsum(ratio)[-1] / (k * (k - 1)))


def graphs():
    out = [sdsbm(f1_meta(0.1), 120, 0.15, eta=0.1, seed=s).graph for s in range(3)]
    out += [dsbm(meta_graph("cycle", 3, eta=0.2), 120, 3, 0.1, seed=s).graph
            for s in range(2)]
    # self-loops, a cancelling opposite-sign pair, isolated nodes, odd weights
    out.append(SignedDirectedGraph.from_edges(8, [
        (0, 0, 2.5), (0, 1, 1.75), (1, 0, -1.75), (1, 2, -0.3), (2, 1, 0.8),
        (2, 3, 4.0), (3, 3, -1.2), (4, 2, 0.6)]))
    return out


def soft(n, k, seed):
    x = stream(seed).random((n, k)) ** 3
    x[::7, 1:] = 0.0  # some one-hot rows
    return SoftAssignment(x / x.sum(axis=1, keepdims=True))


def test_pbnc_loss_matches_dense_formula():
    for i, g in enumerate(graphs()):
        for k in (2, 3, 4):
            p = soft(g.num_nodes, k, 10 * i + k)
            assert abs(pbnc_loss(g, p) - dense_pbnc(g, p.P)) <= 1e-12


def test_prob_imbalance_matches_dense_formula():
    for i, g in enumerate(graphs()):
        for k in (2, 3, 4):
            p = soft(g.num_nodes, k, 10 * i + k)
            assert abs(prob_imbalance(g, p) - dense_prob_imbalance(g, p.P)) <= 1e-12


def test_scores_do_not_depend_on_the_blas_thread_count(run_at_blas_threads):
    # BLAS dot products once moved pbnc_loss's last bits between 1 and 2
    # threads on these cluster-workload graphs
    from pathlib import Path
    script = f"""
import sys
sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})
from test_sparse_metrics import pbnc_loss, prob_imbalance, soft
from sdnet.pipeline import generate_from_params
for seed in range(4):
    g = generate_from_params({{"model": "sdsbm", "meta": "f1", "n": 1000, "p": 0.1,
                              "rho": 1.5, "eta": 0.1, "gamma": 0.1}}, seed=seed).graph
    p = soft(g.num_nodes, 3, seed)
    print(repr(pbnc_loss(g, p)), repr(prob_imbalance(g, p)))
"""
    single, two = (run_at_blas_threads(script, threads).splitlines() for threads in (1, 2))
    assert len(single) == 4
    assert single == two


def test_pbnc_loss_traced_bytes_per_cell():
    # a cells x K gather and BLAS dot products once traced 82 bytes per cell
    import tracemalloc
    n = 20_000
    g = sdsbm(f1_meta(0.2), n, 20.0 / n, eta=0.2, seed=1).graph
    cells = symmetric_pairs(g)[0].size
    p = soft(n, 3, 0)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        loss = pbnc_loss(g, p)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert loss > 0.0 and cells > 190_000
    assert peak <= 60 * cells, f"{peak / cells:.1f} bytes per cell"


def test_prob_imbalance_in_one_edge_block_keeps_the_one_product_bits():
    from sdnet.metrics import EDGE_BLOCK
    from sdnet.pipeline import generate_from_params
    cases = graphs() + [generate_from_params(
        {"model": "sdsbm", "meta": "f1", "n": 1000, "p": 0.1, "rho": 1.5,
         "eta": 0.1, "gamma": 0.1}, seed=0).graph]
    assert 40_000 < cases[-1].num_edges <= EDGE_BLOCK
    for i, g in enumerate(cases):
        for k in (2, 3, 5):
            p = soft(g.num_nodes, k, 10 * i + k)
            assert repr(prob_imbalance(g, p)) == repr(one_product_prob_imbalance(g, p.P))


def test_prob_imbalance_traced_bytes_per_edge():
    # two m x K gathers over every edge once traced 56 bytes per edge
    import tracemalloc
    n = 20_000
    g = sdsbm(f1_meta(0.2), n, 20.0 / n, eta=0.2, seed=1).graph
    p = soft(n, 3, 0)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        score = prob_imbalance(g, p)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert g.num_edges > 190_000
    assert peak < 25 * g.num_edges, f"{peak / g.num_edges:.1f} bytes per edge"
    # the blocks sum in another order than one product: the last bits move
    assert abs(score - one_product_prob_imbalance(g, p.P)) <= 1e-12
