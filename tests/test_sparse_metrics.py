"""The edge-list forms of pbnc_loss and prob_imbalance against the dense
n x n formulas they replace."""

import numpy as np

from sdnet.generators import dsbm, meta_graph, sdsbm, f1_meta
from sdnet.graph import SignedDirectedGraph
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
