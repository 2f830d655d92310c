"""Clustering and classification metrics plus unsupervised objectives.

Covers partition agreement (adjusted Rand index), classification scores
(accuracy, macro F1, midrank AUC), the signed unhappy ratio, the
probabilistic balanced normalized cut, the probabilistic flow imbalance
score, and the balance-theory triangle statistic. All functions are pure
and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import SignedDirectedGraph, pair_row_sums, symmetric_pairs


@dataclass(frozen=True)
class SoftAssignment:
    """Row-stochastic n x K cluster-probability matrix."""

    P: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.P, dtype=np.float64)
        if p.ndim != 2 or p.shape[1] < 1:
            raise ValueError("P must be an n x K matrix")
        if not np.all(np.isfinite(p)) or np.any(p < 0):
            raise ValueError("P must be finite and nonnegative")
        if p.shape[0] and np.any(np.abs(p.sum(axis=1) - 1.0) > 1e-9):
            raise ValueError("rows of P must sum to 1")
        object.__setattr__(self, "P", p)

    @property
    def num_clusters(self) -> int:
        return int(self.P.shape[1])

    def hard_labels(self) -> np.ndarray:
        return np.argmax(self.P, axis=1).astype(np.int64)

    @classmethod
    def from_labels(cls, labels, num_clusters: int | None = None) -> "SoftAssignment":
        labels = np.asarray(labels, dtype=np.int64)
        k = int(labels.max()) + 1 if num_clusters is None else num_clusters
        p = np.zeros((labels.size, k))
        p[np.arange(labels.size), labels] = 1.0
        return cls(p)


@dataclass(frozen=True)
class MetricReport:
    """A named metric value with its sample support."""

    name: str
    value: float
    support: int


def _as_soft(p) -> SoftAssignment:
    return p if isinstance(p, SoftAssignment) else SoftAssignment(np.asarray(p))


def ari(a, b) -> float:
    """Hubert-Arabie adjusted Rand index via the contingency closed form."""
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    if a.shape != b.shape:
        raise ValueError("label arrays must have equal length")
    n = a.size
    if n < 2:
        raise ValueError("need at least two samples")
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1))
    np.add.at(table, (ai, bi), 1.0)

    def comb2(x):
        return x * (x - 1.0) / 2.0

    sum_cells = comb2(table).sum()
    sum_a = comb2(table.sum(axis=1)).sum()
    sum_b = comb2(table.sum(axis=0)).sum()
    expected = sum_a * sum_b / comb2(float(n))
    maximum = (sum_a + sum_b) / 2.0
    if maximum == expected:
        return 1.0
    return float((sum_cells - expected) / (maximum - expected))


def accuracy(pred, true) -> float:
    pred = np.asarray(pred).ravel()
    true = np.asarray(true).ravel()
    if pred.shape != true.shape:
        raise ValueError("prediction and truth must have equal length")
    if pred.size == 0:
        raise ValueError("need at least one sample")
    return float(np.mean(pred == true))


def macro_f1(pred, true, classes=None) -> float:
    """Unweighted mean of per-class F1; classes absent everywhere score 0."""
    pred = np.asarray(pred).ravel()
    true = np.asarray(true).ravel()
    if pred.shape != true.shape:
        raise ValueError("prediction and truth must have equal length")
    if classes is None:
        classes = np.unique(np.concatenate([pred, true]))
    scores = []
    for c in classes:
        tp = float(np.sum((pred == c) & (true == c)))
        fp = float(np.sum((pred == c) & (true != c)))
        fn = float(np.sum((pred != c) & (true == c)))
        denom = 2 * tp + fp + fn
        scores.append(2 * tp / denom if denom > 0 else 0.0)
    return float(np.mean(scores))


def auc(scores, true_binary) -> float:
    """Rank-statistic AUC; tied scores contribute one half (midranks)."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    y = np.asarray(true_binary).ravel().astype(np.int64)
    if scores.shape != y.shape:
        raise ValueError("scores and labels must have equal length")
    if not (np.any(y == 1) and np.any(y == 0)):
        raise ValueError("AUC needs both classes present")
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(scores.size, dtype=np.float64)
    sorted_scores = scores[order]
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    n_pos = float(np.sum(y == 1))
    n_neg = float(np.sum(y == 0))
    rank_sum = float(ranks[y == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def unhappy_ratio(g: SignedDirectedGraph, labels) -> float:
    """Fraction of edge mass violating the partition.

    Violations are positive edges across clusters and negative edges
    within clusters, weighted by |weight|.
    """
    labels = np.asarray(labels, dtype=np.int64).ravel()
    if labels.size != g.num_nodes:
        raise ValueError("labels length must equal node count")
    if g.num_edges == 0:
        raise ValueError("unhappy ratio is undefined on an empty edge set")
    same = labels[g.src] == labels[g.dst]
    pos = g.weight > 0
    bad = (pos & ~same) | (~pos & same)
    mass = np.abs(g.weight)
    return float(mass[bad].sum() / mass.sum())


def pbnc_loss(g: SignedDirectedGraph, assignment) -> float:
    """Probabilistic balanced normalized cut.

    With A_s = (A + A^T)/2 split into positive/negative parts and
    Dbar = D_pos + D_neg, sums over clusters
    [x^T (D_pos - A_pos) x + x^T A_neg x] / (x^T Dbar x) for x = P[:, k];
    clusters with zero probabilistic volume contribute 0.
    """
    soft = _as_soft(assignment)
    if soft.P.shape[0] != g.num_nodes:
        raise ValueError("assignment rows must equal node count")
    lo, hi, a_lh, a_hl = symmetric_pairs(g)
    a_s = (a_lh + a_hl) / 2.0
    a_pos = np.where(a_s > 0, a_s, 0.0)
    a_neg = np.where(a_s < 0, -a_s, 0.0)
    n = g.num_nodes
    d_pos = pair_row_sums(n, lo, hi, a_pos)
    d_bar = d_pos + pair_row_sums(n, lo, hi, a_neg)
    # x^T B x for a symmetric B stored per cell: off-diagonal cells twice
    twice = np.where(lo == hi, 1.0, 2.0)
    total = 0.0
    for k in range(soft.num_clusters):
        x = soft.P[:, k]
        vol = float(x @ (d_bar * x))
        if vol == 0.0:
            continue
        xx = twice * x[lo] * x[hi]
        cut_pos = float(x @ (d_pos * x) - xx @ a_pos)
        within_neg = float(xx @ a_neg)
        total += (cut_pos + within_neg) / vol
    return total


def prob_imbalance(g: SignedDirectedGraph, assignment) -> float:
    """Probabilistic flow imbalance score in [0, 1].

    W = P^T |A| P; pairwise imbalance |W_kl - W_lk| / (W_kl + W_lk)
    (0/0 -> 0) averaged over unordered cluster pairs. Training maximizes
    this score, i.e. the objective is its negation.
    """
    soft = _as_soft(assignment)
    k = soft.num_clusters
    if k < 2:
        raise ValueError("flow imbalance needs at least 2 clusters")
    if soft.P.shape[0] != g.num_nodes:
        raise ValueError("assignment rows must equal node count")
    p = soft.P
    w = (p[g.src] * np.abs(g.weight)[:, None]).T @ p[g.dst]
    total = 0.0
    for i in range(k):
        for j in range(i + 1, k):
            denom = w[i, j] + w[j, i]
            if denom > 0:
                total += abs(w[i, j] - w[j, i]) / denom
    return float(2.0 * total / (k * (k - 1)))


def _signed_support(g: SignedDirectedGraph) -> tuple[np.ndarray, np.ndarray]:
    """Symmetrized positive/negative 0-1 supports, diagonal removed."""
    a = g.adjacency()
    a_s = (a + a.T) / 2.0
    np.fill_diagonal(a_s, 0.0)
    return (a_s > 0).astype(np.float64), (a_s < 0).astype(np.float64)


def balanced_triangle_ratio(g: SignedDirectedGraph) -> float:
    """Fraction of triangles with an even number of negative edges.

    Triangles live on the symmetrized support; reciprocal edges whose
    weights cancel exactly drop out of the support. Counting uses matrix
    traces, exact for 0-1 supports at this scale.
    """
    pos, neg = _signed_support(g)
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
