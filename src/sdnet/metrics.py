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

# wedges searched per step of balanced_triangle_ratio, which bounds the
# step's temporaries (about 3 MB)
WEDGES = 1 << 16
# edges per product of prob_imbalance's flow matrix, which bounds its
# gathered rows (2 x 1.5 MB at K = 3)
EDGE_BLOCK = 1 << 16


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

    @classmethod
    def from_labels(cls, labels, num_clusters: int | None = None) -> "SoftAssignment":
        labels = np.asarray(labels, dtype=np.int64)
        k = int(labels.max()) + 1 if num_clusters is None else num_clusters
        if np.any((labels < 0) | (labels >= k)):
            raise ValueError(f"labels must lie in [0, {k})")
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
    if pred.size == 0:
        raise ValueError("need at least one sample")
    if classes is None:
        classes = np.unique(np.concatenate([pred, true]))
    if len(classes) == 0:
        raise ValueError("need at least one class")
    scores = []
    for c in classes:
        tp = float(np.sum((pred == c) & (true == c)))
        fp = float(np.sum((pred == c) & (true != c)))
        fn = float(np.sum((pred != c) & (true == c)))
        denom = 2 * tp + fp + fn
        scores.append(2 * tp / denom if denom > 0 else 0.0)
    return float(np.mean(scores))


def auc(scores, true_binary) -> float:
    """Rank-statistic AUC; tied scores contribute one half (midranks).

    Labels are 0 and 1 (or False and True); any other value raises
    ValueError.
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    y = np.asarray(true_binary).ravel()
    if scores.shape != y.shape:
        raise ValueError("scores and labels must have equal length")
    bad = (y != 0) & (y != 1)
    if bad.any():
        raise ValueError(f"AUC labels must be 0 or 1, not {y[bad].tolist()[0]!r}")
    if not (np.any(y == 1) and np.any(y == 0)):
        raise ValueError("AUC needs both classes present")
    # a tie group holding 1-based ranks end - count + 1 .. end shares their mean
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    ranks = (ends - (counts - 1) / 2.0)[group]
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
    clusters with zero probabilistic volume contribute 0. The numerator
    is x^T D_pos x - x^T A_s x (A_pos - A_neg = A_s); each sum is an
    einsum, over the cells one column of P at a time.
    """
    soft = _as_soft(assignment)
    if soft.P.shape[0] != g.num_nodes:
        raise ValueError("assignment rows must equal node count")
    lo, hi, a_lh, a_hl = symmetric_pairs(g)
    a_s = (a_lh + a_hl) / 2.0
    del a_lh, a_hl
    n, p = g.num_nodes, soft.P
    d_pos = pair_row_sums(n, lo, hi, np.where(a_s > 0, a_s, 0.0))
    d_bar = d_pos + pair_row_sums(n, lo, hi, np.where(a_s < 0, -a_s, 0.0))
    vol = np.einsum("i,ik,ik->k", d_bar, p, p)
    cut = np.einsum("i,ik,ik->k", d_pos, p, p)
    # x^T A_s x over cells: off-diagonal cells count twice
    np.multiply(a_s, 2.0, out=a_s, where=lo != hi)
    total = 0.0
    for k in np.flatnonzero(vol):
        total += (cut[k] - np.einsum("c,c,c->", a_s, p[lo, k], p[hi, k])) / vol[k]
    return float(total)


def prob_imbalance(g: SignedDirectedGraph, assignment) -> float:
    """Probabilistic flow imbalance score in [0, 1].

    W = P^T |A| P; pairwise imbalance |W_kl - W_lk| / (W_kl + W_lk)
    (0/0 -> 0) averaged over unordered cluster pairs. Training maximizes
    this score, i.e. the objective is its negation. W sums one BLAS
    product per EDGE_BLOCK edges in edge order (a graph with at most
    EDGE_BLOCK edges takes one product); a product's entries do not
    change with its thread split.
    """
    soft = _as_soft(assignment)
    k = soft.num_clusters
    if k < 2:
        raise ValueError("flow imbalance needs at least 2 clusters")
    if soft.P.shape[0] != g.num_nodes:
        raise ValueError("assignment rows must equal node count")
    p = soft.P
    w = np.zeros((k, k))
    for lo in range(0, g.num_edges, EDGE_BLOCK):
        hi = lo + EDGE_BLOCK
        src_p = p[g.src[lo:hi]]
        src_p *= np.abs(g.weight[lo:hi])[:, None]
        w += src_p.T @ p[g.dst[lo:hi]]
    i, j = np.triu_indices(k, 1)
    denom = w[i, j] + w[j, i]
    ratio = np.abs(w[i, j] - w[j, i]) / np.where(denom > 0, denom, 1.0)  # 0/0 -> 0
    # pair by pair in row order: np.sum rounds differently from 8 pairs (K = 5) on
    return float(2.0 * np.cumsum(ratio)[-1] / (k * (k - 1)))


def balanced_triangle_ratio(g: SignedDirectedGraph) -> float:
    """Fraction of triangles with an even number of negative edges.

    Triangles live on the symmetrized support; reciprocal edges whose
    weights cancel exactly drop out of the support. Each support edge
    points from its endpoint of lower (degree, id) rank to the higher, so
    a node has O(sqrt m) out-neighbours; every pair of out-edges of a
    node is a wedge, closed when its far ends are an edge too (a binary
    search over the sorted edge codes). O(m^1.5) time, exact counts. The
    wedges are searched WEDGES at a time (a run of edges whose wedges add
    up to at most that many, or one edge), so beside O(m) edge arrays only
    one run's wedges are held.
    """
    n = g.num_nodes
    lo, hi, a_lh, a_hl = symmetric_pairs(g)
    a_s = (a_lh + a_hl) / 2.0
    del a_lh, a_hl
    cut = (lo != hi) & (a_s != 0.0)
    lo, hi, neg = lo[cut], hi[cut], (a_s[cut] < 0).astype(np.int8)
    del a_s, cut
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(np.bincount(lo, minlength=n) + np.bincount(hi, minlength=n),
                    kind="stable")] = np.arange(n)
    u, w = rank[lo], rank[hi]
    del lo, hi, rank
    u, w = np.minimum(u, w), np.maximum(u, w)
    codes = u * n + w
    order = np.argsort(codes)
    codes, w, neg = codes[order], w[order], neg[order]
    del order
    # edge e pairs with the later out-edges of its row: end[u] - e - 1 of them
    out = np.bincount(u, minlength=n)
    del u
    later = np.repeat(np.cumsum(out), out) - np.arange(codes.size) - 1
    wedges = np.cumsum(later)  # through each edge
    counts = np.zeros(4, dtype=np.int64)
    start = done = 0
    while start < codes.size:
        stop = max(int(np.searchsorted(wedges, done + WEDGES, side="right")), start + 1)
        k = later[start:stop]
        first = np.repeat(np.arange(start, stop), k)
        second = first + 1 + np.arange(first.size) - np.repeat(np.cumsum(k) - k, k)
        close = w[first] * n + w[second]
        at = np.minimum(np.searchsorted(codes, close), codes.size - 1)
        hit = codes[at] == close
        counts += np.bincount((neg[first] + neg[second] + neg[at])[hit], minlength=4)
        start, done = stop, wedges[stop - 1]
    total = counts.sum()
    if total == 0:
        raise ValueError("graph has no triangles")
    return float((counts[0] + counts[2]) / total)
