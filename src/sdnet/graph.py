"""Core graph representation and node-feature construction.

A single COO edge-list type serves signed, directed and weighted graphs
alike. Undirected graphs are stored with both ordered pairs present and
equal weights; negative weights encode hostile/negative ties. Graphs are
immutable after construction and every operation here is a pure function.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

FEATURE_TAGS = ("given", "signed_spectral", "hermitian_spectral", "signed_degree")


@dataclass(frozen=True)
class SignedDirectedGraph:
    """Weighted directed graph in COO form.

    Self-loops are allowed; duplicate ordered pairs (multi-edges) are not.
    Weights must be finite and nonzero. ``features`` (n x d) and
    ``labels`` (length n) are optional node attributes.
    """

    num_nodes: int
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray
    features: np.ndarray | None = None
    labels: np.ndarray | None = None

    def __post_init__(self):
        n = int(self.num_nodes)
        if n < 0:
            raise ValueError("num_nodes must be nonnegative")
        src = np.asarray(self.src, dtype=np.int64).ravel()
        dst = np.asarray(self.dst, dtype=np.int64).ravel()
        weight = np.asarray(self.weight, dtype=np.float64).ravel()
        if not (src.shape == dst.shape == weight.shape):
            raise ValueError("src, dst and weight must have equal length")
        if src.size:
            if src.min() < 0 or dst.min() < 0 or src.max() >= n or dst.max() >= n:
                raise ValueError("edge endpoints out of range")
            if not np.all(np.isfinite(weight)) or np.any(weight == 0.0):
                raise ValueError("edge weights must be finite and nonzero")
            codes = src * n + dst
            if np.unique(codes).size != codes.size:
                raise ValueError("duplicate ordered edge (multi-edges not supported)")
        feats = self.features
        if feats is not None:
            feats = np.asarray(feats, dtype=np.float64)
            if feats.ndim != 2 or feats.shape[0] != n:
                raise ValueError("features must be an (num_nodes x d) matrix")
        labels = self.labels
        if labels is not None:
            labels = np.asarray(labels, dtype=np.int64).ravel()
            if labels.shape[0] != n:
                raise ValueError("labels must have length num_nodes")
        object.__setattr__(self, "num_nodes", n)
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)

    @classmethod
    def from_edges(cls, num_nodes, edges, features=None, labels=None):
        """Build a graph from an iterable of (src, dst, weight) triples."""
        edges = list(edges)
        if edges:
            arr = np.asarray(edges, dtype=np.float64)
            src, dst, w = arr[:, 0].astype(np.int64), arr[:, 1].astype(np.int64), arr[:, 2]
        else:
            src = dst = np.zeros(0, dtype=np.int64)
            w = np.zeros(0, dtype=np.float64)
        return cls(num_nodes, src, dst, w, features=features, labels=labels)

    @property
    def num_edges(self) -> int:
        return int(self.src.size)

    def edge_list(self) -> list[tuple[int, int, float]]:
        return [(int(u), int(v), float(w)) for u, v, w in zip(self.src, self.dst, self.weight)]

    def adjacency(self) -> np.ndarray:
        """Dense adjacency matrix A with A[u, v] = weight of edge u -> v."""
        a = np.zeros((self.num_nodes, self.num_nodes), dtype=np.float64)
        a[self.src, self.dst] = self.weight
        return a

    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row-sorted CSR view as (indptr, indices, data)."""
        order = np.lexsort((self.dst, self.src))
        indices = self.dst[order]
        data = self.weight[order]
        indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
        np.add.at(indptr, self.src[order] + 1, 1)
        np.cumsum(indptr, out=indptr)
        return indptr, indices, data

    def replace_edges(self, src, dst, weight) -> "SignedDirectedGraph":
        """New graph on the same node set (features/labels carried over)."""
        return SignedDirectedGraph(self.num_nodes, src, dst, weight,
                                   features=self.features, labels=self.labels)


@dataclass(frozen=True)
class SignedPair:
    """Positive/negative split of a signed graph.

    ``negative_part`` stores absolute weights; ``recombine`` restores the
    original signs.
    """

    positive_part: SignedDirectedGraph
    negative_part: SignedDirectedGraph

    def recombine(self) -> SignedDirectedGraph:
        pos, neg = self.positive_part, self.negative_part
        src = np.concatenate([pos.src, neg.src])
        dst = np.concatenate([pos.dst, neg.dst])
        w = np.concatenate([pos.weight, -neg.weight])
        order = np.lexsort((dst, src))
        return SignedDirectedGraph(pos.num_nodes, src[order], dst[order], w[order],
                                   features=pos.features, labels=pos.labels)


@dataclass(frozen=True)
class FeatureMatrix:
    """Dense node-feature matrix plus a tag naming how it was built."""

    values: np.ndarray
    construction_tag: str

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 2:
            raise ValueError("feature matrix must be 2-D")
        if not np.all(np.isfinite(vals)):
            raise ValueError("feature matrix entries must be finite")
        if self.construction_tag not in FEATURE_TAGS:
            raise ValueError(f"unknown construction tag {self.construction_tag!r}")
        object.__setattr__(self, "values", vals)


def is_signed(g: SignedDirectedGraph) -> bool:
    """True iff any edge weight is negative."""
    return bool(np.any(g.weight < 0))


def is_directed(g: SignedDirectedGraph) -> bool:
    """True iff some edge lacks a reciprocal edge of equal weight."""
    m = g.num_edges
    if m == 0:
        return False
    n = g.num_nodes
    codes = g.src * n + g.dst
    order = np.argsort(codes)
    sorted_codes = codes[order]
    sorted_w = g.weight[order]
    rev = g.dst * n + g.src
    pos = np.searchsorted(sorted_codes, rev)
    pos_ok = pos < m
    match = np.zeros(m, dtype=bool)
    match[pos_ok] = sorted_codes[pos[pos_ok]] == rev[pos_ok]
    if not match.all():
        return True
    return bool(np.any(sorted_w[pos] != g.weight))


def separate_positive_negative(g: SignedDirectedGraph) -> SignedPair:
    """Split edges by sign; negative weights are stored as magnitudes."""
    pos_mask = g.weight > 0
    neg_mask = ~pos_mask
    pos = g.replace_edges(g.src[pos_mask], g.dst[pos_mask], g.weight[pos_mask])
    neg = g.replace_edges(g.src[neg_mask], g.dst[neg_mask], -g.weight[neg_mask])
    return SignedPair(pos, neg)


def _component_labels(g: SignedDirectedGraph) -> np.ndarray:
    """Union-find over the undirected support."""
    parent = np.arange(g.num_nodes, dtype=np.int64)

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for u, v in zip(g.src, g.dst):
        ru, rv = find(int(u)), find(int(v))
        if ru != rv:
            if ru < rv:
                parent[rv] = ru
            else:
                parent[ru] = rv
    return np.array([find(i) for i in range(g.num_nodes)], dtype=np.int64)


def largest_weakly_connected_component(
    g: SignedDirectedGraph,
) -> tuple[SignedDirectedGraph, np.ndarray]:
    """Largest component of the undirected support, densely reindexed.

    Returns the component graph and an index map (new id -> original id).
    Ties between equal-size components go to the one containing the
    smallest original node id.
    """
    if g.num_nodes == 0:
        return g, np.zeros(0, dtype=np.int64)
    roots = _component_labels(g)
    sizes = np.bincount(roots, minlength=g.num_nodes)
    best = sizes.max()
    # roots are the minimum id of their component, so the smallest
    # qualifying root is the required tie-break
    chosen = int(np.nonzero(sizes == best)[0].min())
    keep = np.nonzero(roots == chosen)[0]
    index_map = keep.astype(np.int64)
    new_id = -np.ones(g.num_nodes, dtype=np.int64)
    new_id[keep] = np.arange(keep.size)
    mask = new_id[g.src] >= 0
    feats = g.features[keep] if g.features is not None else None
    labels = g.labels[keep] if g.labels is not None else None
    sub = SignedDirectedGraph(
        keep.size,
        new_id[g.src[mask]],
        new_id[g.dst[mask]],
        g.weight[mask],
        features=feats,
        labels=labels,
    )
    return sub, index_map


def symmetric_pairs(g: SignedDirectedGraph):
    """Cells of the symmetrized support with both directed weights, in O(m).

    Returns (lo, hi, a_lh, a_hl): one entry per unordered node pair
    {lo, hi} (lo <= hi) joined by an edge in either direction, ordered by
    (lo, hi), with a_lh = A[lo, hi] and a_hl = A[hi, lo] (0 where there
    is no edge). A self-loop gives lo == hi and a_lh == a_hl == its
    weight, so it counts once. Reciprocal pairs whose weights cancel
    keep their cell, unlike the support of a summed A + A^T.
    """
    n = max(g.num_nodes, 1)
    lo = np.minimum(g.src, g.dst)
    hi = np.maximum(g.src, g.dst)
    cells, inv = np.unique(lo * n + hi, return_inverse=True)
    a_lh = np.zeros(cells.size)
    a_hl = np.zeros(cells.size)
    up = g.src <= g.dst
    a_lh[inv[up]] = g.weight[up]
    down = g.src >= g.dst
    a_hl[inv[down]] = g.weight[down]
    return cells // n, cells % n, a_lh, a_hl


def pair_row_sums(num_nodes: int, lo: np.ndarray, hi: np.ndarray,
                  values: np.ndarray) -> np.ndarray:
    """Row sums of the symmetric matrix with ``values`` at (lo, hi) and (hi, lo).

    A diagonal cell (lo == hi) is counted once.
    """
    off = lo != hi
    return (np.bincount(lo, values, minlength=num_nodes)
            + np.bincount(hi[off], values[off], minlength=num_nodes))


def symmetrized_adjacency(g: SignedDirectedGraph, absolute: bool = False) -> np.ndarray:
    """(A + A^T) / 2, optionally on absolute weights."""
    a = g.adjacency()
    if absolute:
        a = np.abs(a)
    return (a + a.T) / 2.0


def _fix_sign(vectors: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        i = int(np.argmax(np.abs(col)))
        if col[i] < 0:
            out[:, j] = -col
    return out


def _fix_phase(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its first nonzero entry is real positive."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        mags = np.abs(col)
        top = mags.max()
        if top == 0.0:
            continue
        i = int(np.argmax(mags > 1e-12 * top))
        out[:, j] = col * (np.conj(col[i]) / mags[i])
    return out


def signed_spectral_features(g: SignedDirectedGraph, k: int, tau: float = 0.25) -> FeatureMatrix:
    """Leading eigenvectors of the regularized symmetrized signed adjacency.

    The operator is A_s + tau * (dbar / n) * J where A_s = (A + A^T)/2,
    dbar is the mean absolute degree and J the all-ones matrix. Columns
    are unit-norm eigenvectors for the k largest eigenvalues, ordered by
    descending eigenvalue, each flipped so its largest-magnitude entry is
    positive.
    """
    n = g.num_nodes
    if n == 0:
        raise ValueError("cannot build spectral features on an empty graph")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    a_s = symmetrized_adjacency(g)
    dbar = float(np.abs(a_s).sum(axis=1).mean())
    reg = a_s + tau * (dbar / n) * np.ones((n, n))
    if not reg.any():
        warnings.warn("regularized adjacency is identically zero; "
                      "spectral features are degenerate", RuntimeWarning)
    vals, vecs = np.linalg.eigh(reg)
    top = vecs[:, ::-1][:, :k]
    return FeatureMatrix(_fix_sign(top), "signed_spectral")


def hermitian_spectral_features(g: SignedDirectedGraph, k: int) -> FeatureMatrix:
    """Stacked real/imaginary parts of top eigenvectors of i(A - A^T).

    Eigenvectors are ranked by absolute eigenvalue; ones whose eigenvalue
    is negligible relative to ||H||_F carry no imbalance information and
    are zeroed. Each kept column is rotated so its first nonzero entry is
    real positive; output is the n x 2k matrix [Re | Im].
    """
    n = g.num_nodes
    if n == 0:
        raise ValueError("cannot build spectral features on an empty graph")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    a = g.adjacency()
    h = 1j * (a - a.T)
    vals, vecs = np.linalg.eigh(h)
    order = np.argsort(-np.abs(vals), kind="stable")[:k]
    sel = vecs[:, order]
    scale = np.linalg.norm(h)
    keep = np.abs(vals[order]) > 1e-12 * scale
    sel = sel * keep[np.newaxis, :]
    sel = _fix_phase(sel)
    return FeatureMatrix(np.hstack([sel.real, sel.imag]), "hermitian_spectral")


def signed_degree_counts(g: SignedDirectedGraph) -> np.ndarray:
    """Raw n x 4 matrix of (out+, in+, out-, in-) absolute-weight degrees."""
    n = g.num_nodes
    counts = np.zeros((n, 4), dtype=np.float64)
    pos = g.weight > 0
    np.add.at(counts[:, 0], g.src[pos], g.weight[pos])
    np.add.at(counts[:, 1], g.dst[pos], g.weight[pos])
    np.add.at(counts[:, 2], g.src[~pos], -g.weight[~pos])
    np.add.at(counts[:, 3], g.dst[~pos], -g.weight[~pos])
    return counts


def signed_degree_features(g: SignedDirectedGraph) -> FeatureMatrix:
    """Standardized signed in/out degree features (constant columns -> 0)."""
    counts = signed_degree_counts(g)
    mean = counts.mean(axis=0)
    std = counts.std(axis=0)
    out = np.zeros_like(counts)
    nz = std > 0
    out[:, nz] = (counts[:, nz] - mean[nz]) / std[nz]
    return FeatureMatrix(out, "signed_degree")
