"""Core graph representation and node-feature construction.

A single COO edge-list type serves signed, directed and weighted graphs
alike. Undirected graphs are stored with both ordered pairs present and
equal weights; negative weights encode hostile/negative ties. A graph is
its node count and its edges only: node labels travel beside it (a
generator's ``GeneratedInstance.labels``, a labels CSV) and node features
are built from it (``FeatureMatrix``). Graphs are immutable after
construction and every operation here is a pure function, except
``standardize_columns``, which scales the tables it is given in place.

Weak components and the splitters' spanning forest share one routine:
Borůvka rounds over windows of the edges (``_component_roots``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import _blas


def integral(values, what: str) -> np.ndarray:
    """``values`` as an integer array, never truncated.

    Integer and boolean arrays come back as they are. Anything else is
    cast to int64 and must equal its cast: a fraction, NaN or inf raises
    ValueError naming ``what``.
    """
    values = np.asarray(values)
    if values.dtype.kind in "biu":
        return values
    with np.errstate(invalid="ignore"):  # NaN and inf are caught below
        cast = values.astype(np.int64)
    bad = cast != values
    if bad.any():
        raise ValueError(f"{what} must be integers, not {values[bad].tolist()[0]!r}")
    return cast


@dataclass(frozen=True)
class SignedDirectedGraph:
    """Weighted directed graph in COO form.

    Self-loops are allowed; duplicate ordered pairs (multi-edges) are not.
    Weights must be finite and nonzero. A graph holds only its edges: a
    generator's planted labels live in ``GeneratedInstance.labels``.
    """

    num_nodes: int
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray

    def __post_init__(self):
        n = int(self.num_nodes)
        if n < 0:
            raise ValueError("num_nodes must be nonnegative")
        src = integral(self.src, "edge endpoints").astype(np.int64, copy=False).ravel()
        dst = integral(self.dst, "edge endpoints").astype(np.int64, copy=False).ravel()
        weight = np.asarray(self.weight, dtype=np.float64).ravel()
        if not (src.shape == dst.shape == weight.shape):
            raise ValueError("src, dst and weight must have equal length")
        if src.size:
            if src.min() < 0 or dst.min() < 0 or src.max() >= n or dst.max() >= n:
                raise ValueError("edge endpoints out of range")
            if not np.all(np.isfinite(weight)) or np.any(weight == 0.0):
                raise ValueError("edge weights must be finite and nonzero")
            # strictly ascending codes are distinct without a sort
            codes = src * n + dst
            if not np.all(codes[1:] > codes[:-1]):
                codes = np.sort(codes)
                if np.any(codes[1:] == codes[:-1]):
                    raise ValueError("duplicate ordered edge (multi-edges not supported)")
        object.__setattr__(self, "num_nodes", n)
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "weight", weight)

    @classmethod
    def from_edges(cls, num_nodes, edges):
        """Build a graph from an iterable of (src, dst, weight) triples."""
        edges = list(edges)
        if edges:  # a column each, so ids above 2**53 survive
            src, dst, w = (np.array(column) for column in zip(*edges, strict=True))
        else:
            src = dst = np.zeros(0, dtype=np.int64)
            w = np.zeros(0, dtype=np.float64)
        return cls(num_nodes, src, dst, w)

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

    def replace_edges(self, src, dst, weight) -> "SignedDirectedGraph":
        """New graph on the same node set."""
        return SignedDirectedGraph(self.num_nodes, src, dst, weight)


@dataclass(frozen=True)
class FeatureMatrix:
    """Dense, finite n x d node-feature matrix."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 2:
            raise ValueError("feature matrix must be 2-D")
        if not np.all(np.isfinite(vals)):
            raise ValueError("feature matrix entries must be finite")
        object.__setattr__(self, "values", vals)


def is_signed(g: SignedDirectedGraph) -> bool:
    """True iff any edge weight is negative."""
    return bool(np.any(g.weight < 0))


def is_directed(g: SignedDirectedGraph) -> bool:
    """True iff some edge lacks a reciprocal edge of equal weight.

    A node whose out- and in-degree counts differ settles it at once.
    Otherwise the graph is undirected exactly when its reversed edges are
    its edges: the reversed codes v * n + u, sorted, must equal the codes
    u * n + v in ascending order (sorted only when stored out of order),
    each with the same weight. No cell of ``symmetric_pairs`` is formed.
    """
    n = g.num_nodes
    if not np.array_equal(np.bincount(g.src, minlength=n),
                          np.bincount(g.dst, minlength=n)):
        return True
    codes, weight = g.src * n + g.dst, g.weight
    if not np.all(codes[1:] > codes[:-1]):
        order = np.argsort(codes)
        codes, weight = codes[order], weight[order]
    reverse = g.dst * n + g.src
    order = np.argsort(reverse)
    return not (np.array_equal(reverse[order], codes)
                and np.array_equal(g.weight[order], weight))


def _jump_to_roots(parent: np.ndarray) -> np.ndarray:
    """Follow a forest of parent pointers until every node points at a root.

    ``parent`` must be acyclic apart from roots pointing at themselves;
    each jump halves the remaining path lengths.
    """
    while True:
        jumped = parent[parent]
        if np.array_equal(jumped, parent):
            return parent
        parent = jumped


def _boruvka(n, cu, cv, order=None, chosen=None):
    """Borůvka rounds over edges given in rank order (Borůvka 1926).

    ``cu`` and ``cv`` are the components of the edges' ends. Each round
    drops the edges inside a component, takes each component's
    minimum-rank edge, hooks the component to that edge's other end and
    jumps pointers to the new roots; it at least halves the number of
    components. With ``chosen``, ``order`` holds the edges' indices and
    each round appends those of its hooking edges to ``chosen``. Returns
    the final root of every component label.
    """
    relabel = np.arange(n)
    while True:
        live = cu != cv
        cu, cv = cu[live], cv[live]
        if not cu.size:
            return relabel
        rank = np.arange(cu.size)  # edges stay in rank order
        best = np.full(n, cu.size)
        np.minimum.at(best, cu, rank)
        np.minimum.at(best, cv, rank)
        comps = np.nonzero(best < cu.size)[0]
        e = best[comps]
        other = np.where(cu[e] == comps, cv[e], cu[e])
        parent = np.arange(n, dtype=np.int64)
        parent[comps] = other
        # two components that chose the same edge point at each other:
        # the smaller one becomes the root
        mutual = comps[(parent[other] == comps) & (comps < other)]
        parent[mutual] = mutual
        if chosen is not None:
            order = order[live]
            chosen.append(order[e])
        root = _jump_to_roots(parent)
        cu, cv = root[cu], root[cv]
        relabel = root[relabel]


def _component_roots(n, src, dst, windows, chosen=None):
    """Root of every node's weak component: ``_boruvka`` over each window
    of the edges ``src``, ``dst`` (a slice; an index array with ``chosen``)
    in turn, its ends relabelled by the components earlier windows formed."""
    label = np.arange(n)
    for window in windows:
        root = _boruvka(n, label[src[window]], label[dst[window]], window, chosen)
        label = root[label]
    return label


def largest_weakly_connected_component(
    g: SignedDirectedGraph,
) -> tuple[SignedDirectedGraph, np.ndarray]:
    """Largest component of the undirected support, densely reindexed.

    Returns the component graph and an index map (new id -> original id);
    ``labels[index_map]`` carries node labels over. Ties between
    equal-size components go to the one containing the smallest original
    node id. A graph whose largest component holds every node comes back
    as itself, with the identity map.
    """
    n = g.num_nodes
    if n == 0:
        return g, np.zeros(0, dtype=np.int64)
    # every step-th edge, about 2n of them, joins most nodes cheaply first
    step = max(g.num_edges // (2 * n), 1)
    roots = _component_roots(n, g.src, g.dst, (slice(None, None, step), slice(None)))
    sizes = np.bincount(roots, minlength=n)
    best = sizes.max()
    if best == n:  # graphs are immutable, so g itself is the copy
        return g, np.arange(n, dtype=np.int64)
    # the first node in a largest component is its smallest id
    chosen = roots[np.argmax(sizes[roots] == best)]
    keep = np.nonzero(roots == chosen)[0]
    index_map = keep.astype(np.int64)
    new_id = -np.ones(n, dtype=np.int64)
    new_id[keep] = np.arange(keep.size)
    mask = new_id[g.src] >= 0
    sub = SignedDirectedGraph(keep.size, new_id[g.src[mask]], new_id[g.dst[mask]],
                              g.weight[mask])
    return sub, index_map


def index_dtype(*sizes: int):
    """int32 when every size given fits below 2**31, int64 otherwise: the
    index type of arrays whose values stay below those sizes."""
    return np.int32 if max(sizes) < 2 ** 31 else np.int64


def symmetric_pairs(g: SignedDirectedGraph):
    """Cells of the symmetrized support with both directed weights, in O(m).

    Returns (lo, hi, a_lh, a_hl): one entry per unordered node pair
    {lo, hi} (lo <= hi) joined by an edge in either direction, ordered by
    (lo, hi), with a_lh = A[lo, hi] and a_hl = A[hi, lo] (0 where there
    is no edge). A self-loop gives lo == hi and a_lh == a_hl == its
    weight, so it counts once. Reciprocal pairs whose weights cancel
    keep their cell, unlike the support of a summed A + A^T. The cell
    ends are ``index_dtype(n, m)`` (int32 below 2**31 nodes and edges),
    and so is each edge's cell number while the weights are placed.
    """
    n = max(g.num_nodes, 1)
    index = index_dtype(n, g.num_edges)
    ranked, order = _sorted_pair_codes(g)
    new = np.empty(ranked.size, dtype=bool)
    new[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=new[1:])
    cells = ranked[new]
    del ranked
    cell = np.empty(new.size, dtype=index)  # each edge's cell
    number = np.cumsum(new, dtype=index)
    del new
    number -= 1
    cell[order] = number
    del order, number
    lo = np.empty(cells.size, dtype=index)
    hi = np.empty(cells.size, dtype=index)
    np.floor_divide(cells, n, out=lo, casting="unsafe")
    np.remainder(cells, n, out=hi, casting="unsafe")
    del cells
    a_lh = np.zeros(lo.size)
    a_hl = np.zeros(lo.size)
    up = g.src <= g.dst
    a_lh[cell[up]] = g.weight[up]
    down = np.less_equal(g.dst, g.src, out=up)
    a_hl[cell[down]] = g.weight[down]
    return lo, hi, a_lh, a_hl


def _sorted_pair_codes(g: SignedDirectedGraph):
    """Unordered-pair codes lo * n + hi of the edges, ascending, and their order.

    Returns (ranked, order) with ranked = codes[order]. A code appears
    twice for a reciprocal pair and once otherwise; which of the two
    edges comes first is left to the (unstable) sort.
    """
    n = max(g.num_nodes, 1)
    codes = np.minimum(g.src, g.dst) * n + np.maximum(g.src, g.dst)
    order = np.argsort(codes)
    return codes[order], order


def pair_row_sums(num_nodes: int, lo: np.ndarray, hi: np.ndarray,
                  values: np.ndarray) -> np.ndarray:
    """Row sums of the symmetric matrix with ``values`` at (lo, hi) and (hi, lo).

    A diagonal cell (lo == hi) is counted once.
    """
    off = lo != hi
    return (np.bincount(lo, values, minlength=num_nodes)
            + np.bincount(hi[off], values[off], minlength=num_nodes))


def _fix_sign(vectors: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive."""
    lead = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
    return np.where(lead < 0, -vectors, vectors)


def _fix_phase(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its first nonzero entry is real positive; an
    all-zero column is left as it is."""
    mags = np.abs(vectors)
    top = mags.max(axis=0)
    cols = np.flatnonzero(top)
    rows = np.argmax(mags[:, cols] > 1e-12 * top[cols], axis=0)
    out = vectors.copy()
    out[:, cols] *= np.conj(vectors[rows, cols]) / mags[rows, cols]
    return out


def _feature_adjacency(g: SignedDirectedGraph, k: int) -> np.ndarray:
    """Dense adjacency of ``g`` for k spectral feature columns (1 <= k <= n)."""
    n = g.num_nodes
    if n == 0:
        raise ValueError("cannot build spectral features on an empty graph")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    return g.adjacency()


def _skew_adjacency(g: SignedDirectedGraph, k: int) -> np.ndarray:
    """S = A - A^T in one n x n array, with the bits of ``a - a.T``.

    Each ordered pair is an edge at most once, so subtracting the weights
    at the transposed cells leaves every entry as A[u, v] - A[v, u].
    """
    s = _feature_adjacency(g, k)
    s[g.dst, g.src] -= g.weight
    return s


def _signed_operator(g: SignedDirectedGraph, k: int, tau: float) -> np.ndarray:
    """A_s + tau * (dbar / n) * J of ``signed_spectral_features`` in one
    n x n array, with the bits of ``(a + a.T) / 2 + c``: each ordered pair
    is an edge at most once, so adding the weights at the transposed
    cells leaves every entry as A[u, v] + A[v, u]."""
    reg = _feature_adjacency(g, k)
    reg[g.dst, g.src] += g.weight
    reg /= 2.0
    dbar = float(np.abs(reg).sum(axis=1).mean())
    reg += tau * (dbar / g.num_nodes)  # the J term as a scalar: c * 1.0 == c
    return reg


def signed_spectral_features(g: SignedDirectedGraph, k: int, tau: float = 0.25) -> FeatureMatrix:
    """Leading eigenvectors of the regularized symmetrized signed adjacency.

    The operator is A_s + tau * (dbar / n) * J where A_s = (A + A^T)/2,
    dbar is the mean absolute degree and J the all-ones matrix. Columns
    are unit-norm eigenvectors for the k largest eigenvalues, ordered by
    descending eigenvalue, each flipped so its largest-magnitude entry is
    positive. The operator is built once; only those k pairs are solved
    (``_blas.top_eigh``), on a copy of it, and checked against it by the rule
    every eigensolve shares (``_blas.check_residual``): a residual above
    1e-10 * max(1, ||operator||_inf) raises NumericError.
    """
    reg = _signed_operator(g, k, tau)
    if not reg.any():
        warnings.warn("regularized adjacency is identically zero; "
                      "spectral features are degenerate", RuntimeWarning)
    vals, top = _blas.top_eigh(reg.copy(), k)
    _blas.check_residual(np.linalg.norm(reg @ top - top * vals, axis=0),
                         float(np.abs(reg).sum(axis=1).max()),
                         f"signed spectral feature eigenpairs (n={g.num_nodes}, k={k})")
    return FeatureMatrix(_fix_sign(top))


def _hermitian_vectors(g: SignedDirectedGraph, k: int) -> np.ndarray:
    """Phase-fixed complex columns of ``hermitian_spectral_features``.

    With S = A - A^T real antisymmetric, (iS)^2 = S^T S, and iS pairs
    each eigenvalue +sigma with -sigma, whose vector is the conjugate.
    So the top p = ceil(k/2) pairs are solved in real arithmetic: the top
    2p eigenvectors Q of S^T S span them, and the 2p x 2p Hermitian
    i Q^T S Q (Rayleigh-Ritz) gives the p positive sigma and their
    vectors v = Q r. Columns are [v_1, conj v_1, v_2, conj v_2, ...][:k]:
    an odd k keeps the +sigma member of its last pair. S is built once
    and kept beside S^T S while its top 2p pairs are solved
    (``_blas.top_eigh``), for the Rayleigh-Ritz step and the residual check
    (``_blas.check_residual``).
    """
    s = _skew_adjacency(g, k)
    n = g.num_nodes
    p = (k + 1) // 2
    q = _blas.top_eigh(s.T @ s, min(2 * p, n))[1]
    sigma, r = np.linalg.eigh(1j * (q.T @ s @ q))
    sigma, v = sigma[::-1][:p], q @ r[:, ::-1][:, :p]
    keep = sigma > 1e-12 * np.sqrt(_blas.sum_squares(s))
    kept = v[:, keep]
    s_kept = s @ kept.real + 1j * (s @ kept.imag)  # no complex copy of s
    _blas.check_residual(np.linalg.norm(1j * s_kept - kept * sigma[keep], axis=0),
                         float(np.abs(s).sum(axis=1).max()),
                         f"Hermitian feature eigenpairs (n={n}, k={k})")
    v = _fix_phase(v * keep[np.newaxis, :])
    return np.stack([v, v.conj()], axis=2).reshape(n, 2 * p)[:, :k]


def hermitian_spectral_features(g: SignedDirectedGraph, k: int) -> FeatureMatrix:
    """Stacked real/imaginary parts of top eigenvectors of i(A - A^T).

    Eigenvectors are ranked by absolute eigenvalue. The spectrum is
    symmetric, so they come in pairs: the vector v of +sigma, rotated so
    its first nonzero entry is real positive, then conj v, the vector of
    -sigma; an odd k keeps v of its last pair. Pairs whose sigma is
    negligible relative to ||A - A^T||_F carry no imbalance information
    and are zeroed. Output is the n x 2k matrix [Re | Im]. The pairs come
    from the top 2 * ceil(k/2) pairs of one real symmetric eigenproblem
    (see ``_hermitian_vectors``), solved beside A - A^T; a residual
    above 1e-10 * max(1, ||A - A^T||_inf) raises NumericError.
    """
    z = _hermitian_vectors(g, k)
    return FeatureMatrix(np.hstack([z.real, z.imag]))


def signed_degree_counts(g: SignedDirectedGraph) -> np.ndarray:
    """Raw n x 4 matrix of (out+, in+, out-, in-) absolute-weight degrees.

    Each column sums its edges' clipped weights in edge order; an edge of
    the other sign adds an exact +0.0.
    """
    n = g.num_nodes
    pos, neg = np.maximum(g.weight, 0.0), np.maximum(-g.weight, 0.0)
    counts = np.empty((n, 4), dtype=np.float64)  # bincount of no edges is int64
    for col, (ends, weight) in enumerate(((g.src, pos), (g.dst, pos),
                                          (g.src, neg), (g.dst, neg))):
        counts[:, col] = np.bincount(ends, weight, minlength=n)
    return counts


def standardize_columns(x: np.ndarray, *more: np.ndarray) -> np.ndarray:
    """Standardize ``x`` and each table in ``more`` in place by the column
    mean and std of ``x``; returns ``x``. Columns constant in ``x`` become
    +0.0 in every table, and so do all when ``x`` has no rows (no mean)."""
    mean, std = (x.mean(axis=0), x.std(axis=0)) if len(x) else (0.0, np.zeros(x.shape[1]))
    nz = std > 0
    for t in (x, *more):
        t -= mean
        np.divide(t, std, out=t, where=nz)
        t[:, ~nz] = 0.0
    return x


def signed_degree_features(g: SignedDirectedGraph) -> FeatureMatrix:
    """Standardized signed in/out degree features (constant columns -> 0)."""
    return FeatureMatrix(standardize_columns(signed_degree_counts(g)))
