"""Seeded synthetic graph generators.

Implements the four block-model families used for benchmarking signed
and directed clustering methods (signed SBM, polarized signed SBM,
directed SBM with meta-graph structure and ambient filling, and the
signed directed SBM), plus a signed Erdos-Renyi graph.

All generators are pure functions of their parameters and a seed; one
independent Philox stream is opened per call, so identical inputs give
bit-identical edge lists. Block membership is contiguous by node index.
Self-loops are never generated.

Every family draws its support with one block-pair sampler, in O(K^2 +
n + m) time and memory rather than O(n^2). The stream is laid out as:

1. Block pairs (k, l) in row-major order, only l >= k for the undirected
   families. Within a pair the present cells are found by geometric
   skipping (Batagelj & Brandes, "Efficient generation of large random
   networks", Phys. Rev. E 71, 2005): Geometric(q) gaps between
   consecutive present cells, drawn in chunks. A pair with probability
   0 draws nothing.
2. Then one uniform per present edge (per unordered pair for the
   undirected families), in ascending (src, dst) order, decides its sign
   or sign flip. It is drawn even at flip probability 0, so instances
   that share a seed but differ only in the flip rate have identical
   edge sets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import SignedDirectedGraph
from .rng import stream

META_KINDS = ("cycle", "path", "complete", "star", "custom")


@dataclass(frozen=True)
class BlockSizes:
    """Nondecreasing block sizes summing to the node count."""

    sizes: np.ndarray

    def __post_init__(self):
        sizes = np.asarray(self.sizes, dtype=np.int64).ravel()
        if sizes.size == 0 or np.any(sizes <= 0):
            raise ValueError("all block sizes must be positive")
        if np.any(np.diff(sizes) < 0):
            raise ValueError("block sizes must be nondecreasing")
        object.__setattr__(self, "sizes", sizes)

    def labels(self) -> np.ndarray:
        """Contiguous block assignment: block b occupies an index interval."""
        return np.repeat(np.arange(self.sizes.size, dtype=np.int64), self.sizes)


@dataclass(frozen=True)
class MetaGraph:
    """Inter-cluster edge pattern F plus its ambient-filled version.

    ``F_filled`` equals F with structural zeros (entries outside the
    pattern, zero for every noise level) replaced by 0.5; with an ambient
    cluster the last row/column is 0 in F and 0.5 in F_filled.
    """

    F: np.ndarray
    F_filled: np.ndarray
    kind: str

    def __post_init__(self):
        f = np.asarray(self.F, dtype=np.float64)
        ff = np.asarray(self.F_filled, dtype=np.float64)
        if f.ndim != 2 or f.shape[0] != f.shape[1] or f.shape != ff.shape:
            raise ValueError("meta-graph matrices must be square and congruent")
        if self.kind not in META_KINDS:
            raise ValueError(f"unknown meta-graph kind {self.kind!r}")
        if np.any(np.abs(f) > 1) or np.any(np.abs(ff) > 1):
            raise ValueError("meta-graph entries must lie in [-1, 1]")
        if self.kind != "custom" and (np.any(f < 0) or np.any(ff < 0)):
            raise ValueError("unsigned meta-graph entries must lie in [0, 1]")
        object.__setattr__(self, "F", f)
        object.__setattr__(self, "F_filled", ff)

    @property
    def num_clusters(self) -> int:
        return int(self.F.shape[0])


@dataclass(frozen=True)
class GeneratedInstance:
    """A generated graph, its planted labels, and the full parameter record."""

    graph: SignedDirectedGraph
    labels: np.ndarray
    params: dict

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64).ravel()
        if labels.shape[0] != self.graph.num_nodes:
            raise ValueError("labels length must equal node count")
        object.__setattr__(self, "labels", labels)


def block_sizes(n: int, K: int, rho: float = 1.0) -> BlockSizes:
    """Block sizes for n nodes, K blocks and largest/smallest ratio rho.

    With rho == 1 the first K-1 blocks get floor(n/K) nodes and the last
    the remainder. With rho > 1 the sizes follow a geometric progression
    with per-step ratio rho**(1/(K-1)); the first size is
    floor(n*(1-r)/(1-r**K)), each next is floor(r * previous), and the
    last block absorbs the remainder.
    """
    if K < 1:
        raise ValueError("K must be at least 1")
    if n < K:
        raise ValueError("need at least one node per block")
    if rho < 1:
        raise ValueError("rho must be >= 1")
    if K == 1:
        return BlockSizes(np.array([n], dtype=np.int64))
    r0 = rho ** (1.0 / (K - 1))
    if r0 == 1.0:  # exact rho=1, or so close the root rounds to 1
        base = n // K
        sizes = [base] * (K - 1) + [n - (K - 1) * base]
    else:
        sizes = [int(np.floor(n * (1 - r0) / (1 - r0**K)))]
        for _ in range(1, K - 1):
            sizes.append(int(np.floor(r0 * sizes[-1])))
        sizes.append(n - sum(sizes))
    if min(sizes) <= 0:
        raise ValueError(f"infeasible block sizes {sizes} for n={n}, K={K}, rho={rho}")
    return BlockSizes(np.asarray(sizes, dtype=np.int64))


def _check_prob(name, value, upper=1.0):
    if not 0.0 <= value <= upper:
        raise ValueError(f"{name} must lie in [0, {upper}], got {value}")


def _present_cells(rng, cells: int, q: float) -> np.ndarray:
    """Ascending indices in [0, cells), each present independently w.p. q.

    Geometric skipping: the gaps between consecutive present cells are
    Geometric(q), drawn in chunks sized to the expected count plus four
    standard deviations, so work and memory are O(cells drawn); q >= 1
    gives every cell and q <= 0 draws nothing.
    """
    if cells <= 0 or q <= 0:
        return np.zeros(0, dtype=np.int64)
    q = min(q, 1.0)
    found = []
    last = -1
    while last < cells - 1:
        left = cells - 1 - last
        mean = left * q
        chunk = min(left, int(mean + 4.0 * np.sqrt(mean)) + 16)
        # a gap past the block's end ends it; capping keeps cumsum in range
        gaps = np.minimum(rng.geometric(q, size=chunk), left + 1)
        pos = last + np.cumsum(gaps)
        found.append(pos[pos < cells])
        last = int(pos[-1])
    return np.concatenate(found)


def _block_pairs(rng, sizes, prob, directed: bool):
    """Support of a block model: (src, dst) arrays sorted by (src, dst).

    Block k holds a contiguous run of ``sizes[k]`` nodes (empty blocks are
    allowed). Block pairs (k, l) are visited in row-major order, only
    l >= k when undirected. Within a pair the cells (i, j) are taken in
    row-major order, skipping i == j on a diagonal block and keeping only
    i < j there when undirected; each cell is present independently with
    probability ``prob[k, l]`` (see ``_present_cells``).
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum(sizes)])
    n = max(int(starts[-1]), 1)
    codes = []
    for k, sk in enumerate(sizes.tolist()):
        for l in range(0 if directed else k, sizes.size):
            sl = int(sizes[l])
            if k != l:
                pos = _present_cells(rng, sk * sl, prob[k, l])
                row, col = np.divmod(pos, max(sl, 1))
            elif directed:
                pos = _present_cells(rng, sk * (sk - 1), prob[k, l])
                row, col = np.divmod(pos, max(sk - 1, 1))
                col += col >= row
            else:
                pos = _present_cells(rng, sk * (sk - 1) // 2, prob[k, l])
                r = np.arange(sk, dtype=np.int64)
                row_start = r * (2 * sk - r - 1) // 2
                row = np.searchsorted(row_start, pos, side="right") - 1
                col = pos - row_start[row] + row + 1
            codes.append((starts[k] + row) * n + starts[l] + col)
    return np.divmod(np.sort(np.concatenate(codes)), n)


def _both_directions(u, v, w, n: int):
    """Both ordered copies of each undirected pair of n nodes, sorted by
    (src, dst) through their distinct codes src * n + dst."""
    src = np.concatenate([u, v])
    dst = np.concatenate([v, u])
    ww = np.concatenate([w, w])
    order = np.argsort(src * n + dst)
    return src[order], dst[order], ww[order]


def ssbm(n: int, K: int, p_in: float, p_out: float, rho: float = 1.0,
         eta_in: float = 0.0, eta_out: float = 0.0, *,
         eta: float | None = None, seed: int = 0) -> GeneratedInstance:
    """Signed stochastic block model (undirected).

    ``eta`` sets both flip rates at once. Within-block edges start +1,
    across-block edges -1; both ordered copies of each pair are emitted
    with equal weight.
    """
    if eta is not None:
        eta_in = eta_out = eta
    _check_prob("p_in", p_in)
    _check_prob("p_out", p_out)
    _check_prob("eta_in", eta_in, 0.5)
    _check_prob("eta_out", eta_out, 0.5)
    sizes = block_sizes(n, K, rho)
    labels = sizes.labels()
    rng = stream(seed)
    prob = np.where(np.eye(K, dtype=bool), p_in, p_out)
    u, v = _block_pairs(rng, sizes.sizes, prob, directed=False)
    same = labels[u] == labels[v]
    sign = np.where(same, 1.0, -1.0)
    flip = rng.random(u.size) < np.where(same, eta_in, eta_out)
    src, dst, ww = _both_directions(u, v, np.where(flip, -sign, sign), n)
    params = {"model": "ssbm", "n": n, "k": K, "p_in": p_in, "p_out": p_out,
              "rho": rho, "eta_in": eta_in, "eta_out": eta_out, "seed": seed}
    return GeneratedInstance(SignedDirectedGraph(n, src, dst, ww), labels, params)


def erdos_renyi(n: int, p: float, seed: int = 0) -> GeneratedInstance:
    """Signed Erdos-Renyi graph: undirected, each pair present w.p. p with
    a uniform +-1 sign. Every node carries label 0."""
    _check_prob("p", p)
    rng = stream(seed)
    u, v = _block_pairs(rng, [n], np.full((1, 1), p), directed=False)
    w = np.where(rng.random(u.size) < 0.5, 1.0, -1.0)
    src, dst, ww = _both_directions(u, v, w, n)
    params = {"model": "erdos_renyi", "n": n, "p": p, "seed": seed}
    return GeneratedInstance(SignedDirectedGraph(n, src, dst, ww),
                             np.zeros(n, dtype=np.int64), params)


def pol_ssbm(n: int, r: int, p: float, rho: float = 1.0, eta: float = 0.0,
             N: int | None = None, seed: int = 0) -> GeneratedInstance:
    """Polarized SSBM: r two-block SSBMs planted in a signed ER background.

    Community sizes come from the block-size recursion over r communities
    with ratio rho and r*N total community nodes (default N = n // (2r)).
    Every pair is present w.p. p. A pair inside one community takes the
    SSBM sign (+1 within a half, -1 across the halves, flipped w.p. eta);
    any other pair takes a uniform sign. That is the distribution of
    planting each community's SSBM over the signed ER background.
    Labels: community c contributes clusters 2c and 2c+1; leftover
    (ambient) nodes get cluster id 2r.
    """
    if r < 1:
        raise ValueError("need at least one community")
    if N is None:
        N = n // (2 * r)
    _check_prob("p", p)
    _check_prob("eta", eta, 0.5)
    if r * N > n:
        raise ValueError(f"community budget r*N = {r * N} exceeds n = {n}")
    comm_sizes = block_sizes(r * N, r, rho)
    # blocks: the two halves of each community, then the ambient nodes
    halves = [block_sizes(int(size), 2, rho).sizes for size in comm_sizes.sizes]
    sizes = np.concatenate(halves + [[n - r * N]])
    labels = np.repeat(np.arange(2 * r + 1, dtype=np.int64), sizes)
    rng = stream(seed)
    u, v = _block_pairs(rng, sizes, np.full((2 * r + 1, 2 * r + 1), p), directed=False)
    lu, lv = labels[u], labels[v]
    planted = (lu // 2 == lv // 2) & (lu < 2 * r)
    sign = np.where(lu == lv, 1.0, -1.0)
    x = rng.random(u.size)
    w = np.where(planted, np.where(x < eta, -sign, sign), np.where(x < 0.5, 1.0, -1.0))
    src, dst, ww = _both_directions(u, v, w, n)
    params = {"model": "pol_ssbm", "n": n, "r": r, "p": p, "rho": rho,
              "eta": eta, "community_nodes": N, "seed": seed}
    return GeneratedInstance(SignedDirectedGraph(n, src, dst, ww), labels, params)


def _meta_core(kind, K, eta, rng):
    """F and its structural pattern mask for a K-cluster meta-graph."""
    F = np.zeros((K, K))
    pattern = np.zeros((K, K), dtype=bool)
    idx = np.arange(K)
    if kind == "cycle":
        for k in range(K):
            F[k, (k + 1) % K] += 1 - eta
            F[k, (k - 1) % K] += eta
            F[k, k] += 0.5
            pattern[k, [(k + 1) % K, (k - 1) % K, k]] = True
    elif kind == "path":
        for k in range(K):
            if k + 1 < K:
                F[k, k + 1] = 1 - eta
                pattern[k, k + 1] = True
            if k - 1 >= 0:
                F[k, k - 1] = eta
                pattern[k, k - 1] = True
            F[k, k] = 0.5
            pattern[k, k] = True
    elif kind == "complete":
        pattern[:] = True
        F[idx, idx] = 0.5
        for k in range(K):
            for l in range(k + 1, K):
                F[k, l] = eta if rng.random() < 0.5 else 1 - eta
                F[l, k] = 1 - F[k, l]
    elif kind == "star":
        center = (K - 1) // 2
        F[idx, idx] = 0.5
        pattern[idx, idx] = True
        pattern[center, :] = True
        pattern[:, center] = True
        for l in range(K):
            if l != center:
                F[center, l] = 1 - eta if l % 2 == 1 else eta
                F[l, center] = 1 - F[center, l]
    else:
        raise ValueError(f"unsupported meta-graph kind {kind!r}")
    return F, pattern


def meta_graph(kind: str, K: int, eta: float = 0.0, ambient: bool = False,
               seed: int = 0) -> MetaGraph:
    """Meta-graph of the given kind on K clusters.

    With ``ambient`` the pattern is built on the first K-1 clusters (the
    cycle closes mod K-1) and the last row/column is 0 in F and 0.5 in
    the filled matrix. The ``complete`` kind draws its upper-triangular
    entries at random, so it takes a seed.
    """
    _check_prob("eta", eta, 0.5)
    if K < 2:
        raise ValueError("meta-graph needs K >= 2")
    if ambient and kind == "cycle" and K < 3:
        raise ValueError("ambient cycle needs K >= 3")
    core_k = K - 1 if ambient else K
    if core_k < 2:
        raise ValueError(f"kind {kind!r} needs at least 2 non-ambient clusters")
    rng = stream(seed)
    F_core, pattern = _meta_core(kind, core_k, eta, rng)
    filled_core = F_core.copy()
    filled_core[~pattern] = 0.5
    if not ambient:
        return MetaGraph(F_core, filled_core, kind)
    F = np.zeros((K, K))
    F[:core_k, :core_k] = F_core
    filled = np.full((K, K), 0.5)
    filled[:core_k, :core_k] = filled_core
    return MetaGraph(F, filled, kind)


def custom_meta(F) -> MetaGraph:
    """Wrap an explicit (possibly signed) meta-graph matrix; no filling."""
    F = np.asarray(F, dtype=np.float64)
    return MetaGraph(F, F.copy(), "custom")


def f1_meta(gamma: float = 0.0) -> MetaGraph:
    """3-cluster signed directed meta-graph with tunable imbalance gamma."""
    _check_prob("gamma", gamma)
    g = gamma
    F = np.array([
        [0.5, g, -g],
        [1 - g, 0.5, -0.5],
        [-1 + g, -0.5, 0.5],
    ])
    return custom_meta(F)


def f2_meta(gamma: float = 0.0) -> MetaGraph:
    """4-cluster signed directed meta-graph with tunable imbalance gamma."""
    _check_prob("gamma", gamma)
    g = gamma
    F = np.array([
        [0.5, g, -g, -g],
        [1 - g, 0.5, -0.5, -g],
        [-1 + g, -0.5, 0.5, -g],
        [-1 + g, -1 + g, -1 + g, 0.5],
    ])
    return custom_meta(F)


def dsbm(meta: MetaGraph, n: int, K: int, p: float, rho: float = 1.0,
         seed: int = 0) -> GeneratedInstance:
    """Directed stochastic block model driven by a filled meta-graph.

    Every ordered pair (i, j), i != j, with cluster pair (k, l) receives
    an edge i -> j independently w.p. p * F_filled[k, l]; weights are +1.
    """
    _check_prob("p", p)
    if meta.num_clusters != K:
        raise ValueError(f"meta-graph has {meta.num_clusters} clusters, expected {K}")
    ff = meta.F_filled
    if p * ff.max() > 1 + 1e-12:
        raise ValueError("p * max(F_filled) must not exceed 1")
    sizes = block_sizes(n, K, rho)
    labels = sizes.labels()
    rng = stream(seed)
    src, dst = _block_pairs(rng, sizes.sizes, p * ff, directed=True)
    w = np.ones(src.size, dtype=np.float64)
    params = {"model": "dsbm", "n": n, "k": K, "p": p, "rho": rho,
              "seed": seed, "meta_kind": meta.kind,
              "meta_f": meta.F.tolist(),
              "meta_f_filled": meta.F_filled.tolist()}
    return GeneratedInstance(SignedDirectedGraph(n, src, dst, w), labels, params)


def sdsbm(meta: MetaGraph, n: int, p: float, rho: float = 1.0,
          eta: float = 0.0, seed: int = 0) -> GeneratedInstance:
    """Signed directed stochastic block model.

    Ordered pair (i, j) with cluster pair (k, l) gets an edge w.p.
    p * |F[k, l]| carrying sign(F[k, l]) (zero entries mean no edge);
    every edge sign then flips independently w.p. eta.
    """
    _check_prob("p", p)
    _check_prob("eta", eta, 0.5)
    F = meta.F
    K = meta.num_clusters
    if p * np.abs(F).max() > 1 + 1e-12:
        raise ValueError("p * max|F| must not exceed 1")
    sizes = block_sizes(n, K, rho)
    labels = sizes.labels()
    rng = stream(seed)
    src, dst = _block_pairs(rng, sizes.sizes, p * np.abs(F), directed=True)
    base = np.where(F < 0, -1.0, 1.0)[labels[src], labels[dst]]
    flip = rng.random(src.size) < eta
    w = np.where(flip, -base, base)
    params = {"model": "sdsbm", "n": n, "p": p, "rho": rho, "eta": eta,
              "seed": seed, "meta_kind": meta.kind,
              "meta_f": meta.F.tolist(),
              "meta_f_filled": meta.F_filled.tolist()}
    return GeneratedInstance(SignedDirectedGraph(n, src, dst, w), labels, params)
