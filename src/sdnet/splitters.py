"""Node-level mask generation and link-level task splitting.

Node splits are stratified per class with a floor-based rounding rule
and a minimum of one node per requested nonzero fraction. Link splits
cover six tasks: sign prediction (SP), direction prediction (DP),
existence prediction (EP) and the three/four/five-class hybrids
(3C/4C/5C).

Conventions shared by the link tasks:

* A query pair matching more than one class condition (a reciprocal
  edge pair in DP/3C/4C/5C) is discarded from all folds; its edges stay
  in the observed training graph and the pair is reported in the split
  metadata.
* Direction-bearing queries are emitted with a random orientation
  (probability 1/2 of presenting the stored edge reversed), which keeps
  the forward/reverse classes balanced.
* Non-edge negatives are sampled uniformly without replacement; their
  count is the mean size of the nonempty edge classes (floored).
* Self-loops never become queries; they always stay observable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import SignedDirectedGraph, _jump_to_roots, symmetric_pairs
from .rng import stream

LINK_TASKS = ("SP", "DP", "EP", "3C", "4C", "5C")

TASK_ALIASES = {
    "sign": "SP",
    "direction": "DP",
    "existence": "EP",
    "three_class_digraph": "3C",
    "four_class_signed_digraph": "4C",
    "five_class_signed_digraph": "5C",
}

LABEL_NAMES = {
    "SP": ("positive", "negative"),
    "DP": ("forward", "reverse"),
    "EP": ("edge", "nonedge"),
    "3C": ("forward", "reverse", "nonedge"),
    "4C": ("forward_positive", "reverse_positive",
           "forward_negative", "reverse_negative"),
    "5C": ("forward_positive", "reverse_positive",
           "forward_negative", "reverse_negative", "nonedge"),
}


def canonical_task(task: str) -> str:
    name = TASK_ALIASES.get(task.lower(), task.upper())
    if name not in LINK_TASKS:
        raise ValueError(f"unknown link task {task!r}")
    return name


@dataclass(frozen=True)
class NodeSplit:
    """Boolean train/val/test/seed masks, one column per replicate."""

    train: np.ndarray
    val: np.ndarray
    test: np.ndarray
    seed: np.ndarray
    num_splits: int

    def __post_init__(self):
        masks = []
        for name in ("train", "val", "test", "seed"):
            m = np.asarray(getattr(self, name), dtype=bool)
            if m.ndim != 2 or m.shape[1] != self.num_splits:
                raise ValueError(f"{name} mask must be (num_nodes x num_splits)")
            masks.append(m)
        train, val, test, seedm = masks
        if np.any(train & val) or np.any(train & test) or np.any(val & test):
            raise ValueError("train/val/test masks must be pairwise disjoint")
        if np.any(seedm & ~train):
            raise ValueError("seed nodes must be training nodes")
        for name, m in zip(("train", "val", "test", "seed"), masks):
            object.__setattr__(self, name, m)


def _mask_counts(size: int, fracs: tuple[float, float, float]) -> list[int]:
    """Per-class counts for (train, val, test) under the rounding rule.

    Floors each fraction of the class size, bumps nonzero fractions to a
    minimum of one node, and resolves overflow by shrinking train, then
    val, then test. Raises when the minimums cannot all be honored.
    """
    counts = [max(int(np.floor(f * size)), 1) if f > 0 else 0 for f in fracs]
    while sum(counts) > size:
        for i in range(3):
            if counts[i] > 1:
                counts[i] -= 1
                break
        else:
            raise ValueError(
                f"class of size {size} is too small for fractions {fracs}")
    return counts


def node_split(labels, train_frac: float = 0.8, val_frac: float = 0.1,
               test_frac: float = 0.1, seed_frac: float = 0.0,
               num_splits: int = 1, seed: int = 0) -> NodeSplit:
    """Stratified train/val/test/seed masks, one replicate per column.

    Per class and replicate the class members are shuffled and assigned
    in order train -> val -> test using ``_mask_counts``; seed nodes are
    then drawn uniformly from that replicate's training members of the
    class (floor(seed_frac * class_size), at least 1 when positive, at
    most the training count).
    """
    labels = np.asarray(labels, dtype=np.int64).ravel()
    fracs = (train_frac, val_frac, test_frac)
    if any(f < 0 or f > 1 for f in fracs) or not 0 <= seed_frac <= 1:
        raise ValueError("fractions must lie in [0, 1]")
    if sum(fracs) > 1 + 1e-12:
        raise ValueError("train/val/test fractions must sum to at most 1")
    if seed_frac > train_frac:
        raise ValueError("seed_frac cannot exceed train_frac")
    if num_splits < 1:
        raise ValueError("need at least one replicate")
    n = labels.size
    rng = stream(seed)
    shape = (n, num_splits)
    train = np.zeros(shape, dtype=bool)
    val = np.zeros(shape, dtype=bool)
    test = np.zeros(shape, dtype=bool)
    seedm = np.zeros(shape, dtype=bool)
    classes = np.unique(labels)
    for rep in range(num_splits):
        for c in classes:
            members = np.nonzero(labels == c)[0]
            n_tr, n_va, n_te = _mask_counts(members.size, fracs)
            perm = members[rng.permutation(members.size)]
            train[perm[:n_tr], rep] = True
            val[perm[n_tr:n_tr + n_va], rep] = True
            test[perm[n_tr + n_va:n_tr + n_va + n_te], rep] = True
            if seed_frac > 0 and n_tr > 0:
                want = min(max(int(np.floor(seed_frac * members.size)), 1), n_tr)
                pick = perm[:n_tr][rng.permutation(n_tr)[:want]]
                seedm[pick, rep] = True
    return NodeSplit(train, val, test, seedm, num_splits)


@dataclass(frozen=True)
class LinkTaskSplit:
    """Query pairs with class labels per fold, plus the observable graph."""

    task: str
    train_pairs: np.ndarray
    train_labels: np.ndarray
    val_pairs: np.ndarray
    val_labels: np.ndarray
    test_pairs: np.ndarray
    test_labels: np.ndarray
    observed_graph: SignedDirectedGraph
    discarded_pairs: np.ndarray
    label_names: tuple[str, ...]

    def __post_init__(self):
        alphabet = len(self.label_names)
        folds = []
        for fold in ("train", "val", "test"):
            pairs = np.asarray(getattr(self, f"{fold}_pairs"), dtype=np.int64).reshape(-1, 2)
            labels = np.asarray(getattr(self, f"{fold}_labels"), dtype=np.int64).ravel()
            if pairs.shape[0] != labels.shape[0]:
                raise ValueError("pairs and labels must align")
            if labels.size and (labels.min() < 0 or labels.max() >= alphabet):
                raise ValueError("label outside the task alphabet")
            folds.append(pairs)
            object.__setattr__(self, f"{fold}_pairs", pairs)
            object.__setattr__(self, f"{fold}_labels", labels)
        every = np.concatenate(folds)
        if every.size:
            # equal codes sort next to each other, in fold order (stable);
            # repeats inside one fold are allowed, a code in two folds is not
            low = every.min()
            codes = (every[:, 0] - low) * (every.max() - low + 1) + (every[:, 1] - low)
            which = np.repeat(np.arange(3), [p.shape[0] for p in folds])
            order = np.argsort(codes, kind="stable")
            codes, which = codes[order], which[order]
            if np.any((codes[1:] == codes[:-1]) & (which[1:] != which[:-1])):
                raise ValueError("query pairs must be disjoint across folds")
        object.__setattr__(self, "discarded_pairs",
                           np.asarray(self.discarded_pairs, dtype=np.int64).reshape(-1, 2))


def spanning_forest(g: SignedDirectedGraph) -> np.ndarray:
    """Edge indices of a maximal-|weight| spanning forest of the undirected support.

    Every edge that is not a self-loop gets a distinct rank: descending
    |weight|, ties broken by (src, dst). Distinct ranks make the
    minimum-rank spanning forest unique, so it is exactly the forest
    Kruskal's greedy pass over that order keeps. It is found by Borůvka
    rounds: drop the edges inside a component, take each component's
    minimum-rank edge, hook the component to that edge's other end and
    jump pointers to the new roots. Each round at least halves the
    number of components. Returns the n - #components chosen indices as
    an ascending int64 array; self-loops are never chosen.
    """
    # the order of np.lexsort((dst, src, -|w|)) in two cheaper sorts: by the
    # distinct pair codes, then stably by -|w|
    order = np.argsort(g.src * g.num_nodes + g.dst)
    order = order[np.argsort(-np.abs(g.weight[order]), kind="stable")]
    order = order[g.src[order] != g.dst[order]]
    # component of each end; edges stay in rank order, so position is rank
    cu, cv = g.src[order], g.dst[order]
    chosen = [np.zeros(0, dtype=np.int64)]
    while True:
        live = cu != cv
        if not live.any():
            return np.unique(np.concatenate(chosen))
        order, cu, cv = order[live], cu[live], cv[live]
        best = np.full(g.num_nodes, order.size)
        pos = np.arange(order.size)
        np.minimum.at(best, cu, pos)
        np.minimum.at(best, cv, pos)
        comps = np.nonzero(best < order.size)[0]
        e = best[comps]
        other = np.where(cu[e] == comps, cv[e], cu[e])
        parent = np.arange(g.num_nodes, dtype=np.int64)
        parent[comps] = other
        # two components that chose the same edge point at each other:
        # the smaller one becomes the root
        mutual = comps[(parent[other] == comps) & (comps < other)]
        parent[mutual] = mutual
        chosen.append(order[e])
        root = _jump_to_roots(parent)
        cu, cv = root[cu], root[cv]


def _in_sorted(codes: np.ndarray, sorted_codes: np.ndarray) -> np.ndarray:
    """Membership of each code in an ascending int64 array.

    A binary search; np.isin deduplicates both sides first, which costs
    several times more on large code arrays.
    """
    idx = np.searchsorted(sorted_codes, codes)
    hit = idx < sorted_codes.size
    hit[hit] = sorted_codes[idx[hit]] == codes[hit]
    return hit


def _sample_nonedges(rng, n, count, forbidden, ordered):
    """Uniform without-replacement non-edge pairs (ordered or u < v).

    ``forbidden`` is an ascending array of distinct codes u * n + v that
    may not be drawn. Candidates are consecutive pairs (u, v) of
    ``rng.integers(n)`` draws, accepted in draw order unless u == v, the
    code is forbidden or it was accepted before. Each batch draws the
    2 * need integers that the still missing ``need`` pairs could use at
    best, so the stream stops exactly where a pair-by-pair loop would.
    Returns a (count x 2) int64 array.
    """
    if ordered:
        available = n * (n - 1) - forbidden.size
    else:
        available = n * (n - 1) // 2 - forbidden.size
    if count > available:
        raise ValueError(f"insufficient non-edges: need {count}, have {available}")
    picked = np.zeros(0, dtype=np.int64)
    while picked.size < count:
        draw = rng.integers(n, size=2 * (count - picked.size))
        u, v = draw[0::2], draw[1::2]
        loop = u == v
        u, v = u[~loop], v[~loop]
        if not ordered:
            u, v = np.minimum(u, v), np.maximum(u, v)
        codes = u * n + v
        codes = codes[~_in_sorted(codes, forbidden) & ~_in_sorted(codes, np.sort(picked))]
        _, first = np.unique(codes, return_index=True)
        picked = np.concatenate([picked, codes[np.sort(first)]])
    return np.column_stack(np.divmod(picked, n))


def _enumerate_candidates(g: SignedDirectedGraph, task: str, rng):
    """Candidate (query, label) samples plus discarded ambiguous pairs.

    Returns int64 arrays (pairs, labels, underlying, discarded): k x 2
    queries, their k labels, the k x 2 stored edges they came from
    ((-1, -1) for non-edges) and the d x 2 reciprocal pairs (a < b)
    that were discarded.
    """
    n = g.num_nodes
    discarded = np.zeros((0, 2), dtype=np.int64)
    if task in ("SP", "EP"):
        edge = g.src != g.dst
        under = np.column_stack([g.src[edge], g.dst[edge]])
        if task == "SP":
            return under, np.where(g.weight[edge] > 0, 0, 1), under, discarded
        forbidden = np.sort(under[:, 0] * n + under[:, 1])
        non = _sample_nonedges(rng, n, under.shape[0], forbidden, ordered=True)
        queries = np.concatenate([under, non])
        labels = np.repeat(np.array([0, 1]), [under.shape[0], non.shape[0]])
        underlying = np.concatenate([under, np.full_like(non, -1)])
        return queries, labels, underlying, discarded

    # DP / 3C / 4C / 5C share the direction-bearing enumeration over the
    # unordered pairs, in ascending (a, b) order
    lo, hi, a_lh, a_hl = symmetric_pairs(g)
    off = lo != hi
    lo, hi, a_lh, a_hl = lo[off], hi[off], a_lh[off], a_hl[off]
    both = (a_lh != 0) & (a_hl != 0)
    discarded = np.column_stack([lo[both], hi[both]])
    a, b, a_lh, a_hl = lo[~both], hi[~both], a_lh[~both], a_hl[~both]
    fwd = a_lh != 0
    under = np.column_stack([np.where(fwd, a, b), np.where(fwd, b, a)])
    w = np.where(fwd, a_lh, a_hl)
    flip = rng.random(a.size) < 0.5
    queries = np.where(flip[:, None], under[:, ::-1], under)
    labels = flip.astype(np.int64)
    if task in ("4C", "5C"):
        labels += np.where(w < 0, 2, 0)
    if task in ("3C", "5C"):
        nonedge_label = 2 if task == "3C" else 4
        present = np.bincount(labels, minlength=nonedge_label)[:nonedge_label]
        nonempty = int(np.count_nonzero(present))
        count = labels.size // nonempty if nonempty else 0
        non = _sample_nonedges(rng, n, count, lo * n + hi, ordered=False)
        swap = rng.random(count) < 0.5
        non = np.where(swap[:, None], non[:, ::-1], non)
        queries = np.concatenate([queries, non])
        labels = np.concatenate([labels, np.full(count, nonedge_label)])
        under = np.concatenate([under, np.full_like(non, -1)])
    return queries, labels, under, discarded


def link_class_split(g: SignedDirectedGraph, task: str, prob_val: float = 0.15,
                     prob_test: float = 0.05, maintain_connectedness: bool = False,
                     seed: int = 0) -> LinkTaskSplit:
    """Split link-task queries into train/val/test folds.

    Folds are stratified per class: each class is shuffled and assigned
    floor(prob_val * class_size) validation and floor(prob_test *
    class_size) test queries, the rest training. With
    ``maintain_connectedness`` the queries backed by a maximal-|weight|
    spanning forest are forced into the training fold, so a weakly
    connected input stays connected in the observed graph. Edges whose
    queries land in val/test are removed from the observed graph.
    """
    task = canonical_task(task)
    if prob_val < 0 or prob_test < 0 or prob_val + prob_test >= 1:
        raise ValueError("need prob_val + prob_test < 1 and both nonnegative")
    rng = stream(seed)
    query_arr, label_arr, under_arr, discarded = _enumerate_candidates(g, task, rng)
    names = LABEL_NAMES[task]
    class_counts = np.bincount(label_arr, minlength=len(names))
    for cls, cnt in enumerate(class_counts):
        if cnt == 0:
            raise ValueError(
                f"task {task}: class {names[cls]!r} has no samples after discarding")

    n = g.num_nodes
    u, v = under_arr[:, 0], under_arr[:, 1]
    fold = np.zeros(label_arr.size, dtype=np.int64)
    locked = np.zeros(label_arr.size, dtype=bool)
    if maintain_connectedness:
        forest = spanning_forest(g)
        fs, fd = g.src[forest], g.dst[forest]
        forest_codes = np.minimum(fs, fd) * n + np.maximum(fs, fd)
        locked = (u >= 0) & _in_sorted(np.minimum(u, v) * n + np.maximum(u, v),
                                       np.sort(forest_codes))
    for cls in range(len(names)):
        idx = np.nonzero(label_arr == cls)[0]
        free = idx[~locked[idx]]
        perm = free[rng.permutation(free.size)]
        n_val = min(int(np.floor(prob_val * idx.size)), perm.size)
        n_test = min(int(np.floor(prob_test * idx.size)), perm.size - n_val)
        fold[perm[:n_val]] = 1
        fold[perm[n_val:n_val + n_test]] = 2

    hidden = (fold > 0) & (u >= 0)
    keep = ~_in_sorted(g.src * n + g.dst, np.sort(u[hidden] * n + v[hidden]))
    observed = g.replace_edges(g.src[keep], g.dst[keep], g.weight[keep])

    def fold_of(which):
        sel = fold == which
        return query_arr[sel], label_arr[sel]

    train_p, train_l = fold_of(0)
    val_p, val_l = fold_of(1)
    test_p, test_l = fold_of(2)
    return LinkTaskSplit(
        task=task,
        train_pairs=train_p, train_labels=train_l,
        val_pairs=val_p, val_labels=val_l,
        test_pairs=test_p, test_labels=test_l,
        observed_graph=observed,
        discarded_pairs=discarded,
        label_names=names,
    )
