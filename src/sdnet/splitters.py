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

The enumeration keeps, for each query, the index of the stored edge it
came from (-1 for a sampled non-edge). The observed graph drops the
edges of validation and test queries by that index, and the forest
lock reads it too. Set operations on pairs run on int64 codes u * n + v
by sorts, adjacent comparisons and binary searches; numpy's hash-based
``np.unique`` and its stable mergesort cost several times more.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import SignedDirectedGraph, _jump_to_roots, _sorted_pair_codes
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
            # pack (pair code, fold) into one int64 so that one sort puts equal
            # codes next to each other in fold order; repeats inside one fold
            # are allowed, a code in two folds is not
            low = int(every.min())
            span = int(every.max()) - low + 1
            if 3 * span * span >= 2 ** 63:
                raise ValueError(f"query node ids span {span} values, too many "
                                 "to pack a pair and its fold into int64")
            packed = every[:, 0] - low
            packed *= span
            packed += every[:, 1] - low
            packed *= 3
            packed += np.repeat(np.arange(3), [p.shape[0] for p in folds])
            packed.sort()
            codes, which = np.divmod(packed, 3)
            if np.any((codes[1:] == codes[:-1]) & (which[1:] != which[:-1])):
                raise ValueError("query pairs must be disjoint across folds")
        object.__setattr__(self, "discarded_pairs",
                           np.asarray(self.discarded_pairs, dtype=np.int64).reshape(-1, 2))


def spanning_forest(g: SignedDirectedGraph) -> np.ndarray:
    """Edge indices of a maximal-|weight| spanning forest of the undirected support.

    Every edge that is not a self-loop gets a distinct rank: descending
    |weight|, ties broken by (src, dst). Distinct ranks make the
    minimum-rank spanning forest unique, so it is exactly the forest
    Kruskal's greedy pass over that order keeps. That pass keeps the
    same edges when it runs over the 2n best-ranked edges first and then
    over the rest with their ends relabelled by component, so the forest
    is grown in these two windows by Borůvka rounds (``_boruvka``); most
    edges of the second join nodes already joined by the first. Returns
    the n - #components chosen indices as an ascending int64 array;
    self-loops are never chosen.
    """
    # the order of np.lexsort((dst, src, -|w|)) in two cheaper sorts: by the
    # distinct pair codes, then stably by -|w|
    order = np.argsort(g.src * g.num_nodes + g.dst)
    order = order[np.argsort(-np.abs(g.weight[order]), kind="stable")]
    order = order[g.src[order] != g.dst[order]]
    label = np.arange(g.num_nodes)  # component of every node
    chosen = [np.zeros(0, dtype=np.int64)]
    cut = 2 * g.num_nodes
    for window in (order[:cut], order[cut:]):
        root = _boruvka(g.num_nodes, window, label[g.src[window]],
                        label[g.dst[window]], chosen)
        label = root[label]
    # a mutually chosen edge was appended twice
    chosen = np.sort(np.concatenate(chosen))
    return np.concatenate([chosen[:1], chosen[1:][chosen[1:] != chosen[:-1]]])


def _boruvka(n, order, cu, cv, chosen):
    """Borůvka rounds over the edges ``order``, given in rank order.

    ``cu`` and ``cv`` are the components of their ends. Each round passes
    over the edges inside a component, takes each component's
    minimum-rank edge, hooks the component to that edge's other end and
    jumps pointers to the new roots; it at least halves the number of
    components. Appends each round's edges to ``chosen`` and returns the
    final root of every component label.
    """
    relabel = np.arange(n)
    while True:
        live = cu != cv
        alive = int(np.count_nonzero(live))
        if not alive:
            return relabel
        rank = np.arange(live.size)  # edges stay in rank order
        if 4 * alive < 3 * live.size:
            # drop the edges inside a component once they are a quarter
            order, cu, cv, rank = order[live], cu[live], cv[live], rank[:alive]
        elif alive < live.size:
            # until then they stay, ranked behind every live edge
            rank[~live] = live.size
        best = np.full(n, order.size)
        np.minimum.at(best, cu, rank)
        np.minimum.at(best, cv, rank)
        comps = np.nonzero(best < order.size)[0]
        e = best[comps]
        other = np.where(cu[e] == comps, cv[e], cu[e])
        parent = np.arange(n, dtype=np.int64)
        parent[comps] = other
        # two components that chose the same edge point at each other:
        # the smaller one becomes the root
        mutual = comps[(parent[other] == comps) & (comps < other)]
        parent[mutual] = mutual
        chosen.append(order[e])
        root = _jump_to_roots(parent)
        cu, cv = root[cu], root[cv]
        relabel = root[relabel]


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
    taken = forbidden  # ascending: the forbidden and the accepted codes
    picked = [np.zeros(0, dtype=np.int64)]
    need = count
    while need:
        draw = rng.integers(n, size=2 * need)
        u, v = draw[0::2], draw[1::2]
        loop = u == v
        u, v = u[~loop], v[~loop]
        if not ordered:
            u, v = np.minimum(u, v), np.maximum(u, v)
        codes = u * n + v
        if not codes.size:
            continue
        order = np.argsort(codes)
        ranked = codes[order]
        starts = np.flatnonzero(np.concatenate([[True], ranked[1:] != ranked[:-1]]))
        distinct = ranked[starts]
        # the first draw of each code, whatever order the sort left ties in
        first = np.minimum.reduceat(order, starts)
        fresh = ~_in_sorted(distinct, taken)
        accepted = codes[np.sort(first[fresh])]
        picked.append(accepted)
        need -= accepted.size
        if need:
            taken = np.sort(np.concatenate([taken, distinct[fresh]]))
    return np.column_stack(np.divmod(np.concatenate(picked), n))


def _oriented(u, v, flip):
    """Rows (u, v), each turned into (v, u) where ``flip`` is set.

    An xor swap: u ^ (u ^ v) == v. A select on a random mask costs
    several times more.
    """
    swap = (u ^ v) * flip
    return np.column_stack([u ^ swap, v ^ swap])


def _enumerate_candidates(g: SignedDirectedGraph, task: str, rng):
    """Candidate (query, label) samples plus discarded ambiguous pairs.

    Returns int64 arrays (pairs, labels, edge, discarded): k x 2 queries,
    their k labels, the index into ``g``'s edge arrays of the stored edge
    each query came from (-1 for a sampled non-edge) and the d x 2
    reciprocal pairs (a < b) that were discarded.
    """
    n = g.num_nodes
    discarded = np.zeros((0, 2), dtype=np.int64)
    if task in ("SP", "EP"):
        edge = np.flatnonzero(g.src != g.dst)
        under = np.column_stack([g.src[edge], g.dst[edge]])
        if task == "SP":
            return under, np.where(g.weight[edge] > 0, 0, 1), edge, discarded
        forbidden = np.sort(under[:, 0] * n + under[:, 1])
        non = _sample_nonedges(rng, n, edge.size, forbidden, ordered=True)
        queries = np.concatenate([under, non])
        labels = np.repeat(np.array([0, 1]), [edge.size, non.shape[0]])
        return queries, labels, np.concatenate([edge, np.full(non.shape[0], -1)]), discarded

    # DP / 3C / 4C / 5C share the direction-bearing enumeration over the
    # unordered pairs, in ascending (a, b) order
    ranked, order = _sorted_pair_codes(g)
    off = (g.src != g.dst)[order]
    # a code held by two edges is a reciprocal pair; a kept code holds one
    same = ranked[1:] == ranked[:-1]
    twin = np.zeros(ranked.size, dtype=bool)
    twin[1:] = same
    twin[:-1] |= same
    discarded = np.column_stack(np.divmod(ranked[1:][same], n))
    edge = order[off & ~twin]
    flip = rng.random(edge.size) < 0.5
    queries = _oriented(g.src[edge], g.dst[edge], flip)
    labels = flip.astype(np.int64)
    if task in ("4C", "5C"):
        labels += 2 * (g.weight[edge] < 0)
    if task in ("3C", "5C"):
        nonedge_label = 2 if task == "3C" else 4
        present = np.bincount(labels, minlength=nonedge_label)[:nonedge_label]
        nonempty = int(np.count_nonzero(present))
        count = labels.size // nonempty if nonempty else 0
        cells = off.copy()
        cells[1:] &= ~same
        non = _sample_nonedges(rng, n, count, ranked[cells], ordered=False)
        non = _oriented(non[:, 0], non[:, 1], rng.random(count) < 0.5)
        queries = np.concatenate([queries, non])
        labels = np.concatenate([labels, np.full(count, nonedge_label)])
        edge = np.concatenate([edge, np.full(count, -1)])
    return queries, labels, edge, discarded


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
    query_arr, label_arr, edge_arr, discarded = _enumerate_candidates(g, task, rng)
    names = LABEL_NAMES[task]
    class_counts = np.bincount(label_arr, minlength=len(names))
    for cls, cnt in enumerate(class_counts):
        if cnt == 0:
            raise ValueError(
                f"task {task}: class {names[cls]!r} has no samples after discarding")

    m = g.num_edges
    fold = np.zeros(label_arr.size, dtype=np.int8)
    locked = np.zeros(label_arr.size, dtype=bool)
    if maintain_connectedness:
        # one flag per stored edge and a last, never set, that the -1 of a
        # sampled non-edge reads
        tied = np.zeros(m + 1, dtype=bool)
        forest = spanning_forest(g)
        tied[forest] = True
        if task in ("SP", "EP"):
            # the lock holds the unordered pair, so the reverse of a forest
            # edge is locked too; the other tasks discard reciprocal pairs
            n = g.num_nodes
            tied[:m] |= _in_sorted(g.src * n + g.dst,
                                   np.sort(g.dst[forest] * n + g.src[forest]))
        locked = tied[edge_arr]
    # every class's query indices, ascending, from one radix sort of the labels
    by_class = np.argsort(label_arr.astype(np.int8), kind="stable")
    for idx in np.split(by_class, np.cumsum(class_counts)[:-1]):
        free = idx[~locked[idx]]
        perm = free[rng.permutation(free.size)]
        n_val = min(int(np.floor(prob_val * idx.size)), perm.size)
        n_test = min(int(np.floor(prob_test * idx.size)), perm.size - n_val)
        fold[perm[:n_val]] = 1
        fold[perm[n_val:n_val + n_test]] = 2

    hidden = np.zeros(m + 1, dtype=bool)  # the -1 of a non-edge sets the last
    hidden[edge_arr[fold > 0]] = True
    keep = ~hidden[:m]
    observed = g.replace_edges(g.src[keep], g.dst[keep], g.weight[keep])

    # the queries of each fold in their original order, from one radix sort
    by_fold = np.argsort(fold, kind="stable")
    bounds = np.cumsum(np.bincount(fold, minlength=3))[:2]
    train_p, val_p, test_p = np.split(np.take(query_arr, by_fold, axis=0), bounds)
    train_l, val_l, test_l = np.split(label_arr[by_fold], bounds)
    return LinkTaskSplit(
        task=task,
        train_pairs=train_p, train_labels=train_l,
        val_pairs=val_p, val_labels=val_l,
        test_pairs=test_p, test_labels=test_l,
        observed_graph=observed,
        discarded_pairs=discarded,
        label_names=names,
    )
