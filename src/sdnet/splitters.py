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

The enumeration keeps, for each edge-backed query, the index of the
stored edge it came from; sampled non-edges follow those queries. The
observed graph drops the edges of validation and test queries by that
index, and the forest lock reads it too. The forest is grown by the
Borůvka rounds that also find weak components (``graph._boruvka``).
Set operations on pairs run on int64 codes u * n + v by sorts, adjacent
comparisons and binary searches; numpy's hash-based ``np.unique`` and
its stable mergesort cost several times more.

Memory (n = 20000, about 200k edges): a split keeps 28 bytes per edge
(SP, DP, 4C) to 37 (EP) in its outputs: int32 query pairs, int8 labels
and the observed graph. Its traced peak is about 39 bytes per edge for
SP, DP and 4C (with or without the forest), 44 for 5C, 49 for 3C and 59
for EP. The queries fill one preallocated table of ``index_dtype(n)``
and the sampler writes its pairs into it; every code u * n + v is
computed from the graph's int64 arrays; every large array is dropped
after its last use; and the fold check packs its codes into one array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import SignedDirectedGraph, _component_roots, _sorted_pair_codes, index_dtype
from .rng import stream

# pairs put in (min, max) order per step by ``_order_pairs`` (512 KiB)
ORDER_BLOCK = 1 << 16

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
    if name not in LABEL_NAMES:
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
    """Query pairs with class labels per fold, plus the observable graph.

    Every pair array (the three folds and ``discarded_pairs``) is (k x 2)
    of one width, ``index_dtype`` of the id farthest from 0 that any of
    them holds: int32 when every id lies within 2^31 of 0, int64
    otherwise. Labels are int8 in ``[0, len(label_names))``. Arrays
    already in these dtypes are kept, not copied.
    """

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
        names = ("train_pairs", "val_pairs", "test_pairs", "discarded_pairs")
        given = [np.asarray(getattr(self, name)).reshape(-1, 2) for name in names]
        # the id farthest from 0 sets one width for every pair array
        top = max((max(int(pairs.max()), -int(pairs.min())) for pairs in given if pairs.size),
                  default=0)
        index = index_dtype(top)
        for name, pairs in zip(names, given):
            object.__setattr__(self, name, pairs.astype(index, copy=False))
        for fold in ("train", "val", "test"):
            labels = np.asarray(getattr(self, f"{fold}_labels")).ravel()
            if getattr(self, f"{fold}_pairs").shape[0] != labels.shape[0]:
                raise ValueError("pairs and labels must align")
            if labels.size and (labels.min() < 0 or labels.max() >= alphabet):
                raise ValueError("label outside the task alphabet")
            object.__setattr__(self, f"{fold}_labels", labels.astype(np.int8, copy=False))
        _check_disjoint([self.train_pairs, self.val_pairs, self.test_pairs])


def _check_disjoint(folds) -> None:
    """Raise unless no query pair sits in two of the (k x 2) integer ``folds``.

    Each pair (u, v) of fold f is packed into one int64,
    ((u - low) * span + v - low) * 3 + f, straight into one array, so one
    sort puts equal pairs next to each other in fold order. Repeats
    inside one fold are allowed. The packing costs 8 bytes per query and
    the comparison three booleans. On int32 pairs the first subtraction
    runs in int32; it cannot wrap, as a span that packs is below 2^31.
    """
    filled = [pairs for pairs in folds if pairs.size]
    if not filled:
        return
    low = min(int(pairs.min()) for pairs in filled)
    span = max(int(pairs.max()) for pairs in filled) - low + 1
    if 3 * span * span >= 2 ** 63:
        raise ValueError(f"query node ids span {span} values, too many "
                         "to pack a pair and its fold into int64")
    packed = np.empty(sum(pairs.shape[0] for pairs in folds), dtype=np.int64)
    start = 0
    for f, pairs in enumerate(folds):
        # in this order no step leaves [-2^63, 2^63)
        code = packed[start:start + pairs.shape[0]]
        np.subtract(pairs[:, 0], low, out=code)
        code *= span
        code -= low
        code += pairs[:, 1]
        code *= 3
        code += f
        start += pairs.shape[0]
    packed.sort()
    # neighbours that differ, but not in their pair code packed // 3, are
    # one pair in two folds
    differ = packed[1:] != packed[:-1]
    packed //= 3
    differ &= packed[1:] == packed[:-1]
    if differ.any():
        raise ValueError("query pairs must be disjoint across folds")


def spanning_forest(g: SignedDirectedGraph) -> np.ndarray:
    """Edge indices of a maximal-|weight| spanning forest of the undirected support.

    Every edge that is not a self-loop gets a distinct rank: descending
    |weight|, ties broken by (src, dst). Distinct ranks make the
    minimum-rank spanning forest unique, so it is exactly the forest
    Kruskal's greedy pass over that order keeps. That pass keeps the
    same edges when it runs over the 2n best-ranked edges first and then
    over the rest with their ends relabelled by component, so the forest
    is grown in these two windows by Borůvka rounds (``graph._boruvka``,
    driven by ``graph._component_roots``); most edges of the second join
    nodes already joined by the first. Returns the n - #components
    chosen indices as an ascending int64 array; self-loops are never
    chosen.
    """
    # the order of np.lexsort((dst, src, -|w|)) in two cheaper sorts: by the
    # distinct pair codes, then stably by -|w|
    order = np.argsort(g.src * g.num_nodes + g.dst)
    order = order[np.argsort(-np.abs(g.weight[order]), kind="stable")]
    order = order[g.src[order] != g.dst[order]]
    chosen = [np.zeros(0, dtype=np.int64)]
    cut = 2 * g.num_nodes
    _component_roots(g.num_nodes, g.src, g.dst, (order[:cut], order[cut:]), chosen)
    # a mutually chosen edge was appended twice
    chosen = np.sort(np.concatenate(chosen))
    return np.concatenate([chosen[:1], chosen[1:][chosen[1:] != chosen[:-1]]])


def _in_sorted(codes: np.ndarray, sorted_codes: np.ndarray) -> np.ndarray:
    """Membership of each code in an ascending int64 array.

    A binary search whose positions are overwritten, in place, by the
    codes found there ('clip' reads the last code for a position past the
    end); np.isin deduplicates both sides first, which costs several
    times more on large code arrays.
    """
    if not sorted_codes.size:
        return np.zeros(codes.size, dtype=bool)
    found = np.searchsorted(sorted_codes, codes)
    sorted_codes.take(found, out=found, mode="clip")
    return found == codes


def _order_pairs(u, v):
    """Put each pair (u[i], v[i]) in (min, max) order in place, ORDER_BLOCK
    pairs at a time, so no full-size copy of either is made."""
    for start in range(0, u.size, ORDER_BLOCK):
        ub, vb = u[start:start + ORDER_BLOCK], v[start:start + ORDER_BLOCK]
        lo = np.minimum(ub, vb)
        np.maximum(ub, vb, out=vb)
        ub[...] = lo


def _sample_nonedges(rng, n, count, taken, ordered, out=None):
    """Uniform without-replacement non-edge pairs (ordered or u < v).

    ``taken`` is an ascending array of distinct codes u * n + v that may
    not be drawn. Candidates are consecutive pairs (u, v) of
    ``rng.integers(n)`` draws, accepted in draw order unless u == v, the
    code is taken or it was accepted before. Each batch draws the
    2 * need integers that the still missing ``need`` pairs could use at
    best, so the stream stops exactly where a pair-by-pair loop would.
    Writes the pairs into ``out``, a (count x 2) integer array (int64
    when not given), and returns it. The codes accepted in earlier
    batches are kept apart from ``taken``, so ``taken`` is never copied,
    and a batch drops its codes once sorted and scatters the accepted
    ones back into draw order, so it never holds three int64 arrays of
    its size, and unordered pairs are put in (min, max) order in place, a
    block at a time: at its peak it holds about 27 bytes per needed pair.
    """
    if ordered:
        available = n * (n - 1) - taken.size
    else:
        available = n * (n - 1) // 2 - taken.size
    if count > available:
        raise ValueError(f"insufficient non-edges: need {count}, have {available}")
    if out is None:
        out = np.empty((count, 2), dtype=np.int64)
    done = 0
    fresh = np.zeros(0, dtype=np.int64)  # the codes accepted so far, ascending
    while done < count:
        draw = rng.integers(n, size=2 * (count - done))
        u, v = draw[0::2], draw[1::2]
        pair = u != v
        if not ordered:
            _order_pairs(u, v)
        u *= n
        u += v
        codes = u[pair]
        del draw, u, v, pair
        if not codes.size:
            continue
        size = codes.size
        order = np.argsort(codes)
        ranked = codes[order]
        del codes  # ranked and order hold it
        first = np.empty(size, dtype=bool)  # first of its run of equal codes
        first[0] = True
        np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
        if not first.all():
            # a repeated code counts at its first draw: order the few
            # members of repeated runs by draw within their run
            runs = ~first
            runs[:-1] |= ~first[1:]
            at = np.flatnonzero(runs)
            order[at] = order[at[np.lexsort((order[at], ranked[at]))]]
        first &= ~_in_sorted(ranked, taken)
        first &= ~_in_sorted(ranked, fresh)
        pos = order[first]  # the draw positions of the accepted codes
        del order
        ranked = ranked[first]
        del first
        # the accepted codes back in draw order: scattered to their
        # positions, then compacted
        accept = np.zeros(size, dtype=bool)
        accept[pos] = True
        codes = np.empty(size, dtype=np.int64)
        codes[pos] = ranked
        del pos
        codes = codes[accept]
        del accept
        got = out[done:done + codes.size]
        np.divmod(codes, n, out=(got[:, 0], got[:, 1]))
        done += codes.size
        del codes
        if done < count:
            fresh = np.concatenate([fresh, ranked])
            fresh.sort()
        del ranked
    return out


def _orient(pairs, flip) -> None:
    """Turn each row (u, v) of ``pairs`` into (v, u), in place, where ``flip`` is set.

    An xor swap: u ^ (u ^ v) == v. A select on a random mask costs
    several times more.
    """
    swap = pairs[:, 0] ^ pairs[:, 1]
    swap *= flip
    pairs[:, 0] ^= swap
    pairs[:, 1] ^= swap


def _enumerate_candidates(g: SignedDirectedGraph, task: str, rng):
    """Candidate (query, label) samples plus discarded ambiguous pairs.

    Returns (pairs, labels, edge, discarded): the k x 2 queries, their k
    int8 labels, the int64 index into ``g``'s edge arrays of the stored
    edge behind each of the first ``edge.size`` queries (the rest are
    sampled non-edges) and the d x 2 reciprocal pairs (a < b) that were
    discarded. Both pair arrays are ``index_dtype(n)``. The queries fill
    one preallocated table, stored edges first and sampled non-edges
    after them. Every code u * n + v is computed from ``g``'s int64
    arrays, never from the narrower table, where it could wrap.
    """
    n = g.num_nodes
    index = index_dtype(n)
    discarded = np.zeros((0, 2), dtype=index)
    if task in ("SP", "EP"):
        edge = np.flatnonzero(g.src != g.dst)
        k = edge.size
        pairs = np.empty((2 * k if task == "EP" else k, 2), dtype=index)
        pairs[:k, 0] = g.src[edge]
        pairs[:k, 1] = g.dst[edge]
        if task == "SP":
            return pairs, (g.weight[edge] < 0).astype(np.int8), edge, discarded
        taken = g.src[edge]
        taken *= n
        taken += g.dst[edge]
        taken.sort()
        _sample_nonedges(rng, n, k, taken, ordered=True, out=pairs[k:])
        labels = np.zeros(2 * k, dtype=np.int8)
        labels[k:] = 1
        return pairs, labels, edge, discarded

    # DP / 3C / 4C / 5C share the direction-bearing enumeration over the
    # unordered pairs, in ascending (a, b) order
    ranked, order = _sorted_pair_codes(g)
    off = (g.src != g.dst)[order]
    # a code held by two edges is a reciprocal pair; a kept code holds one
    same = ranked[1:] == ranked[:-1]
    twin = np.zeros(ranked.size, dtype=bool)
    twin[1:] = same
    twin[:-1] |= same
    discarded = np.column_stack(np.divmod(ranked[1:][same], n)).astype(index)
    edge = order[off & ~twin]
    del order, twin
    taken = None
    if task in ("3C", "5C"):
        off[1:] &= ~same
        taken = ranked[off]
    del ranked, off, same
    k = edge.size
    flip = rng.random(k) < 0.5
    labels = flip.astype(np.int8)
    if task in ("4C", "5C"):
        labels[g.weight[edge] < 0] += 2
    count = 0
    if taken is not None:
        nonedge_label = 2 if task == "3C" else 4
        nonempty = np.count_nonzero(np.bincount(labels, minlength=nonedge_label))
        count = k // nonempty if nonempty else 0
        labels = np.concatenate([labels, np.full(count, nonedge_label, dtype=np.int8)])
    pairs = np.empty((k + count, 2), dtype=index)
    pairs[:k, 0] = g.src[edge]
    pairs[:k, 1] = g.dst[edge]
    _orient(pairs[:k], flip)
    if taken is not None:
        _sample_nonedges(rng, n, count, taken, ordered=False, out=pairs[k:])
        _orient(pairs[k:], rng.random(count) < 0.5)
    return pairs, labels, edge, discarded


def _forest_lock(g: SignedDirectedGraph, task: str) -> np.ndarray:
    """One flag per stored edge: its query must stay in the training fold.

    Set for the edges of ``spanning_forest``. For SP and EP the lock
    holds the unordered pair, so the reverse of a forest edge is locked
    too; the other tasks discard reciprocal pairs.
    """
    forest = spanning_forest(g)
    tied = np.zeros(g.num_edges, dtype=bool)
    tied[forest] = True
    if task in ("SP", "EP"):
        n = g.num_nodes
        reverse = g.dst[forest] * n
        reverse += g.src[forest]
        reverse.sort()
        tied |= _in_sorted(g.src * n + g.dst, reverse)
    return tied


def _assign_folds(rng, labels, counts, locked, prob_val, prob_test) -> np.ndarray:
    """Fold of every query as int8: 0 train, 1 validation, 2 test.

    Per class, in label order, the class's unlocked queries (ascending
    index) are shuffled by one ``rng.permutation``; the first
    floor(prob_val * class_size) go to validation and the next
    floor(prob_test * class_size) to test. ``locked`` is None or one flag
    per query.
    """
    fold = np.zeros(labels.size, dtype=np.int8)
    for cls, size in enumerate(counts.tolist()):
        idx = np.flatnonzero(labels == cls)
        if locked is not None:
            idx = idx[~locked[idx]]
        perm = rng.permutation(idx.size)
        n_val = min(int(np.floor(prob_val * size)), idx.size)
        n_test = min(int(np.floor(prob_test * size)), idx.size - n_val)
        fold[idx[perm[:n_val]]] = 1
        fold[idx[perm[n_val:n_val + n_test]]] = 2
    return fold


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
    # the forest draws no random numbers; built first, its temporaries are
    # gone before the queries exist
    tied = _forest_lock(g, task) if maintain_connectedness else None
    queries, labels, edge, discarded = _enumerate_candidates(g, task, rng)
    names = LABEL_NAMES[task]
    class_counts = np.bincount(labels, minlength=len(names))
    for cls, cnt in enumerate(class_counts):
        if cnt == 0:
            raise ValueError(
                f"task {task}: class {names[cls]!r} has no samples after discarding")

    # each array is dropped after its last use, so the split's peak stays
    # near the bytes it returns
    locked = None
    if tied is not None:
        locked = np.zeros(labels.size, dtype=bool)
        locked[:edge.size] = tied[edge]
        del tied
    fold = _assign_folds(rng, labels, class_counts, locked, prob_val, prob_test)
    del locked
    keep = np.ones(g.num_edges, dtype=bool)
    keep[edge[fold[:edge.size] > 0]] = False
    del edge
    # the queries of each fold in their original order (np.compress takes
    # whole rows; a boolean index on the table costs three times more)
    outputs = {}
    for f, name in enumerate(("train", "val", "test")):
        sel = fold == f
        outputs[f"{name}_pairs"] = np.compress(sel, queries, axis=0)
        outputs[f"{name}_labels"] = labels[sel]
    del queries, labels, fold, sel
    observed = g.replace_edges(g.src[keep], g.dst[keep], g.weight[keep])
    return LinkTaskSplit(task=task, **outputs, observed_graph=observed,
                         discarded_pairs=discarded, label_names=names)
