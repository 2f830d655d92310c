"""The array link splitter and forest against the loops they replaced.

The functions between the two marker comments are a verbatim copy of the
dict-and-set splitter that ``sdnet.splitters`` used before it moved to
int64 pair codes, and of the Kruskal ``spanning_forest`` it used before
the Borůvka forest (renamed ``kruskal_forest``; the reference splitter
calls it). They draw from the random stream in the same order, so for a
given graph and seed both must give byte-identical folds, observed
graphs and discarded pairs, and the two forests identical edge arrays.
"""

import numpy as np
import pytest

from sdnet import splitters
from sdnet.generators import dsbm, f2_meta, meta_graph, sdsbm, ssbm
from sdnet.graph import SignedDirectedGraph
from sdnet.rng import stream
from sdnet.splitters import LABEL_NAMES, LinkTaskSplit, canonical_task

# ---- reference splitter (verbatim copy) ----------------------------------

def kruskal_forest(g: SignedDirectedGraph) -> np.ndarray:
    """Edge indices of a spanning forest of the undirected support.

    Kruskal over edges ordered by descending |weight| with ties broken
    by (src, dst); the result has n - #components edges. Self-loops are
    never chosen.
    """
    order = np.lexsort((g.dst, g.src, -np.abs(g.weight)))
    parent = np.arange(g.num_nodes, dtype=np.int64)

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    chosen = []
    for e in order:
        u, v = int(g.src[e]), int(g.dst[e])
        if u == v:
            continue
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
            chosen.append(int(e))
    return np.array(sorted(chosen), dtype=np.int64)


def _edge_tables(g: SignedDirectedGraph):
    """Lookup helpers: ordered weight map and unordered pair table."""
    weight_of = {}
    for u, v, w in zip(g.src, g.dst, g.weight):
        weight_of[(int(u), int(v))] = float(w)
    pairs = {}
    for (u, v), w in weight_of.items():
        if u == v:
            continue
        a, b = (u, v) if u < v else (v, u)
        entry = pairs.setdefault((a, b), [None, None])
        entry[0 if (u, v) == (a, b) else 1] = w
    return weight_of, pairs


def _sample_nonedges(rng, n, count, forbidden, ordered):
    """Uniform without-replacement non-edge pairs (ordered or u < v)."""
    if ordered:
        available = n * (n - 1) - len(forbidden)
    else:
        available = n * (n - 1) // 2 - len(forbidden)
    if count > available:
        raise ValueError(f"insufficient non-edges: need {count}, have {available}")
    chosen: set[int] = set()
    out = []
    while len(out) < count:
        u = int(rng.integers(n))
        v = int(rng.integers(n))
        if u == v:
            continue
        if not ordered and u > v:
            u, v = v, u
        code = u * n + v
        if code in forbidden or code in chosen:
            continue
        chosen.add(code)
        out.append((u, v))
    return out


def _enumerate_candidates(g: SignedDirectedGraph, task: str, rng):
    """Candidate (query, label) samples plus discarded ambiguous pairs.

    Returns (pairs, labels, underlying, discarded) where ``underlying``
    holds the stored edge a query came from ((-1, -1) for non-edges).
    """
    n = g.num_nodes
    weight_of, pair_table = _edge_tables(g)
    upair_keys = sorted(pair_table)
    queries: list[tuple[int, int]] = []
    labels: list[int] = []
    underlying: list[tuple[int, int]] = []
    discarded: list[tuple[int, int]] = []

    if task == "SP":
        for u, v in zip(g.src, g.dst):
            u, v = int(u), int(v)
            if u == v:
                continue
            queries.append((u, v))
            labels.append(0 if weight_of[(u, v)] > 0 else 1)
            underlying.append((u, v))
    elif task == "EP":
        for u, v in zip(g.src, g.dst):
            u, v = int(u), int(v)
            if u == v:
                continue
            queries.append((u, v))
            labels.append(0)
            underlying.append((u, v))
        forbidden = {u * n + v for (u, v) in queries}
        for u, v in _sample_nonedges(rng, n, len(queries), forbidden, ordered=True):
            queries.append((u, v))
            labels.append(1)
            underlying.append((-1, -1))
    else:  # DP / 3C / 4C / 5C share the direction-bearing enumeration
        signed_task = task in ("4C", "5C")
        for (a, b) in upair_keys:
            w_fwd, w_bwd = pair_table[(a, b)]
            if w_fwd is not None and w_bwd is not None:
                discarded.append((a, b))
                continue
            if w_fwd is not None:
                edge, w = (a, b), w_fwd
            else:
                edge, w = (b, a), w_bwd
            flip = rng.random() < 0.5
            query = (edge[1], edge[0]) if flip else edge
            if signed_task:
                label = (1 if flip else 0) + (2 if w < 0 else 0)
            else:
                label = 1 if flip else 0
            queries.append(query)
            labels.append(label)
            underlying.append(edge)
        if task in ("3C", "5C"):
            nonedge_label = 2 if task == "3C" else 4
            present = np.bincount(np.asarray(labels, dtype=np.int64),
                                  minlength=nonedge_label)[:nonedge_label]
            nonempty = int(np.count_nonzero(present))
            count = len(queries) // nonempty if nonempty else 0
            forbidden = {a * n + b for (a, b) in upair_keys}
            for u, v in _sample_nonedges(rng, n, count, forbidden, ordered=False):
                if rng.random() < 0.5:
                    u, v = v, u
                queries.append((u, v))
                labels.append(nonedge_label)
                underlying.append((-1, -1))

    return queries, labels, underlying, discarded


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
    queries, labels, underlying, discarded = _enumerate_candidates(g, task, rng)
    names = LABEL_NAMES[task]
    label_arr = np.asarray(labels, dtype=np.int64)
    class_counts = np.bincount(label_arr, minlength=len(names)) if label_arr.size \
        else np.zeros(len(names), dtype=np.int64)
    for cls, cnt in enumerate(class_counts):
        if cnt == 0:
            raise ValueError(
                f"task {task}: class {names[cls]!r} has no samples after discarding")

    forest_codes: set[int] = set()
    if maintain_connectedness:
        n = g.num_nodes
        for e in kruskal_forest(g):
            a, b = int(g.src[e]), int(g.dst[e])
            forest_codes.add(min(a, b) * n + max(a, b))

    m = label_arr.size
    fold = np.zeros(m, dtype=np.int64)
    locked = np.zeros(m, dtype=bool)
    if forest_codes:
        n = g.num_nodes
        for i, (u, v) in enumerate(underlying):
            if u >= 0 and min(u, v) * n + max(u, v) in forest_codes:
                locked[i] = True
    for cls in range(len(names)):
        idx = np.nonzero(label_arr == cls)[0]
        free = idx[~locked[idx]]
        perm = free[rng.permutation(free.size)]
        n_val = min(int(np.floor(prob_val * idx.size)), perm.size)
        n_test = min(int(np.floor(prob_test * idx.size)), perm.size - n_val)
        fold[perm[:n_val]] = 1
        fold[perm[n_val:n_val + n_test]] = 2

    query_arr = np.asarray(queries, dtype=np.int64).reshape(-1, 2)
    under_arr = np.asarray(underlying, dtype=np.int64).reshape(-1, 2)
    hidden = under_arr[(fold > 0) & (under_arr[:, 0] >= 0)]
    n = g.num_nodes
    hidden_codes = {int(u) * n + int(v) for u, v in hidden}
    edge_codes = g.src * n + g.dst
    keep = np.array([c not in hidden_codes for c in edge_codes], dtype=bool)
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
        discarded_pairs=np.asarray(discarded, dtype=np.int64).reshape(-1, 2),
        label_names=names,
    )

# ---- end of reference splitter -------------------------------------------

TASKS = ("SP", "DP", "EP", "3C", "4C", "5C")


def _graph(n, edges):
    return SignedDirectedGraph.from_edges(n, edges)


def _mixed_graph(n, p, seed):
    """Both signs, self-loops, one-way, reciprocal and cancelling pairs."""
    rng = stream(seed)
    edges = {}
    for u in range(n):
        if rng.random() < 0.1:
            edges[(u, u)] = 2.0 if rng.random() < 0.5 else -0.5
        for v in range(u + 1, n):
            if rng.random() >= p:
                continue
            w = (1.0 if rng.random() < 0.6 else -1.0) * (0.5 + rng.random())
            r = rng.random()
            if r < 0.15:
                edges[(u, v)], edges[(v, u)] = w, -w  # cancelling pair
            elif r < 0.3:
                edges[(u, v)] = w
                edges[(v, u)] = 1.0 if rng.random() < 0.6 else -1.0
            elif r < 0.65:
                edges[(u, v)] = w
            else:
                edges[(v, u)] = w
    return _graph(n, [(u, v, w) for (u, v), w in sorted(edges.items())])


def _fixtures():
    yield "mixed-40", _mixed_graph(40, 0.2, seed=1)
    yield "mixed-25", _mixed_graph(25, 0.35, seed=2)
    # dense: most sampled non-edges are rejected as edges or repeats
    yield "dense-12", _mixed_graph(12, 0.7, seed=3)
    yield "ssbm", ssbm(60, 2, 0.2, 0.2, eta=0.2, seed=4).graph
    yield "dsbm", dsbm(meta_graph("cycle", 3, eta=0.1), 60, 3, 0.3, seed=5).graph


def _split_or_error(fn, g, task, maintain, seed):
    try:
        return fn(g, task, prob_val=0.2, prob_test=0.1,
                  maintain_connectedness=maintain, seed=seed)
    except ValueError as exc:
        return str(exc)


def _assert_same_array(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("task", TASKS)
@pytest.mark.parametrize("maintain", [False, True])
def test_array_splitter_matches_reference(task, maintain):
    compared = 0
    for name, g in _fixtures():
        for seed in range(3):
            want = _split_or_error(link_class_split, g, task, maintain, seed)
            got = _split_or_error(splitters.link_class_split, g, task, maintain, seed)
            if isinstance(want, str):
                assert got == want, (name, seed)
                continue
            compared += 1
            assert got.task == want.task and got.label_names == want.label_names
            for field in ("train_pairs", "train_labels", "val_pairs", "val_labels",
                          "test_pairs", "test_labels", "discarded_pairs"):
                _assert_same_array(getattr(got, field), getattr(want, field))
            for field in ("src", "dst", "weight"):
                _assert_same_array(getattr(got.observed_graph, field),
                                   getattr(want.observed_graph, field))
    assert compared >= 9


def test_dense_graph_forces_nonedge_rejections():
    # the EP comparison on this fixture takes most of the free ordered
    # pairs, so the sampler must reject many repeats and edges
    _, g = next(f for f in _fixtures() if f[0] == "dense-12")
    n = g.num_nodes
    split = splitters.link_class_split(g, "EP", seed=0)
    nonedges = sum(int(np.sum(lab == 1)) for lab in
                   (split.train_labels, split.val_labels, split.test_labels))
    free = n * (n - 1) - int(np.sum(g.src != g.dst))
    assert nonedges >= 0.75 * free


def _forest_fuzz_graph(rng):
    """n in [0, 40): self-loops, reciprocal pairs, |w| ties of both signs."""
    n = int(rng.integers(0, 40))
    if n == 0:
        return SignedDirectedGraph.from_edges(0, [])
    codes = rng.integers(0, n * n, size=int(rng.integers(0, 3 * n + 1)))
    u, v = np.divmod(codes, n)
    back = rng.random(u.size) < 0.3
    u, v = np.concatenate([u, v[back]]), np.concatenate([v, u[back]])
    codes = np.unique(u * n + v)
    rng.shuffle(codes)
    w = rng.choice([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0], size=codes.size)
    return SignedDirectedGraph(n, codes // n, codes % n, w)


def _assert_same_forest(g):
    got, want = splitters.spanning_forest(g), kruskal_forest(g)
    _assert_same_array(got, want)
    assert np.all(np.diff(got) > 0)  # ascending, no duplicates


def test_boruvka_forest_matches_kruskal_on_random_graphs():
    rng = np.random.default_rng(20260)
    loops = reciprocal = 0
    for _ in range(600):
        g = _forest_fuzz_graph(rng)
        loops += int(np.sum(g.src == g.dst))
        reciprocal += int(np.isin(g.src * g.num_nodes + g.dst,
                                  g.dst * g.num_nodes + g.src).sum())
        _assert_same_forest(g)
    assert loops > 0 and reciprocal > 0


def test_boruvka_forest_matches_kruskal_on_sdsbm_f2():
    g = sdsbm(f2_meta(0.1), 2000, 0.01, rho=1.5,
              eta=0.1, seed=3).graph
    forest = splitters.spanning_forest(g)
    assert forest.size > 1900
    _assert_same_forest(g)
