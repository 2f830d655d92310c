import math
import tracemalloc

import numpy as np
import pytest

import sdnet.splitters as splitters
from sdnet.generators import f2_meta, sdsbm, ssbm
from sdnet.graph import SignedDirectedGraph, is_signed
from sdnet.rng import stream
from sdnet.splitters import (LABEL_NAMES, LinkTaskSplit, canonical_task,
                             link_class_split, node_split, spanning_forest,
                             _enumerate_candidates, _mask_counts, _sample_nonedges)
from test_splitter_oracle import _sample_nonedges as pair_by_pair_nonedges


def G(n, edges):
    return SignedDirectedGraph.from_edges(n, edges)


def random_signed_digraph(n, p, seed, reciprocal=0.15):
    """Random graph with both signs, both directions and some 2-cycles."""
    rng = stream(seed)
    edges = {}
    for u in range(n):
        for v in range(u + 1, n):
            r = rng.random()
            if r < p:
                w = 1.0 if rng.random() < 0.6 else -1.0
                if rng.random() < reciprocal:
                    w2 = 1.0 if rng.random() < 0.6 else -1.0
                    edges[(u, v)] = w
                    edges[(v, u)] = w2
                elif rng.random() < 0.5:
                    edges[(u, v)] = w
                else:
                    edges[(v, u)] = w
    return G(n, [(u, v, w) for (u, v), w in sorted(edges.items())])


# ------------------------------------------------------------------ node split

def test_mask_counts_examples():
    assert _mask_counts(10, (0.8, 0.1, 0.1)) == [8, 1, 1]
    assert _mask_counts(3, (0.8, 0.1, 0.1)) == [1, 1, 1]
    with pytest.raises(ValueError):
        _mask_counts(2, (0.8, 0.1, 0.1))


def test_node_split_listing_configuration():
    labels = np.repeat(np.arange(5), 20)  # 5 classes of 20
    split = node_split(labels, 0.8, 0.1, 0.1, seed_frac=0.1, num_splits=3, seed=0)
    for rep in range(3):
        for c in range(5):
            members = labels == c
            assert split.train[members, rep].sum() == 16
            assert split.val[members, rep].sum() == 2
            assert split.test[members, rep].sum() == 2
            assert split.seed[members, rep].sum() == 2
    assert not np.any(split.train & split.val)
    assert not np.any(split.seed & ~split.train)


def test_node_split_respects_rounding_rule_exactly():
    rng = stream(11)
    for trial in range(30):
        sizes = rng.integers(3, 40, size=3)
        labels = np.repeat(np.arange(3), sizes)
        split = node_split(labels, 0.7, 0.15, 0.1, num_splits=2, seed=trial)
        for rep in range(2):
            for c in range(3):
                members = labels == c
                expect = _mask_counts(int(sizes[c]), (0.7, 0.15, 0.1))
                got = [int(split.train[members, rep].sum()),
                       int(split.val[members, rep].sum()),
                       int(split.test[members, rep].sum())]
                assert got == expect


def test_node_split_proportion_property():
    labels = np.repeat(np.arange(4), 50)
    split = node_split(labels, 0.6, 0.2, 0.2, seed=1)
    for c in range(4):
        members = labels == c
        frac = split.train[members, 0].sum() / 50
        assert abs(frac - 0.6) < 1.0 / 50


def test_node_split_errors():
    labels = np.array([0, 0, 1])
    with pytest.raises(ValueError):
        node_split(labels, 0.8, 0.1, 0.2)
    with pytest.raises(ValueError):
        node_split(labels, 0.5, 0.1, 0.1, seed_frac=0.6)
    with pytest.raises(ValueError):
        node_split(np.array([0, 0, 1]), 0.5, 0.3, 0.2)  # class of 1 needs 3 masks


def test_node_split_determinism():
    labels = np.repeat([0, 1], 30)
    a = node_split(labels, seed=7)
    b = node_split(labels, seed=7)
    assert np.array_equal(a.train, b.train) and np.array_equal(a.seed, b.seed)
    c = node_split(labels, seed=8)
    assert not np.array_equal(a.train, c.train)


# -------------------------------------------------------------- spanning forest

def test_spanning_forest_tree_and_triangle():
    tree = G(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    assert list(spanning_forest(tree)) == [0, 1, 2]
    tri = G(3, [(0, 1, 1.0), (1, 2, 3.0), (2, 0, 2.0)])
    picked = spanning_forest(tri)
    assert len(picked) == 2
    weights = {abs(tri.weight[e]) for e in picked}
    assert weights == {3.0, 2.0}  # two largest magnitudes


def test_spanning_forest_two_components():
    g = G(5, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (3, 4, 1.0)])
    assert len(spanning_forest(g)) == 5 - 2


def test_spanning_forest_skips_self_loops():
    g = G(3, [(0, 0, 5.0), (0, 1, 1.0), (1, 2, 1.0)])
    picked = spanning_forest(g)
    assert 0 not in picked and len(picked) == 2


# ----------------------------------------------------------- link enumeration

def test_dp_two_cycle_discarded():
    g = G(2, [(0, 1, 1.0), (1, 0, 1.0)])
    queries, labels, _, discarded = _enumerate_candidates(g, "DP", stream(0))
    assert queries.tolist() == [] and labels.tolist() == []
    assert [tuple(d) for d in discarded.tolist()] == [(0, 1)]
    with pytest.raises(ValueError):
        link_class_split(g, "DP", seed=0)


def test_5c_hand_enumeration():
    g = G(5, [(0, 1, 1.0), (2, 1, -1.0), (3, 4, 1.0)])
    queries, labels, edge, discarded = _enumerate_candidates(g, "5C", stream(0))
    assert len(queries) == 4 and discarded.tolist() == []
    names = LABEL_NAMES["5C"]
    got = [names[l] for l in labels]
    assert sum(1 for s in got if s.endswith("positive")) == 2
    assert sum(1 for s in got if s.endswith("negative")) == 1
    assert got.count("nonedge") == 1  # mean nonempty edge-class count = 1
    # each query names its stored edge, whatever the query's orientation
    under = zip(g.src[edge[:3]].tolist(), g.dst[edge[:3]].tolist())
    assert sorted(under) == [(0, 1), (2, 1), (3, 4)]
    assert edge.size == 3  # the sampled non-edge, last, has no stored edge


def _dense_forbidden(n, ordered, seed):
    """About 60% of the n * (n - 1) (or half that) candidate codes."""
    u, v = np.divmod(np.arange(n * n), n)
    valid = u != v if ordered else u < v
    codes = np.flatnonzero(valid)
    return np.sort(codes[stream(seed).random(codes.size) < 0.6])


@pytest.mark.parametrize("ordered", [True, False])
@pytest.mark.parametrize("n", [5, 10, 40])
def test_sample_nonedges_matches_pair_by_pair_loop(n, ordered):
    forbidden = _dense_forbidden(n, ordered, seed=n)
    available = (n * (n - 1) if ordered else n * (n - 1) // 2) - forbidden.size
    for count in sorted({0, 1, available // 2, available}):
        for seed in range(3):
            got_rng, want_rng = stream(seed), stream(seed)
            got = _sample_nonedges(got_rng, n, count, forbidden, ordered)
            want = pair_by_pair_nonedges(want_rng, n, count, set(forbidden.tolist()), ordered)
            assert got.dtype == np.int64 and got.shape == (count, 2)
            assert got.tolist() == [list(p) for p in want]
            # both stop at the same point of the stream
            assert got_rng.integers(1 << 62) == want_rng.integers(1 << 62)
        with pytest.raises(ValueError, match="insufficient"):
            _sample_nonedges(stream(0), n, available + 1, forbidden, ordered)


def test_sample_nonedges_orders_pairs_block_by_block(monkeypatch):
    # unordered pairs are put in (min, max) order ORDER_BLOCK pairs at a
    # time; with blocks of 7 every batch spans several of them
    monkeypatch.setattr(splitters, "ORDER_BLOCK", 7)
    n = 40
    forbidden = _dense_forbidden(n, False, seed=n)
    for count in (1, 100, 295):  # 295 is every pair left
        got = _sample_nonedges(stream(count), n, count, forbidden, ordered=False)
        want = pair_by_pair_nonedges(stream(count), n, count, set(forbidden.tolist()), False)
        assert got.tolist() == [list(p) for p in want]


def test_task_aliases():
    assert canonical_task("direction") == "DP"
    assert canonical_task("sp") == "SP"
    assert canonical_task("five_class_signed_digraph") == "5C"
    with pytest.raises(ValueError):
        canonical_task("bogus")


def test_sp_enumeration_and_split():
    inst = ssbm(40, 2, 0.4, 0.4, eta=0.2, seed=0)
    split = link_class_split(inst.graph, "SP", prob_val=0.15, prob_test=0.05, seed=0)
    total = (len(split.train_labels) + len(split.val_labels)
             + len(split.test_labels))
    assert total == inst.graph.num_edges
    for pairs, labels in ((split.train_pairs, split.train_labels),
                          (split.val_pairs, split.val_labels),
                          (split.test_pairs, split.test_labels)):
        for (u, v), lab in zip(pairs, labels):
            w = dict(((a, b), c) for a, b, c in inst.graph.edge_list())[(u, v)]
            assert lab == (0 if w > 0 else 1)


def test_ep_split_labels_and_counts():
    g = random_signed_digraph(30, 0.2, seed=3)
    split = link_class_split(g, "EP", seed=1)
    all_labels = np.concatenate([split.train_labels, split.val_labels,
                                 split.test_labels])
    counts = np.bincount(all_labels, minlength=2)
    assert counts[0] == counts[1]  # one negative per positive
    edge_set = {(u, v) for u, v, _ in g.edge_list()}
    for pairs, labels in ((split.train_pairs, split.train_labels),
                          (split.test_pairs, split.test_labels)):
        for (u, v), lab in zip(pairs, labels):
            assert ((u, v) in edge_set) == (lab == 0)


def brute_force_conditions(g, u, v):
    """Which of the four oriented/sign conditions hold for the pair (u, v)."""
    w = {(a, b): c for a, b, c in g.edge_list()}
    return {
        "uv": (u, v) in w,
        "vu": (v, u) in w,
    }


def test_discard_rule_against_brute_force():
    for seed in range(20):
        g = random_signed_digraph(20, 0.3, seed=seed, reciprocal=0.3)
        for task in ("DP", "3C", "4C", "5C"):
            queries, labels, edge, discarded = _enumerate_candidates(
                g, task, stream(seed))
            # an edge-backed query is its stored edge in either orientation
            for q, e in zip(queries.tolist(), edge.tolist()):
                if e >= 0:
                    assert sorted(q) == sorted((g.src[e], g.dst[e]))
            discarded_set = {tuple(d) for d in discarded}
            seen_pairs = set()
            for q in queries:
                a, b = min(q), max(q)
                seen_pairs.add((a, b))
            for (a, b) in discarded_set:
                cond = brute_force_conditions(g, a, b)
                assert cond["uv"] and cond["vu"]  # matched both conditions
                assert (a, b) not in seen_pairs
            # every kept edge-backed pair matches exactly one condition
            for q, lab in zip(queries, labels):
                a, b = min(q), max(q)
                cond = brute_force_conditions(g, a, b)
                if (a, b) in {tuple(sorted(p)) for p in discarded_set}:
                    continue
                if cond["uv"] or cond["vu"]:
                    assert cond["uv"] != cond["vu"]


def test_fold_disjointness_and_alphabet():
    for seed in range(10):
        g = random_signed_digraph(25, 0.3, seed=seed + 50)
        for task in ("SP", "DP", "EP", "3C", "4C", "5C"):
            try:
                split = link_class_split(g, task, seed=seed)
            except ValueError:
                continue  # legitimately empty class on this draw
            seen = set()
            for pairs in (split.train_pairs, split.val_pairs, split.test_pairs):
                keys = {(int(u), int(v)) for u, v in pairs}
                assert not (keys & seen)
                seen |= keys
            for labels in (split.train_labels, split.val_labels,
                           split.test_labels):
                assert np.all(labels >= 0)
                assert np.all(labels < len(LABEL_NAMES[task]))


def test_folds_plus_discarded_cover_all_candidates():
    g = random_signed_digraph(25, 0.35, seed=4, reciprocal=0.4)
    queries, labels, _, discarded = _enumerate_candidates(g, "4C", stream(7))
    split = link_class_split(g, "4C", seed=7)
    folds_total = (len(split.train_labels) + len(split.val_labels)
                   + len(split.test_labels))
    assert folds_total == len(queries)
    # discarded count equals the brute-force reciprocal pair count
    w = {(u, v) for u, v, _ in g.edge_list()}
    reciprocal = {(a, b) for (a, b) in w if (b, a) in w and a < b}
    assert {tuple(d) for d in split.discarded_pairs} == reciprocal


def test_observed_graph_retains_train_and_discarded_edges():
    g = random_signed_digraph(25, 0.35, seed=2, reciprocal=0.4)
    split = link_class_split(g, "DP", prob_val=0.3, prob_test=0.2, seed=0)
    observed = {(u, v) for u, v, _ in split.observed_graph.edge_list()}
    # discarded pair edges all retained
    for a, b in split.discarded_pairs:
        w = {(x, y) for x, y, _ in g.edge_list()}
        assert ((int(a), int(b)) in w) and ((int(b), int(a)) in w)
        assert ((int(a), int(b)) in observed) and ((int(b), int(a)) in observed)
    # val/test queried edges removed
    edge_set = {(u, v) for u, v, _ in g.edge_list()}
    for pairs in (split.val_pairs, split.test_pairs):
        for u, v in pairs:
            u, v = int(u), int(v)
            real = (u, v) if (u, v) in edge_set else (v, u)
            assert real not in observed


def test_maintain_connectedness():
    from sdnet.graph import largest_weakly_connected_component
    for seed in range(5):
        inst = ssbm(40, 2, 0.25, 0.25, eta=0.2, seed=seed)
        g, _ = largest_weakly_connected_component(inst.graph)
        split = link_class_split(g, "SP", prob_val=0.3, prob_test=0.2,
                                 maintain_connectedness=True, seed=seed)
        sub, _ = largest_weakly_connected_component(split.observed_graph)
        assert sub.num_nodes == g.num_nodes


def test_split_determinism():
    g = random_signed_digraph(30, 0.3, seed=9)
    a = link_class_split(g, "4C", seed=5)
    b = link_class_split(g, "4C", seed=5)
    assert np.array_equal(a.train_pairs, b.train_pairs)
    assert np.array_equal(a.test_labels, b.test_labels)
    c = link_class_split(g, "4C", seed=6)
    assert not np.array_equal(a.train_pairs, c.train_pairs)


def test_listing_like_configuration():
    g = random_signed_digraph(60, 0.2, seed=13)
    split = link_class_split(g, "direction", prob_val=0.15, prob_test=0.05, seed=0)
    m = len(split.train_labels) + len(split.val_labels) + len(split.test_labels)
    assert len(split.val_labels) == pytest.approx(0.15 * m, abs=2 + 0.02 * m)
    assert len(split.test_labels) == pytest.approx(0.05 * m, abs=2 + 0.02 * m)


def test_insufficient_nonedges():
    # complete directed graph: no room for EP negatives
    n = 5
    edges = [(u, v, 1.0) for u in range(n) for v in range(n) if u != v]
    g = G(n, edges)
    with pytest.raises(ValueError):
        link_class_split(g, "EP", seed=0)


def test_sp_requires_both_signs():
    inst = ssbm(20, 2, 0.5, 0.5, seed=0)  # eta=0, within +, across -
    assert is_signed(inst.graph)
    all_pos = G(4, [(0, 1, 1.0), (1, 2, 1.0)])
    with pytest.raises(ValueError):
        link_class_split(all_pos, "SP", seed=0)


@pytest.fixture(scope="module")
def large_sparse_graph():
    # the large_sparse benchmark graph (seed 1)
    n = 20_000
    return sdsbm(f2_meta(0.1), n, 20.0 / n, rho=1.5, eta=0.1, seed=1).graph


# traced peak and kept bytes per edge; with int64 pairs and labels an EP
# split kept 67 and peaked at 88, and its peak once reached 270
SPLIT_BYTES_PER_EDGE = {"SP": (40, 29), "DP": (40, 29), "EP": (60, 38),
                        "3C": (49, 34), "4C": (40, 29), "5C": (44, 31)}


@pytest.mark.parametrize("task, forest", [("SP", True), ("DP", False), ("EP", False),
                                          ("3C", False), ("4C", True), ("5C", False)])
def test_link_split_peak_memory_per_edge(large_sparse_graph, task, forest):
    # a split keeps int32 query pairs, int8 labels and the observed graph
    g = large_sparse_graph
    peak_max, kept_max = SPLIT_BYTES_PER_EDGE[task]
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        split = link_class_split(g, task, maintain_connectedness=forest, seed=0)
        kept, peak = (b - base for b in tracemalloc.get_traced_memory())
        del split
    finally:
        if started:
            tracemalloc.stop()
    m = g.num_edges
    assert m > 190_000
    assert peak <= peak_max * m, f"peak {peak / m:.1f} bytes per edge"
    assert kept <= kept_max * m, f"kept {kept / m:.1f} bytes per edge"


@pytest.mark.parametrize("ordered", [True, False])
def test_nonedge_sampler_peak_bytes_per_pair(large_sparse_graph, ordered):
    # beside its output a batch holds the 16-byte draw, the pair mask and
    # the 8-byte codes; unordered pairs also held a full-size
    # np.minimum(u, v) copy, 35 bytes per pair against 27 for ordered ones
    g = large_sparse_graph
    n, count = g.num_nodes, g.num_edges
    lo, hi = np.minimum(g.src, g.dst), np.maximum(g.src, g.dst)
    taken = np.sort(g.src * n + g.dst) if ordered else np.unique(lo * n + hi)
    out = np.empty((count, 2), dtype=np.int64)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        _sample_nonedges(stream(0), n, count, taken, ordered, out=out)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert peak <= 28 * count, f"peak {peak / count:.1f} bytes per pair"


def test_link_task_split_dtypes():
    g = G(4, [(0, 1, 1.0), (1, 2, -1.0)])
    names = LABEL_NAMES["4C"]
    for top in (3, 2 ** 31 - 1, 2 ** 31, 2 ** 40):
        width = np.int32 if top < 2 ** 31 else np.int64
        # an empty fold and the discarded pairs take the same width; ids
        # sit near ``top`` so that the fold check can pack them
        split = LinkTaskSplit("4C", train_pairs=[[top, top - 1], [top - 2, top]],
                              train_labels=[0, 3], val_pairs=[], val_labels=[],
                              test_pairs=[[top - 1, top]], test_labels=[2],
                              observed_graph=g, discarded_pairs=[[top - 3, top]],
                              label_names=names)
        for fold in ("train", "val", "test", "discarded"):
            pairs = getattr(split, f"{fold}_pairs")
            assert pairs.dtype == width and pairs.shape[1] == 2
            assert pairs.max(initial=top) == top
        for fold in ("train", "val", "test"):
            assert getattr(split, f"{fold}_labels").dtype == np.int8
        assert split.train_labels.tolist() == [0, 3] and split.val_pairs.shape == (0, 2)
    # a negative id as far from 0 widens the arrays too
    split = LinkTaskSplit("4C", train_pairs=[[-2 ** 31, 5 - 2 ** 31]], train_labels=[1],
                          val_pairs=[], val_labels=[], test_pairs=[], test_labels=[],
                          observed_graph=g, discarded_pairs=[], label_names=names)
    assert split.train_pairs.dtype == np.int64 and split.discarded_pairs.dtype == np.int64
    # arrays already int32 and int8 are kept, not copied
    pairs, labels = np.array([[0, 1], [1, 2]], dtype=np.int32), np.array([0, 1], dtype=np.int8)
    split = LinkTaskSplit("SP", train_pairs=pairs, train_labels=labels, val_pairs=pairs[:0],
                          val_labels=labels[:0], test_pairs=pairs[:0], test_labels=labels[:0],
                          observed_graph=g, discarded_pairs=pairs[:0],
                          label_names=LABEL_NAMES["SP"])
    assert np.shares_memory(split.train_pairs, pairs)
    assert np.shares_memory(split.train_labels, labels)
    # every task's split comes out in these dtypes
    h = random_signed_digraph(30, 0.3, seed=2, reciprocal=0.3)
    for task in LABEL_NAMES:
        split = link_class_split(h, task, seed=0)
        assert split.discarded_pairs.dtype == np.int32
        for fold in ("train", "val", "test"):
            assert getattr(split, f"{fold}_pairs").dtype == np.int32
            assert getattr(split, f"{fold}_labels").dtype == np.int8


def test_ep_nonedges_avoid_edges_whose_codes_pass_int32():
    # a dense block on the last 400 of 50,000 nodes: every edge code
    # u * n + v lies above 2^31, where an int32 product would wrap
    n, lo = 50_000, 49_600
    u, v = np.meshgrid(np.arange(lo, n), np.arange(lo, n), indexing="ij")
    off = u != v
    g = SignedDirectedGraph(n, u[off], v[off], np.ones(np.count_nonzero(off)))
    assert int(g.src.min()) * n >= 2 ** 31
    edge_codes = np.sort(g.src.astype(np.int64) * n + g.dst)
    for seed in range(3):
        split = link_class_split(g, "EP", seed=seed)
        assert split.train_pairs.dtype == np.int32
        for fold in ("train", "val", "test"):
            pairs = getattr(split, f"{fold}_pairs").astype(np.int64)
            codes = pairs[:, 0] * n + pairs[:, 1]
            nonedge = getattr(split, f"{fold}_labels") == 1
            is_edge = np.isin(codes, edge_codes)
            assert not np.any(is_edge & nonedge), f"seed {seed}: a nonedge query is an edge"
            assert np.all(is_edge | nonedge)


def test_link_task_split_rejects_overlapping_folds():
    g = G(4, [(0, 1, 1.0), (1, 2, -1.0)])
    fold = dict(train_pairs=[[0, 1], [1, 2], [0, 1]], train_labels=[0, 1, 0],
                val_pairs=[[2, 3]], val_labels=[0],
                test_pairs=[[3, 0]], test_labels=[1])
    # repeats inside one fold are allowed
    split = LinkTaskSplit("SP", **fold, observed_graph=g, discarded_pairs=[],
                          label_names=LABEL_NAMES["SP"])
    assert split.train_pairs.shape == (3, 2)
    for overlap in ([[1, 2]], [[3, 0]]):
        bad = dict(fold, val_pairs=overlap)
        with pytest.raises(ValueError, match="disjoint"):
            LinkTaskSplit("SP", **bad, observed_graph=g, discarded_pairs=[],
                          label_names=LABEL_NAMES["SP"])
    # the reversed pair is a different query
    LinkTaskSplit("SP", **dict(fold, val_pairs=[[1, 0]]), observed_graph=g,
                  discarded_pairs=[], label_names=LABEL_NAMES["SP"])


def _folds(train, val, test):
    g = G(2, [(0, 1, 1.0)])
    return LinkTaskSplit("SP", train_pairs=train, train_labels=[0] * len(train),
                         val_pairs=val, val_labels=[0] * len(val),
                         test_pairs=test, test_labels=[0] * len(test),
                         observed_graph=g, discarded_pairs=[],
                         label_names=LABEL_NAMES["SP"])


def test_fold_check_at_the_ends_of_the_packed_codes():
    # (2, 2) packs to the smallest code, (9, 9) to the largest
    for shared in ([2, 2], [9, 9]):
        with pytest.raises(ValueError, match="disjoint"):
            _folds([[2, 9], shared], [shared], [[9, 2]])
        with pytest.raises(ValueError, match="disjoint"):
            _folds([shared], [[3, 4]], [shared])
    # repeats inside one fold pass with node ids up to 10^6
    big = 10 ** 6
    split = _folds([[big, 3], [0, big], [big, 3]], [[3, big]], [[big, big], [big, big]])
    assert split.train_pairs.shape == (3, 2)
    with pytest.raises(ValueError, match="disjoint"):
        _folds([[big, 3]], [[0, big]], [[big, 3]])
    # (u, v) and (u, v + 1) in different folds pack 1 or 2 apart: (3, 4) in
    # test sits 1 below (3, 5) in train, (7, 7) in val 2 below (7, 8) in train
    split = _folds([[3, 5], [7, 8]], [[7, 7]], [[3, 4]])
    assert split.test_pairs.tolist() == [[3, 4]]
    # one pair in folds 0 and 2 packs 2 apart; a repeat in one fold packs 0 apart
    with pytest.raises(ValueError, match="disjoint"):
        _folds([[3, 4]], [], [[3, 4]])
    _folds([[3, 4], [3, 4]], [], [[3, 5]])


def test_fold_check_refuses_pairs_it_cannot_pack():
    # the widest id span whose packed codes fit in int64, 3 * span^2 < 2^63
    span = math.isqrt((2 ** 63 - 1) // 3)
    top = span - 1
    _folds([[0, top], [top, 0]], [[top, top]], [[0, 0]])
    with pytest.raises(ValueError, match="disjoint"):
        _folds([[top, top]], [[0, 0]], [[top, top]])
    with pytest.raises(ValueError, match="too many to pack"):
        _folds([[0, top + 1]], [], [])
    with pytest.raises(ValueError, match="too many to pack"):
        _folds([[0, 1]], [[2 ** 40, 5]], [])
