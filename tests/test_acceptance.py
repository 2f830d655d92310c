"""Acceptance suite.

One test per acceptance criterion; each prints a PASS/FAIL line (visible
with ``pytest -s`` or in captured output). Runtime budgets are asserted
where the criterion states one.
"""

import functools
import itertools
import time

import numpy as np
import pytest

import sdnet
from sdnet.cli import main as cli_main
from sdnet.cluster import spectral_cluster
from sdnet.generators import block_sizes, dsbm, f1_meta, meta_graph, sdsbm, ssbm
from sdnet.graph import largest_weakly_connected_component
from sdnet.metrics import SoftAssignment, ari, auc, pbnc_loss
from sdnet.pipeline import linkpred_run
from sdnet.rng import stream
from sdnet.spectral import (eigh, hermitian_imbalance, magnetic_laplacian,
                            normalized_laplacian, signed_laplacian,
                            signed_magnetic_laplacian)
from sdnet.splitters import (LABEL_NAMES, link_class_split, node_split,
                             _enumerate_candidates, _mask_counts)


def criterion(name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {name}: FAIL")
                raise
            print(f"ACCEPTANCE {name}: PASS")
        return wrapper
    return deco


def sigma3(rate, n):
    return 3.0 * np.sqrt(max(rate * (1.0 - rate), 1e-12) / max(n, 1))


# ------------------------------------------------------ 1. generator census

def _ssbm_census_ok(seed):
    n, p, eta = 2000, 0.05, 0.1
    inst = ssbm(n, 3, p, p, eta_in=eta, eta_out=eta, seed=seed)
    g, labels = inst.graph, inst.labels
    half = g.src < g.dst
    same = labels[g.src[half]] == labels[g.dst[half]]
    counts = np.bincount(labels)
    within_pairs = int((counts * (counts - 1) // 2).sum())
    across_pairs = n * (n - 1) // 2 - within_pairs
    ok = abs(same.sum() / within_pairs - p) <= sigma3(p, within_pairs)
    ok &= abs((~same).sum() / across_pairs - p) <= sigma3(p, across_pairs)
    w = g.weight[half]
    ok &= abs(np.mean(w[same] < 0) - eta) <= sigma3(eta, int(same.sum()))
    ok &= abs(np.mean(w[~same] > 0) - eta) <= sigma3(eta, int((~same).sum()))
    return ok


def _dsbm_census_ok(seed):
    n, K, p = 1000, 3, 0.02
    meta = meta_graph("cycle", K, eta=0.1)
    inst = dsbm(meta, n, K, p, rho=1.5, seed=seed)
    g, labels = inst.graph, inst.labels
    counts = np.bincount(labels)
    pair_counts = np.outer(counts, counts) - np.diag(counts)
    observed = np.zeros((K, K))
    np.add.at(observed, (labels[g.src], labels[g.dst]), 1.0)
    for k in range(K):
        for l in range(K):
            target = p * meta.F_filled[k, l]
            rate = observed[k, l] / pair_counts[k, l]
            if abs(rate - target) > sigma3(target, pair_counts[k, l]):
                return False
    return True


@criterion("generator-census")
def test_c1_generator_census():
    start = time.monotonic()
    for seed in range(5):
        assert _ssbm_census_ok(seed), f"SSBM census out of 3-sigma at seed {seed}"
        assert _dsbm_census_ok(seed), f"DSBM census out of 3-sigma at seed {seed}"
    assert time.monotonic() - start < 30.0


# ----------------------------------------------------------- 2. block sizes

@criterion("block-sizes")
def test_c2_block_sizes():
    sizes = block_sizes(1000, 3, 1.5).sizes
    assert list(sizes) == [268, 328, 404]
    assert 1.4 <= sizes.max() / sizes.min() <= 1.6


# ----------------------------------------------------- 3. spectral correctness

def _random_fixture(seed):
    rng = stream(1000 + seed)
    n = int(rng.integers(10, 101))
    kind = seed % 4  # 0: signed directed, 1: unsigned directed,
    #                  2: signed undirected, 3: unsigned undirected
    edges = {}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.2:
                w = 0.5 + rng.random()
                if kind in (0, 2) and rng.random() < 0.4:
                    w = -w
                if kind in (2, 3):
                    edges[(u, v)] = w
                    edges[(v, u)] = w
                else:
                    r = rng.random()
                    if r < 0.4:
                        edges[(u, v)] = w
                    elif r < 0.8:
                        edges[(v, u)] = w
                    else:
                        edges[(u, v)] = w
                        w2 = 0.5 + rng.random()
                        edges[(v, u)] = -w2 if (kind == 0 and rng.random() < 0.4) else w2
    g = sdnet.SignedDirectedGraph.from_edges(
        n, [(u, v, w) for (u, v), w in sorted(edges.items())])
    return g, kind


@criterion("spectral-correctness")
def test_c3_spectral_correctness():
    for seed in range(20):
        g, kind = _random_fixture(seed)
        signed = bool(np.any(g.weight < 0))
        ops = [normalized_laplacian(g),
               signed_laplacian(g, normalized=False),
               signed_laplacian(g, normalized=True),
               signed_magnetic_laplacian(g, q=0.25, normalized=True),
               hermitian_imbalance(g)]
        if not signed:
            ops.append(magnetic_laplacian(g, q=0.25, normalized=True))
        for op in ops:
            m = op.toarray()
            scale = max(1.0, np.linalg.norm(m))
            assert np.linalg.norm(m - m.conj().T) <= 1e-12 * scale
            pairs = eigh(op)
            fro = np.linalg.norm(m)
            for j in range(m.shape[0]):
                v = pairs.vectors[:, j]
                r = m @ v - pairs.values[j] * v
                assert np.linalg.norm(r) <= 1e-8 * max(fro, 1e-30)
            if op.kind in ("normalized_laplacian", "signed_laplacian_sym",
                           "magnetic_laplacian", "signed_magnetic_laplacian"):
                assert pairs.values.min() >= -1e-9
                assert pairs.values.max() <= 2.0 + 1e-9
        # reduction identities
        if not signed:
            d = np.max(np.abs(magnetic_laplacian(g, q=0.0).toarray()
                              - normalized_laplacian(g).toarray()))
            assert d <= 1e-12
            d = np.max(np.abs(signed_magnetic_laplacian(g, q=0.2).toarray()
                              - magnetic_laplacian(g, q=0.2).toarray()))
            assert d <= 1e-12
        if not sdnet.is_directed(g):
            for normalized in (False, True):
                d = np.max(np.abs(
                    signed_magnetic_laplacian(g, q=0.3, normalized=normalized).toarray()
                    - signed_laplacian(g, normalized=normalized).toarray()))
                assert d <= 1e-12


# ----------------------------------------------------------- 4. metric oracles

def _ari_pair_oracle(a, b):
    n = len(a)
    ss = sd = ds = dd = 0
    for i in range(n):
        for j in range(i + 1, n):
            sa, sb = a[i] == a[j], b[i] == b[j]
            ss += sa and sb
            sd += sa and not sb
            ds += (not sa) and sb
            dd += (not sa) and (not sb)
    total = ss + sd + ds + dd
    expected = (ss + sd) * (ss + ds) / total
    maximum = ((ss + sd) + (ss + ds)) / 2.0
    if maximum == expected:
        return 1.0
    return (ss - expected) / (maximum - expected)


def _auc_pair_oracle(scores, y):
    pos = [s for s, t in zip(scores, y) if t == 1]
    neg = [s for s, t in zip(scores, y) if t == 0]
    wins = sum(p > q for p in pos for q in neg)
    ties = sum(p == q for p in pos for q in neg)
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def _pbnc_count_oracle(g, labels):
    a = g.adjacency()
    a_s = (a + a.T) / 2.0
    n = g.num_nodes
    total = 0.0
    for k in set(labels):
        members = [i for i in range(n) if labels[i] == k]
        cut_pos = sum(a_s[i, j] for i in members for j in range(n)
                      if labels[j] != k and a_s[i, j] > 0)
        within_neg = sum(-a_s[i, j] for i in members for j in members
                         if a_s[i, j] < 0)
        vol = sum(abs(a_s[i, j]) for i in members for j in range(n))
        if vol > 0:
            total += (cut_pos + within_neg) / vol
    return total


@criterion("metric-oracles")
def test_c4_metric_oracles():
    start = time.monotonic()
    rng = stream(42)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        a = rng.integers(0, 4, size=n)
        b = rng.integers(0, 4, size=n)
        assert ari(a, b) == pytest.approx(_ari_pair_oracle(list(a), list(b)),
                                          abs=1e-12)
    for _ in range(500):
        n = int(rng.integers(2, 13))
        y = rng.integers(0, 2, size=n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        scores = np.round(rng.random(n), 1)
        assert auc(scores, y) == pytest.approx(
            _auc_pair_oracle(list(scores), list(y)), abs=1e-12)
    for n, seed in ((8, 0), (9, 1), (10, 2)):
        inst = ssbm(n, 2, 0.7, 0.7, eta=0.3, seed=seed)
        g = inst.graph
        for bits in itertools.product([0, 1], repeat=n - 1):
            labels = np.array((0,) + bits)
            soft = SoftAssignment.from_labels(labels, 2)
            assert pbnc_loss(g, soft) == pytest.approx(
                _pbnc_count_oracle(g, list(labels)), abs=1e-12)
    assert time.monotonic() - start < 60.0


# ------------------------------------------------------ 5. zero-noise recovery

def _recovery_aris(model, eta, seeds=10):
    out = []
    for s in range(seeds):
        if model == "ssbm":
            inst = ssbm(500, 3, 0.05, 0.05, eta=eta, seed=s)
            method = "signed_laplacian_sym"
        else:
            inst = dsbm(meta_graph("cycle", 3, eta=eta), 300, 3, 0.1, seed=s)
            method = "hermitian_imbalance"
        split = node_split(inst.labels, seed=s)
        _, pred = spectral_cluster(inst.graph, method, 3, seed=s)
        mask = split.test[:, 0]
        out.append(ari(inst.labels[mask], pred[mask]))
    return np.asarray(out)


@criterion("zero-noise-recovery")
def test_c5_zero_noise_recovery():
    start = time.monotonic()
    assert float(np.median(_recovery_aris("ssbm", 0.0))) == 1.0
    assert float(np.median(_recovery_aris("dsbm", 0.0))) == 1.0
    assert float(np.median(np.abs(_recovery_aris("ssbm", 0.5)))) < 0.1
    assert float(np.median(np.abs(_recovery_aris("dsbm", 0.5)))) < 0.1
    assert time.monotonic() - start < 120.0


# -------------------------------------------------- 6. noise-sweep trend + IO

SWEEP_CFG = """
[graph]
model = "dsbm"
meta = "cycle"
n = 1000
k = 3
p = 0.02
rho = 1.5
seed = 0

[sweep]
param = "eta"
values = [0.0, 0.1, 0.2, 0.3, 0.4]
method = "hermitian_imbalance"
k = 3
instances = 2
seeds = [0, 1, 2, 3, 4]
"""


@criterion("noise-sweep-trend")
def test_c6_sweep_trend(tmp_path):
    start = time.monotonic()
    cfg = tmp_path / "sweep.toml"
    cfg.write_text(SWEEP_CFG, encoding="utf-8")
    out = tmp_path / "out"
    assert cli_main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "sweep.svg").exists()
    rows = [ln.split(",") for ln in (out / "runs.csv").read_text().splitlines()
            if ln and not ln.startswith("#")][1:]
    assert len(rows) == 5 * 2 * 5
    by_value = {}
    for sv, inst, seed, metric, value in rows:
        by_value.setdefault(float(sv), []).append(float(value))
    # aggregate file matches per-run rows to 1e-12
    agg_rows = [ln.split(",") for ln in
                (out / "summary.csv").read_text().splitlines()
                if ln and not ln.startswith("#")][1:]
    for sv, metric, mean, sd, count in agg_rows:
        vals = np.asarray(by_value[float(sv)])
        assert abs(float(mean) - vals.mean()) <= 1e-12
        assert abs(float(sd) - vals.std(ddof=1)) <= 1e-12
        assert int(count) == vals.size
    # monotone non-increasing within one standard deviation
    grid = sorted(by_value)
    means = [np.mean(by_value[v]) for v in grid]
    sds = [np.std(by_value[v], ddof=1) for v in grid]
    for i in range(len(grid) - 1):
        assert means[i + 1] <= means[i] + sds[i]
    assert time.monotonic() - start < 300.0


# ------------------------------------------------------ 7. splitter contracts

def _connected_fixture(seed):
    inst = ssbm(24, 2, 0.25, 0.25, eta=0.3, seed=seed)
    g, _ = largest_weakly_connected_component(inst.graph)
    return g


def _random_digraph(seed):
    rng = stream(7000 + seed)
    n = int(rng.integers(8, 31))
    edges = {}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.3:
                w = 1.0 if rng.random() < 0.6 else -1.0
                r = rng.random()
                if r < 0.25:
                    edges[(u, v)] = w
                    edges[(v, u)] = 1.0 if rng.random() < 0.6 else -1.0
                elif r < 0.65:
                    edges[(u, v)] = w
                else:
                    edges[(v, u)] = w
    return sdnet.SignedDirectedGraph.from_edges(
        n, [(u, v, w) for (u, v), w in sorted(edges.items())])


@criterion("splitter-contracts")
def test_c7_splitter_contracts():
    tasks = ("SP", "DP", "EP", "3C", "4C", "5C")
    checked = 0
    for i in range(500):
        g = _random_digraph(i)
        task = tasks[i % len(tasks)]
        try:
            split = link_class_split(g, task, prob_val=0.2, prob_test=0.1, seed=i)
        except ValueError:
            # legitimate only when some class is genuinely empty
            queries, labels, _, _ = _enumerate_candidates(g, task, stream(i))
            counts = np.bincount(np.asarray(labels, dtype=np.int64),
                                 minlength=len(LABEL_NAMES[task]))
            assert np.any(counts == 0)
            continue
        checked += 1
        seen = set()
        for pairs in (split.train_pairs, split.val_pairs, split.test_pairs):
            keys = {(int(u), int(v)) for u, v in pairs}
            assert not (keys & seen)
            seen |= keys
        w = {(u, v) for u, v, _ in g.edge_list()}
        for labels in (split.train_labels, split.val_labels, split.test_labels):
            assert np.all((labels >= 0) & (labels < len(LABEL_NAMES[task])))
        if task in ("DP", "3C", "4C", "5C"):
            # discard rule against the brute-force condition checker
            discarded = {(int(a), int(b)) for a, b in split.discarded_pairs}
            for a, b in discarded:
                assert ((a, b) in w) and ((b, a) in w)
            for u, v in seen:
                a, b = min(u, v), max(u, v)
                both = ((a, b) in w) and ((b, a) in w)
                assert not both, "reciprocal pair escaped the discard rule"
    assert checked >= 200  # assertions exercised on a solid majority
    # connectivity preservation
    for seed in range(20):
        g = _connected_fixture(seed)
        split = link_class_split(g, "SP", prob_val=0.3, prob_test=0.2,
                                 maintain_connectedness=True, seed=seed)
        sub, _ = largest_weakly_connected_component(split.observed_graph)
        assert sub.num_nodes == g.num_nodes
    # node splits honor the rounding rule exactly
    rng = stream(99)
    for trial in range(100):
        sizes = rng.integers(3, 50, size=int(rng.integers(2, 5)))
        labels = np.repeat(np.arange(sizes.size), sizes)
        split = node_split(labels, 0.8, 0.1, 0.1, seed_frac=0.1,
                           num_splits=2, seed=trial)
        for rep in range(2):
            for c in range(sizes.size):
                members = labels == c
                expect = _mask_counts(int(sizes[c]), (0.8, 0.1, 0.1))
                got = [int(split.train[members, rep].sum()),
                       int(split.val[members, rep].sum()),
                       int(split.test[members, rep].sum())]
                assert got == expect


# ------------------------------------------------- 8. link-prediction signal

@criterion("linkpred-signal-sp")
def test_c8a_sp_beats_majority():
    start = time.monotonic()
    inst = sdsbm(f1_meta(0.0), 500, 0.1, seed=0)
    res = linkpred_run(inst.graph, "SP", embed_method="signed_spectral",
                       embed_dim=8, seeds=range(5))
    agg = res.aggregate()
    acc = agg[(0.0, "accuracy")][0]
    maj = agg[(0.0, "majority")][0]
    assert acc >= maj + 0.10, f"SP accuracy {acc:.3f} vs majority {maj:.3f}"
    assert time.monotonic() - start < 90.0


@criterion("linkpred-signal-dp")
def test_c8b_dp_accuracy():
    # Direction prediction on the cyclic block model. Across clusters the
    # meta-graph fixes each edge's direction; within a cluster each
    # direction is drawn independently with F = 0.5, and the splitter
    # discards reciprocal pairs, so a within-cluster query's label is a
    # fair coin independent of everything observable. No classifier can
    # beat the meta-graph oracle (forward iff F[c_u, c_v] >= F[c_v, c_u]),
    # which therefore sets the ceiling (about 0.84 here, not 1.0).
    # A 0.9 bar is 80% of the way from chance (0.5) to a perfect 1.0; the
    # same 80% is asserted here from the majority rate to that ceiling.
    # A direction-blind pipeline (the additive concat combiner, 0.494)
    # fails it; the same pipeline reaches 1.0 when the task is fully
    # solvable (test_linkpred_direction_learnable_on_acyclic_meta).
    start = time.monotonic()
    seeds = range(5)
    meta = meta_graph("cycle", 3)
    inst = dsbm(meta, 500, 3, 0.1, seed=0)
    res = linkpred_run(inst.graph, "DP", embed_method="hermitian_spectral",
                       embed_dim=8, seeds=seeds, prob_val=0.15, prob_test=0.05)
    agg = res.aggregate()
    acc = agg[(0.0, "accuracy")][0]
    maj = agg[(0.0, "majority")][0]
    assert time.monotonic() - start < 180.0
    ff, c = meta.F_filled, inst.labels
    hits = []
    for s in seeds:  # the split is deterministic: this is the one linkpred_run drew
        split = link_class_split(inst.graph, "DP", prob_val=0.15, prob_test=0.05,
                                 seed=s)
        u, v = split.test_pairs[:, 0], split.test_pairs[:, 1]
        pred = np.where(ff[c[u], c[v]] >= ff[c[v], c[u]], 0, 1)  # 0 = forward
        hits.append(float(np.mean(pred == split.test_labels)))
    oracle = float(np.mean(hits))
    assert oracle - maj >= 0.25, f"oracle {oracle:.3f} vs majority {maj:.3f}"
    bar = maj + 0.8 * (oracle - maj)
    assert acc >= bar, (f"DP accuracy {acc:.3f} below {bar:.3f} "
                        f"(majority {maj:.3f}, oracle {oracle:.3f})")


# ------------------------------------------------------------ 9. determinism

GEN_CFG = """
[graph]
model = "ssbm"
n = 60
k = 3
p_in = 0.2
p_out = 0.2
eta = 0.1
seed = 3
"""

SPLIT_NODE = GEN_CFG + """
[split]
kind = "node"
seed_frac = 0.1
num_splits = 2
"""

SPLIT_LINK = GEN_CFG + """
[split]
kind = "link"
task = "SP"
"""

CLUSTER_CFG = GEN_CFG + """
[cluster]
method = "signed_laplacian_sym"
k = 3
"""

LINKPRED_CFG = """
[graph]
model = "sdsbm"
n = 120
p = 0.2
meta = "f1"
gamma = 0.0
seed = 0

[linkpred]
task = "SP"
embed = "signed_spectral"
embed_dim = 4
seeds = [0, 1]
"""

SMALL_SWEEP = """
[graph]
model = "dsbm"
meta = "cycle"
n = 60
k = 3
p = 0.3
seed = 0

[sweep]
param = "eta"
values = [0.0, 0.4]
method = "hermitian_imbalance"
k = 3
instances = 1
seeds = [0, 1]
"""


@criterion("cli-determinism")
def test_c9_cli_byte_determinism(tmp_path):
    gen_dir = tmp_path / "gen"
    cfg = tmp_path / "gen.toml"
    cfg.write_text(GEN_CFG, encoding="utf-8")
    assert cli_main(["generate", "--config", str(cfg), "--out", str(gen_dir)]) == 0
    metrics_cfg = (f'[graph]\npath = "{gen_dir}/edges.tsv"\n\n[metrics]\n'
                   f'labels_true = "{gen_dir}/labels.csv"\n'
                   f'labels_pred = "{gen_dir}/labels.csv"\n'
                   f'names = ["ari", "unhappy_ratio"]\n')
    cases = {
        "generate": GEN_CFG,
        "split-node": SPLIT_NODE,
        "split-link": SPLIT_LINK,
        "cluster": CLUSTER_CFG,
        "linkpred": LINKPRED_CFG,
        "sweep": SMALL_SWEEP,
        "metrics": metrics_cfg,
    }
    for name, text in cases.items():
        command = name.split("-")[0]
        cpath = tmp_path / f"{name}.toml"
        cpath.write_text(text, encoding="utf-8")
        outs = []
        for run in ("r1", "r2"):
            odir = tmp_path / name / run
            assert cli_main([command, "--config", str(cpath),
                             "--out", str(odir)]) == 0, name
            outs.append(odir)
        files1 = sorted(p.name for p in outs[0].iterdir())
        files2 = sorted(p.name for p in outs[1].iterdir())
        assert files1 == files2 and files1, name
        for fname in files1:
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes(), \
                f"{name}/{fname} not byte-identical"
