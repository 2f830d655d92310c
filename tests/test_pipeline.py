import re

import numpy as np
import pytest

from sdnet.generators import custom_meta, dsbm
from sdnet.pipeline import (RunRecord, RunResult, _phase_block, cluster_sweep,
                            generate_from_params, linkpred_run, resolve_combiner)


def test_generate_from_params_dispatch():
    inst = generate_from_params({"model": "ssbm", "n": 30, "k": 2,
                                 "p_in": 0.3, "p_out": 0.3, "eta": 0.1}, seed=1)
    assert inst.graph.num_nodes == 30
    inst = generate_from_params({"model": "dsbm", "n": 30, "k": 3,
                                 "p": 0.2, "meta": "cycle"}, seed=2)
    assert inst.params["model"] == "dsbm"
    inst = generate_from_params({"model": "sdsbm", "n": 30, "p": 0.2,
                                 "meta": "f2", "gamma": 0.2}, seed=0)
    assert inst.labels.max() == 3
    inst = generate_from_params({"model": "erdos_renyi", "n": 20, "p": 0.2})
    assert inst.graph.num_nodes == 20
    with pytest.raises(ValueError):
        generate_from_params({"model": "nope", "n": 5})


def test_edge_feature_combiners():
    assert resolve_combiner("signed_spectral") == "concat"
    assert resolve_combiner("hermitian_spectral") == "phase"
    assert resolve_combiner("hermitian_spectral", "concat") == "concat"
    with pytest.raises(ValueError, match="unknown edge combiner 'outer'"):
        resolve_combiner("signed_spectral", "outer")
    with pytest.raises(ValueError, match="needs a complex embedding"):
        resolve_combiner("signed_spectral", "phase")


def _phase(z, pairs):
    return _phase_block(z, pairs, np.empty((len(pairs), 2 * z.shape[1])))


def test_phase_combiner_swap_negates_imaginary_block():
    rng = np.random.default_rng(0)
    z = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
    pairs = np.array([[0, 1], [2, 5], [4, 3]])
    fwd = _phase(z, pairs)
    bwd = _phase(z, pairs[:, ::-1])
    assert fwd.shape == (3, 6)
    np.testing.assert_allclose(bwd[:, :3], fwd[:, :3])
    np.testing.assert_allclose(bwd[:, 3:], -fwd[:, 3:])


def test_phase_combiner_ignores_column_global_phase():
    rng = np.random.default_rng(1)
    z = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
    pairs = np.array([[0, 1], [2, 5], [4, 3], [1, 0]])
    rotated = z * np.exp(1j * np.array([0.3, -2.0, 1.7]))[None, :]
    np.testing.assert_allclose(_phase(rotated, pairs), _phase(z, pairs), atol=1e-12)


def test_phase_combiner_and_link_features_share_one_phase_block(monkeypatch):
    # the property tests above reach the block linkpred_run's features use
    import sdnet.pipeline as pipeline
    from sdnet.splitters import link_class_split
    calls = []

    def record(z, pairs, out):
        calls.append(out.shape)
        return real(z, pairs, out)

    real = pipeline._phase_block
    monkeypatch.setattr(pipeline, "_phase_block", record)
    g = generate_from_params({"model": "dsbm", "meta": "cycle", "n": 90, "k": 3,
                              "p": 0.2}, seed=1).graph
    split = link_class_split(g, "DP", seed=0)
    folds = (split.train_pairs, split.val_pairs, split.test_pairs)
    xs = pipeline._link_features(split.observed_graph, folds, "hermitian_spectral",
                                 4, "phase", 0.25, 0.25)
    assert calls == [x.shape for x in xs] and all(x.shape[1] == 16 for x in xs)


def test_phase_combiner_rejects_real_embedding():
    inst = generate_from_params({"model": "sdsbm", "n": 60, "p": 0.3,
                                 "meta": "f1", "gamma": 0.0}, seed=0)
    with pytest.raises(ValueError):
        linkpred_run(inst.graph, "SP", embed_method="signed_spectral",
                     embed_dim=2, seeds=(0,), combine="phase")


def test_linkpred_default_combiner_is_concat_for_real_embeddings():
    inst = generate_from_params({"model": "sdsbm", "n": 60, "p": 0.3,
                                 "meta": "f1", "gamma": 0.0}, seed=0)
    kwargs = dict(embed_method="signed_spectral", embed_dim=2, seeds=(0,))
    assert (linkpred_run(inst.graph, "SP", **kwargs).rows()
            == linkpred_run(inst.graph, "SP", combine="concat", **kwargs).rows())


def test_run_result_aggregate_matches_rows():
    records = (RunRecord(0.0, 0, 0, "m", 1.0), RunRecord(0.0, 0, 1, "m", 0.0),
               RunRecord(0.5, 0, 0, "m", 0.5))
    result = RunResult(records)
    agg = result.aggregate()
    assert agg[(0.0, "m")][0] == pytest.approx(0.5)
    assert agg[(0.0, "m")][1] == pytest.approx(np.std([1.0, 0.0], ddof=1))
    assert agg[(0.5, "m")] == (0.5, 0.0, 1)
    rows = result.rows()
    assert rows[0][:3] == (0.0, 0, 0)


def test_linkpred_ep_no_signal_on_dense_er():
    # dense ER: degrees concentrate, so edge presence is near-unpredictable
    from sdnet.generators import erdos_renyi
    g = erdos_renyi(80, 0.4, seed=1).graph
    res = linkpred_run(g, "EP", embed_method="signed_degree", seeds=(0, 1, 2))
    acc = res.aggregate()[(0.0, "accuracy")][0]
    assert 0.35 <= acc <= 0.65


def test_linkpred_direction_learnable_on_acyclic_meta():
    meta = custom_meta([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    inst = dsbm(meta, 120, 3, 0.4, seed=0)
    res = linkpred_run(inst.graph, "DP", embed_method="hermitian_spectral",
                       embed_dim=4, seeds=(0, 1, 2))
    agg = res.aggregate()
    assert agg[(0.0, "accuracy")][0] >= 0.95
    assert agg[(0.0, "auc")][0] >= 0.95


def test_linkpred_sp_signal():
    inst = generate_from_params({"model": "sdsbm", "n": 200, "p": 0.2,
                                 "meta": "f1", "gamma": 0.0}, seed=0)
    res = linkpred_run(inst.graph, "SP", embed_method="signed_spectral",
                       embed_dim=6, seeds=(0, 1))
    agg = res.aggregate()
    assert agg[(0.0, "accuracy")][0] >= agg[(0.0, "majority")][0] + 0.05
    assert ("auc" in {k[1] for k in agg}) and ("macro_f1" in {k[1] for k in agg})


@pytest.mark.parametrize("task,embed", [("SP", "signed_spectral"),
                                        ("DP", "hermitian_spectral")])
def test_linkpred_chooses_l2_on_the_validation_fold(task, embed):
    from sdnet.logistic import Design, logistic_train
    from sdnet.metrics import accuracy, auc
    from sdnet.pipeline import L2_GRID, _link_features, resolve_combiner
    from sdnet.splitters import link_class_split
    params = ({"model": "sdsbm", "n": 200, "p": 0.2, "meta": "f1", "gamma": 0.0}
              if task == "SP" else
              {"model": "dsbm", "meta": "cycle", "n": 150, "k": 3, "p": 0.2})
    g = generate_from_params(params, seed=4).graph
    split = link_class_split(g, task, seed=3)
    x_train, x_val, x_test = _link_features(
        split.observed_graph, (split.train_pairs, split.val_pairs, split.test_pairs),
        embed, 6, resolve_combiner(embed), 0.25, 0.25)
    design = Design(x_train, split.train_labels, np.arange(2))
    fits, prev = [], None
    for l2 in L2_GRID:
        prev = logistic_train(design, l2=l2, start=prev)
        fits.append((accuracy(prev.predict(x_val), split.val_labels), prev))
    best = max(acc for acc, _ in fits)
    chosen = next(fit for acc, fit in fits if acc == best)  # larger l2 wins ties
    got = {r.metric: r.value for r in linkpred_run(
        g, task, embed_method=embed, embed_dim=6, seeds=(3,)).records}
    assert got["accuracy"] == accuracy(chosen.predict(x_test), split.test_labels)
    assert got["auc"] == auc(chosen.predict_proba(x_test)[:, 1], split.test_labels)


@pytest.mark.parametrize("embed", ["hermitian_spectral", "magnetic_laplacian"])
def test_phase_features_equal_the_stacked_standardized_composition(embed):
    # reference: hstack each fold's phase and degree blocks, then
    # standardize every fold by the training fold's statistics, written
    # out here apart from standardize_columns; the dsbm graph has no
    # negative edges, so its negative-degree columns are constant and
    # take the std = 0 branch
    from sdnet.graph import signed_degree_features
    from sdnet.pipeline import _embedding, _link_features
    from sdnet.splitters import link_class_split
    g = generate_from_params({"model": "dsbm", "meta": "cycle", "n": 150, "k": 3,
                              "p": 0.2}, seed=4).graph
    split = link_class_split(g, "DP", seed=3)
    obs = split.observed_graph
    folds = (split.train_pairs, split.val_pairs, split.test_pairs)
    z = _embedding(obs, embed, 6, 0.25, 0.25)
    deg = signed_degree_features(obs).values
    xs = [np.hstack([_phase(z, p), deg[p].reshape(len(p), -1)]) for p in folds]
    mean, std = xs[0].mean(axis=0), xs[0].std(axis=0)
    nz = std > 0
    ref = [np.zeros_like(x) for x in xs]
    for x, out in zip(xs, ref):
        out[:, nz] = (x[:, nz] - mean[nz]) / std[nz]
    got = _link_features(obs, folds, embed, 6, "phase", 0.25, 0.25)
    assert (xs[0].std(axis=0) == 0).any()
    for a, b in zip(got, ref):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


SDSBM = {"model": "sdsbm", "n": 150, "p": 0.2, "meta": "f1", "gamma": 0.0}
# embedding -> (link task, graph record) of each concat case
CONCAT_CASES = {
    "signed_spectral": ("SP", SDSBM),
    "signed_laplacian_sym": ("SP", SDSBM),
    "signed_magnetic_laplacian": ("DP", {"model": "dsbm", "meta": "cycle", "n": 150,
                                         "k": 3, "p": 0.2}),
    "signed_degree": ("SP", {"model": "ssbm", "n": 150, "k": 2, "p_in": 0.2,
                             "p_out": 0.1, "eta": 0.1}),
}


@pytest.mark.parametrize("embed", list(CONCAT_CASES))
def test_concat_features_equal_the_gathered_node_table(embed):
    # reference: the node table [standardize_columns(real_columns(z)) | deg],
    # or deg alone for signed_degree, indexed by each fold's pairs
    from sdnet.cluster import real_columns
    from sdnet.graph import signed_degree_features, standardize_columns
    from sdnet.pipeline import _embedding, _link_features
    from sdnet.splitters import link_class_split
    task, params = CONCAT_CASES[embed]
    g = generate_from_params(params, seed=4).graph
    split = link_class_split(g, task, seed=3)
    obs = split.observed_graph
    folds = (split.train_pairs, split.val_pairs, split.test_pairs)
    deg = signed_degree_features(obs).values
    table = deg
    if embed != "signed_degree":
        z = _embedding(obs, embed, 4, 0.25, 0.25)
        table = np.hstack([standardize_columns(real_columns(z)), deg])
    got = _link_features(obs, folds, embed, 4, "concat", 0.25, 0.25)
    assert len(got) == len(folds)
    for x, p in zip(got, folds):
        ref = table[p].reshape(len(p), -1)
        assert x.shape == (len(p), 2 * table.shape[1]) and x.tobytes() == ref.tobytes()


def test_linkpred_needs_a_validation_fold():
    inst = generate_from_params({"model": "sdsbm", "n": 60, "p": 0.3,
                                 "meta": "f1", "gamma": 0.0}, seed=0)
    with pytest.raises(ValueError, match="validation fold"):
        linkpred_run(inst.graph, "SP", embed_dim=2, seeds=(0,), prob_val=0.0)


def test_linkpred_needs_a_seed():
    inst = generate_from_params({"model": "sdsbm", "n": 60, "p": 0.3,
                                 "meta": "f1", "gamma": 0.0}, seed=0)
    with pytest.raises(ValueError, match="need at least one seed"):
        linkpred_run(inst.graph, "SP", embed_dim=2, seeds=[])


def test_linkpred_multiclass_records_accuracy_only():
    inst = generate_from_params({"model": "sdsbm", "n": 150, "p": 0.25,
                                 "meta": "f1", "gamma": 0.0}, seed=1)
    res = linkpred_run(inst.graph, "4C", embed_method="signed_spectral",
                       embed_dim=6, seeds=(0,))
    metrics = {k[1] for k in res.aggregate()}
    assert metrics == {"accuracy", "majority"}


def test_cluster_sweep_rows_and_determinism():
    gp = {"model": "dsbm", "meta": "cycle", "n": 60, "k": 3, "p": 0.3, "seed": 0}
    res = cluster_sweep(gp, "eta", [0.0, 0.4], "hermitian_imbalance", 3,
                        instances=2, seeds=[0, 1, 2])
    rows = res.rows()
    assert len(rows) == 2 * 2 * 3  # |sweep| x instances x seeds
    res2 = cluster_sweep(gp, "eta", [0.0, 0.4], "hermitian_imbalance", 3,
                         instances=2, seeds=[0, 1, 2])
    assert rows == res2.rows()
    agg = res.aggregate()
    assert agg[(0.0, "ari")][0] >= 0.9
    assert agg[(0.0, "ari")][0] >= agg[(0.4, "ari")][0]
    # aggregate recomputable from rows
    vals = [v for sv, i, s, m, v in rows if sv == 0.0]
    assert agg[(0.0, "ari")][0] == pytest.approx(np.mean(vals), abs=1e-15)


def test_cluster_sweep_gamma_sdsbm():
    gp = {"model": "sdsbm", "meta": "f1", "n": 90, "p": 0.3, "seed": 0}
    res = cluster_sweep(gp, "gamma", [0.0], "signed_magnetic_laplacian", 3,
                        instances=1, seeds=[0, 1])
    assert res.aggregate()[(0.0, "ari")][0] >= 0.8


def test_params_regenerate_bit_identically():
    cases = [
        {"model": "ssbm", "n": 40, "k": 3, "p_in": 0.3, "p_out": 0.2, "eta": 0.1},
        {"model": "pol_ssbm", "n": 60, "r": 2, "p": 0.2, "community_nodes": 20},
        {"model": "dsbm", "n": 40, "k": 3, "p": 0.3, "meta": "cycle", "eta": 0.2},
        {"model": "sdsbm", "n": 40, "p": 0.3, "meta": "f2", "gamma": 0.25},
        {"model": "erdos_renyi", "n": 40, "p": 0.2},
    ]
    for params in cases:
        inst = generate_from_params(params, seed=11)
        again = generate_from_params(inst.params)
        assert again.graph.edge_list() == inst.graph.edge_list(), params["model"]
        assert list(again.labels) == list(inst.labels)


def test_cluster_sweep_bad_param():
    with pytest.raises(ValueError, match="takes no key\\(s\\) 'zeta'"):
        cluster_sweep({"model": "dsbm", "n": 30, "k": 3, "p": 0.2},
                      "zeta", [0.1], "hermitian_imbalance", 3)


def test_cluster_sweep_rejects_a_param_the_model_does_not_take():
    # dsbm's noise is meta_graph's eta; it has no gamma to sweep
    with pytest.raises(ValueError, match="dsbm takes no key\\(s\\) 'gamma'"):
        cluster_sweep({"model": "dsbm", "meta": "cycle", "n": 30, "k": 3, "p": 0.2},
                      "gamma", [0.0, 0.2], "hermitian_imbalance", 3)


def test_cluster_sweep_takes_any_bound_key_uncast(monkeypatch):
    import sdnet.pipeline as pipeline
    seen = []
    generate = pipeline.generate_from_params

    def record(params, seed=None):
        seen.append(params["n"])
        return generate(params, seed=seed)

    monkeypatch.setattr(pipeline, "generate_from_params", record)
    gp = {"model": "dsbm", "meta": "cycle", "k": 3, "p": 0.3, "seed": 0}
    res = cluster_sweep(gp, "n", [60, 90], "hermitian_imbalance", 3,
                        instances=1, seeds=[0])
    assert [type(n) for n in seen] == [int, int] and seen == [60, 90]
    assert [r.sweep_value for r in res.records] == [60.0, 90.0]
    assert all(type(r.sweep_value) is float for r in res.records)


def test_cluster_sweep_checks_every_value_before_generating(monkeypatch):
    import sdnet.pipeline as pipeline
    calls, generate = [], pipeline.generate_from_params

    def spy(params, seed=None):
        calls.append(params)
        return generate(params, seed=seed)

    monkeypatch.setattr(pipeline, "generate_from_params", spy)
    with pytest.raises(ValueError, match="'f1'"):
        cluster_sweep({"model": "sdsbm", "n": 60, "p": 0.2}, "meta", ["f1", "f2"],
                      "signed_laplacian_sym", 3)
    assert calls == []


@pytest.mark.parametrize("param", ["seed", "model"])
def test_cluster_sweep_rejects_seed_and_model(param):
    # each instance derives its own seed, so a swept one would be ignored
    with pytest.raises(ValueError, match=f"cannot sweep '{param}'"):
        cluster_sweep({"model": "dsbm", "meta": "cycle", "n": 30, "k": 3, "p": 0.2},
                      param, [1], "hermitian_imbalance", 3)


@pytest.mark.parametrize("params, message", [
    ({"model": "sdsbm", "meta": "f1", "n": 30, "p": 0.2, "rh0": 1.5}, "takes no key(s) 'rh0'"),
    ({"model": "sdsbm", "meta": "f1", "n": 30, "p": 0.2, "k": 7, "ambient": True},
     "takes no key(s) 'ambient', 'k'"),
    # explicit matrices replace the meta-graph builder and its keys
    ({"model": "sdsbm", "n": 30, "p": 0.2, "gamma": 0.1, "meta_kind": "custom",
      "meta_f": [[0.5, 0.5], [0.5, 0.5]], "meta_f_filled": [[0.5, 0.5], [0.5, 0.5]]},
     "takes no key(s) 'gamma'"),
    ({"model": "ssbm", "n": 30, "k": 2, "p_in": 0.3}, "missing required key 'p_out'"),
    ({"model": "dsbm", "meta": "cycle", "n": 30, "p": 0.2}, "missing required key 'k'"),
    ({"model": "sdsbm", "meta": "f3", "n": 30, "p": 0.2}, "unknown sdsbm meta 'f3'"),
])
def test_generate_from_params_rejects_bad_records(params, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        generate_from_params(params)


def test_meta_seed_sets_only_the_meta_graph_seed():
    from sdnet.generators import meta_graph
    base = {"model": "dsbm", "meta": "complete", "n": 60, "k": 4, "p": 0.3, "eta": 0.1,
            "seed": 7}
    plain = generate_from_params(base)
    inst = generate_from_params({**base, "meta_seed": 5})
    assert plain.params["seed"] == inst.params["seed"] == 7
    assert plain.params["meta_f"] == meta_graph("complete", 4, eta=0.1).F.tolist()
    assert inst.params["meta_f"] == meta_graph("complete", 4, eta=0.1, seed=5).F.tolist()


def test_cluster_sweep_needs_a_seed():
    # the unknown model is never reached: the seeds are checked first
    with pytest.raises(ValueError, match="need at least one seed"):
        cluster_sweep({"model": "nope"}, "eta", [0.1], "hermitian_imbalance", 3,
                      seeds=[])


@pytest.mark.parametrize("gp,method", [
    ({"model": "dsbm", "meta": "cycle", "n": 90, "k": 3, "p": 0.2, "seed": 2},
     "hermitian_imbalance"),
    ({"model": "sdsbm", "meta": "f1", "n": 90, "p": 0.3, "eta": 0.1, "seed": 3},
     "signed_magnetic_laplacian"),
])
def test_cluster_sweep_equals_per_seed_spectral_cluster(gp, method):
    from sdnet.cluster import spectral_cluster
    from sdnet.metrics import ari
    from sdnet.rng import derive
    from sdnet.splitters import node_split
    param = "eta" if gp["model"] == "dsbm" else "gamma"
    values, seeds = [0.0, 0.2], [0, 1, 2]
    res = cluster_sweep(gp, param, values, method, 3, instances=2, seeds=seeds)
    want = []
    for vi, value in enumerate(values):
        for inst in range(2):
            instance = generate_from_params({**gp, param: value},
                                            seed=derive(gp["seed"], vi, inst))
            for s in seeds:
                split = node_split(instance.labels, train_frac=0.8, val_frac=0.1,
                                   test_frac=0.1, num_splits=1,
                                   seed=derive(gp["seed"], vi, inst, s, 1))
                _, pred = spectral_cluster(instance.graph, method, 3,
                                           seed=derive(gp["seed"], vi, inst, s, 2))
                mask = split.test[:, 0]
                want.append(RunRecord(value, inst, s, "ari",
                                      ari(instance.labels[mask], pred[mask])))
    assert list(res.records) == want


def test_cluster_sweep_runs_each_instances_seeds_as_one_kmeans_batch(monkeypatch):
    # one Lloyd batch per (value, instance) holds all its seeds' restarts;
    # a budget below one seed's buffer runs each seed alone, with the
    # same records
    import sdnet.cluster as cluster
    batches = []
    lloyd = cluster._lloyd

    def counted(x, sq, centers, restarts, max_iter):
        batches.append(centers.shape[0] // restarts)
        return lloyd(x, sq, centers, restarts, max_iter)

    monkeypatch.setattr(cluster, "_lloyd", counted)
    gp = {"model": "dsbm", "meta": "cycle", "n": 60, "k": 3, "p": 0.3, "seed": 0}
    args = (gp, "eta", [0.0, 0.4], "hermitian_imbalance", 3)
    batched = cluster_sweep(*args, instances=2, seeds=[0, 1, 2])
    assert batches == [3] * 4
    batches.clear()
    monkeypatch.setattr(cluster, "KMEANS_BATCH_CELLS", 1)
    assert cluster_sweep(*args, instances=2, seeds=[0, 1, 2]).records == batched.records
    assert batches == [1] * 12


def test_pipelines_without_operators_load_no_scipy():
    import os
    import subprocess
    import sys
    from pathlib import Path
    script = """
import sys
import sdnet
assert "scipy" not in sys.modules, "import sdnet"
from sdnet.pipeline import generate_from_params, linkpred_run
sp = generate_from_params({"model": "sdsbm", "meta": "f1", "n": 80, "p": 0.2}, seed=0).graph
linkpred_run(sp, "SP", embed_method="signed_spectral", embed_dim=4, seeds=[0])
dp = generate_from_params({"model": "dsbm", "meta": "cycle", "n": 90, "k": 3, "p": 0.2},
                          seed=0).graph
linkpred_run(dp, "DP", embed_method="hermitian_spectral", embed_dim=3, seeds=[0])
sdnet.link_class_split(sp, "4C", maintain_connectedness=True, seed=1)
sdnet.link_class_split(sp, "EP", seed=1)
sdnet.largest_weakly_connected_component(sp)
from sdnet.generators import erdos_renyi, pol_ssbm, ssbm
ssbm(60, 3, 0.2, 0.1, eta=0.1, seed=0)
pol_ssbm(60, 2, 0.2, eta=0.1, seed=0)
erdos_renyi(60, 0.1, seed=0)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
