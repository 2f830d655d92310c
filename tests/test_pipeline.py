import numpy as np
import pytest

from sdnet.generators import custom_meta, dsbm
from sdnet.pipeline import (ExperimentConfig, RunRecord, RunResult,
                            cluster_sweep, edge_feature_matrix,
                            generate_from_params, linkpred_run)


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


def test_experiment_config_validation():
    ExperimentConfig(graph={"model": "ssbm"}, task="clustering")
    ExperimentConfig(graph={"path": "x.tsv"}, task="DP")
    with pytest.raises(ValueError):
        ExperimentConfig(graph={})
    with pytest.raises(ValueError):
        ExperimentConfig(graph={"model": "ssbm"}, task="XY")
    with pytest.raises(ValueError):
        ExperimentConfig(graph={"model": "ssbm"}, seeds=())


def test_edge_feature_combiners():
    x = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    pairs = np.array([[0, 2], [1, 0]])
    cat = edge_feature_matrix(x, pairs, "concat")
    assert cat.shape == (2, 4) and list(cat[0]) == [1.0, 2.0, 5.0, 6.0]
    had = edge_feature_matrix(x, pairs, "hadamard")
    assert list(had[0]) == [5.0, 12.0]
    diff = edge_feature_matrix(x, pairs, "difference")
    assert list(diff[1]) == [2.0, 2.0]
    with pytest.raises(ValueError):
        edge_feature_matrix(x, pairs, "outer")


def test_phase_combiner_swap_negates_imaginary_block():
    rng = np.random.default_rng(0)
    z = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
    pairs = np.array([[0, 1], [2, 5], [4, 3]])
    fwd = edge_feature_matrix(z, pairs, "phase")
    bwd = edge_feature_matrix(z, pairs[:, ::-1], "phase")
    assert fwd.shape == (3, 6)
    np.testing.assert_allclose(bwd[:, :3], fwd[:, :3])
    np.testing.assert_allclose(bwd[:, 3:], -fwd[:, 3:])
    with pytest.raises(ValueError):
        edge_feature_matrix(z.real, pairs, "phase")


def test_phase_combiner_ignores_column_global_phase():
    rng = np.random.default_rng(1)
    z = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
    pairs = np.array([[0, 1], [2, 5], [4, 3], [1, 0]])
    rotated = z * np.exp(1j * np.array([0.3, -2.0, 1.7]))[None, :]
    np.testing.assert_allclose(edge_feature_matrix(rotated, pairs, "phase"),
                               edge_feature_matrix(z, pairs, "phase"),
                               atol=1e-12)


def test_phase_combiner_rejects_real_embedding():
    inst = generate_from_params({"model": "sdsbm", "n": 60, "p": 0.3,
                                 "meta": "f1", "gamma": 0.0}, seed=0)
    with pytest.raises(ValueError):
        linkpred_run(inst.graph, "SP", embed_method="signed_spectral",
                     embed_dim=2, seeds=(0,), combine="phase", epochs=5)


def test_linkpred_default_combiner_is_concat_for_real_embeddings():
    inst = generate_from_params({"model": "sdsbm", "n": 60, "p": 0.3,
                                 "meta": "f1", "gamma": 0.0}, seed=0)
    kwargs = dict(embed_method="signed_spectral", embed_dim=2, seeds=(0,),
                  epochs=20)
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
    from sdnet.generators import signed_erdos_renyi
    g = signed_erdos_renyi(80, 0.4, seed=1)
    res = linkpred_run(g, "EP", embed_method="signed_degree", seeds=(0, 1, 2),
                       epochs=100)
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


def test_linkpred_multiclass_records_accuracy_only():
    inst = generate_from_params({"model": "sdsbm", "n": 150, "p": 0.25,
                                 "meta": "f1", "gamma": 0.0}, seed=1)
    res = linkpred_run(inst.graph, "4C", embed_method="signed_spectral",
                       embed_dim=6, seeds=(0,), epochs=100)
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
    with pytest.raises(ValueError):
        cluster_sweep({"model": "dsbm", "n": 30, "k": 3, "p": 0.2},
                      "zeta", [0.1], "hermitian_imbalance", 3)


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
linkpred_run(sp, "SP", embed_method="signed_spectral", embed_dim=4, seeds=[0], epochs=20)
dp = generate_from_params({"model": "dsbm", "meta": "cycle", "n": 90, "k": 3, "p": 0.2},
                          seed=0).graph
linkpred_run(dp, "DP", embed_method="hermitian_spectral", embed_dim=3, seeds=[0], epochs=20)
sdnet.link_class_split(sp, "4C", maintain_connectedness=True, seed=1)
sdnet.largest_weakly_connected_component(sp)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
