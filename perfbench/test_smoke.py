"""Smoke test of the benchmark harness on tiny graphs.

Runs every workload through ``run.py --tiny`` in both modes and checks
the printed metrics against ``BENCHMARK.json``; runs a copy of the
checkout whose ``unhappy_ratio`` is broken and checks that the failure
is counted and turns the exit status non-zero; and checks the tracer's
patching and self-time arithmetic directly.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REPORT_ONLY = {"cluster": ["fail_ratio", "ari_mean"],
               "linkpred": ["fail_ratio", "accuracy_mean"],
               "large_sparse": ["fail_ratio"]}


def _bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=170)


def _report(stdout: str) -> dict[str, tuple[float, str]]:
    rows = {}
    for line in stdout.splitlines()[:-1]:
        if not line.startswith("#"):
            name, value, unit = line.split()
            rows[name] = (float(value), unit)
    return rows


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0.2",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {k: v["unit"] for k, v in last["metrics"].items()}
    report = _report(proc.stdout)
    for m in declared:
        assert report[m["name"]][1] == m["unit"]
    for name in REPORT_ONLY[workload]:
        assert name in report
    assert report["fail_ratio"][0] == 0.0
    if trace:
        assert report["trace.coverage_ratio"][0] >= 0.9


def _copy_checkout(dst: Path, with_sources: bool) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", dst / "BENCHMARK.json")
    shutil.copytree(HERE, dst / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    if with_sources:
        shutil.copytree(ROOT / "src", dst / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        shutil.copytree(ROOT / "configs", dst / "configs")
    return dst


def test_failed_check_raises_fail_ratio_and_exit_status(tmp_path):
    root = _copy_checkout(tmp_path, with_sources=True)
    metrics_py = root / "src" / "sdnet" / "metrics.py"
    text = metrics_py.read_text()
    broken = text.replace('    return float(mass[bad].sum() / mass.sum())',
                          '    return 1.5')
    assert broken != text
    metrics_py.write_text(broken)
    proc = _bench(root, "--workload", "large_sparse", "--seed", "3", "--seconds", "0.2",
                  "--trace", "0", "--tiny")
    assert proc.returncode == 1
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] == last["attempted"]
    assert _report(proc.stdout)["fail_ratio"][0] == 1.0
    assert "unhappy_ratio=1.5" in proc.stderr


def test_refuses_to_run_without_sources(tmp_path):
    root = _copy_checkout(tmp_path, with_sources=False)
    proc = _bench(root, "--workload", "cluster", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_tracer_patches_the_names_callers_look_up():
    import sdnet
    from sdnet import cluster, pipeline, splitters
    t = tracer.Tracer()
    bound = t.install()
    try:
        for name in ("sdnet.pipeline.link_class_split", "sdnet.pipeline.logistic_train",
                     "sdnet.pipeline.spectral_cluster", "sdnet.cluster.kmeans_full",
                     "sdnet.cluster.signed_spectral_features",
                     "sdnet.splitters.spanning_forest", "sdnet.spectral.eigh",
                     "sdnet.generators.sdsbm", "sdnet.sdsbm"):
            assert name in bound
        assert hasattr(pipeline.logistic_train, "__wrapped__")
        inst = sdnet.sdsbm(sdnet.f1_meta(0.1), 60, 0.3, seed=1)
        with t.span("job"):
            cluster.spectral_cluster(inst.graph, "signed_magnetic_laplacian", 3)
            splitters.link_class_split(inst.graph, "4C", maintain_connectedness=True)
    finally:
        t.uninstall()
    assert not hasattr(pipeline.logistic_train, "__wrapped__")
    names = [s[0] for s in t.spans]
    for bucket in ("spectral.operator_s", "spectral.eigh_s", "cluster.kmeans_s",
                   "cluster.s", "splitters.link_s", "splitters.forest_s"):
        assert bucket in names
    layers = tracer.layer_metrics(t.spans, 1)
    assert layers["spectral.eigh_calls"] == 1
    assert layers["spectral.eigh_residual_max"] < 1e-9
    assert layers["trace.coverage_ratio"] > 0.9


def test_self_time_subtracts_children():
    spans = [["job", 0.0, 10.0, None, 0, {}],
             ["pipeline.s", 1.0, 9.0, 0, 0, {}],
             ["spectral.eigh_s", 2.0, 5.0, 1, 0, {"residual": 1e-12}],
             ["pipeline.s", 5.0, 8.0, 1, 0, {}],
             ["logistic.fit_s", 6.0, 7.5, 3, 0, {"rows": 10, "epochs": 4}],
             [tracer.GUARD, 8.5, 9.0, 1, 0, {}]]
    m = tracer.layer_metrics(spans, 1)
    # outer pipeline span: 8 - 3 (eigh) - 3 (inner) - 0.5 (guard); inner: 3 - 1.5
    assert m["pipeline.self_s"] == pytest.approx(1.5 + 1.5)
    assert m["spectral.eigh_s"] == 3.0 and m["logistic.fit_s"] == 1.5
    assert m["logistic.row_epochs_per_s"] == pytest.approx(40 / 1.5)
    assert m["trace.coverage_ratio"] == pytest.approx(7.5 / 10.0)


def test_component_count_matches_a_reference():
    sparse = pytest.importorskip("scipy.sparse")
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    rng = np.random.default_rng(0)
    for n, m in ((1, 0), (50, 20), (200, 180), (300, 900)):
        src = rng.integers(0, n, m)
        dst = rng.integers(0, n, m)
        adj = sparse.coo_matrix((np.ones(m), (src, dst)), shape=(n, n))
        want, _ = csgraph.connected_components(adj, directed=True, connection="weak")
        assert workloads.component_count(n, src, dst) == want
