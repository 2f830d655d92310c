"""Workload definitions: jobs, per-job output checks and output digests.

Every job is built from the shipped ``configs/*.toml`` files or from the
acceptance suite, using public ``sdnet`` calls only, with generator and
split seeds derived from the workload seed and the job index. Calls go
through module attributes (``pipeline.cluster_sweep``), so a tracer that
rebinds those attributes sees them. Why each workload exists is recorded
in ``perfbench/WORKLOADS.md``.

A workload is ``(make_job, run, check, digest)``:

* ``make_job(j)`` returns the inputs of job ``j`` (a plain dict);
* ``run(job)`` is the timed part and returns the job's outputs;
* ``check(job, out)`` returns a list of failed checks (empty when all
  pass); it runs outside the timed interval;
* ``digest(out, h)`` feeds every output byte that must be identical
  across runs of the same seed into the hash ``h``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from sdnet import cluster, graph, metrics, pipeline, splitters
from sdnet import io as sio
from sdnet.config import load
from sdnet.generators import block_sizes
from sdnet.rng import derive

# n of each shipped config is replaced by these when the smoke test runs
TINY_N = {"cluster": 90, "linkpred": 120, "large_sparse": 600}
LARGE_N = 20000
LARGE_DEGREE = 20.0


@dataclass(frozen=True)
class Workload:
    name: str
    make_job: Callable[[int], dict]
    run: Callable[[dict], dict]
    check: Callable[[dict, dict], list[str]]
    digest: Callable[[dict, object], None]
    # untraced runs: each worker runs jobs in whole blocks of this many;
    # 2 keeps linkpred's two variants (1 s jobs) balanced in every
    # worker, while 1 keeps the 5-10 s jobs of the others within budget
    block: int = 1


def _config(root: Path, name: str) -> dict:
    return load(root / "configs" / name)


def _in_range(name, value, lo, hi) -> list[str]:
    if not (math.isfinite(value) and lo <= value <= hi):
        return [f"{name}={value!r} outside [{lo}, {hi}]"]
    return []


def _feed_records(records, h) -> None:
    for r in sorted(records, key=lambda r: (r.sweep_value, r.instance, r.seed, r.metric)):
        h.update(f"{r.sweep_value!r},{r.instance},{r.seed},{r.metric},{r.value!r};".encode())


def _feed_arrays(h, *arrays) -> None:
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape};".encode())
        h.update(a.tobytes())


def component_count(n: int, src: np.ndarray, dst: np.ndarray) -> int:
    """Weak components by hooking roots to the smaller label, then jumping."""
    lab = np.arange(n)
    while True:
        lo = np.minimum(lab[src], lab[dst])
        new = lab.copy()
        np.minimum.at(new, lab[src], lo)
        np.minimum.at(new, lab[dst], lo)
        while True:
            nxt = new[new]
            if np.array_equal(nxt, new):
                break
            new = nxt
        if np.array_equal(new, lab):
            return int(np.unique(lab).size)
        lab = new


# ---------------------------------------------------------------- cluster

def cluster_workload(root: Path, seed: int, tiny: bool) -> Workload:
    """One job = one cell of a shipped sweep, then one `sdnet cluster` scoring."""
    cells = []
    for cfg_name in ("dsbm_eta_sweep.toml", "sdsbm_f1_gamma_sweep.toml"):
        cfg = _config(root, cfg_name)
        gp = dict(cfg["graph"])
        if tiny:
            gp["n"] = TINY_N["cluster"]
        sw = cfg["sweep"]
        cells.append([(gp, sw["param"], float(v), sw["method"], int(sw["k"]),
                       tuple(sw["seeds"])) for v in sw["values"]])
    # alternate the two sweeps so any prefix of jobs holds both operators;
    # the starting cell rotates with the seed so seeds cover every value
    order = [c for pair in zip(*cells) for c in pair]

    def make_job(j: int) -> dict:
        gp, param, value, method, k, seeds = order[(2 * seed + j) % len(order)]
        base = derive(seed, j)
        return {"graph": {**gp, param: value, "seed": base}, "param": param,
                "value": value, "method": method, "k": k, "seeds": seeds,
                "instance_seed": derive(base, 0, 0)}

    def run(job: dict) -> dict:
        res = pipeline.cluster_sweep(job["graph"], job["param"], [job["value"]],
                                     job["method"], job["k"], instances=1,
                                     seeds=job["seeds"])
        inst = pipeline.generate_from_params(job["graph"], seed=job["instance_seed"])
        g = inst.graph
        soft, pred = cluster.spectral_cluster(g, job["method"], job["k"], seed=0)
        scores = {}
        if graph.is_signed(g):
            scores["unhappy_ratio"] = metrics.unhappy_ratio(g, pred)
            scores["pbnc_loss"] = metrics.pbnc_loss(g, soft)
        if graph.is_directed(g):
            scores["prob_imbalance"] = metrics.prob_imbalance(g, soft)
        return {"records": res.records, "n": g.num_nodes, "signed": graph.is_signed(g),
                "pred": pred, "P": soft.P, "scores": scores}

    def check(job: dict, out: dict) -> list[str]:
        k, fails = job["k"], []
        pred, p = out["pred"], out["P"]
        if pred.shape != (out["n"],) or pred.min() < 0 or pred.max() >= k:
            fails.append("cluster labels outside [0, k)")
        if p.shape != (out["n"], k) or not np.all(np.isfinite(p)) or np.any(p < 0) \
                or np.abs(p.sum(axis=1) - 1.0).max() > 1e-9:
            fails.append("soft assignment rows are not probability vectors")
        aris = [r.value for r in out["records"] if r.metric == "ari"]
        if len(aris) != len(job["seeds"]):
            fails.append(f"expected {len(job['seeds'])} ARI records, got {len(aris)}")
        for v in aris:
            fails += _in_range("ari", v, -1.0, 1.0)
        expected = {"prob_imbalance"} | ({"unhappy_ratio", "pbnc_loss"} if out["signed"] else set())
        if set(out["scores"]) != expected:
            fails.append(f"scored {sorted(out['scores'])}, expected {sorted(expected)}")
        bounds = {"unhappy_ratio": 1.0, "pbnc_loss": 2.0 * k, "prob_imbalance": 1.0}
        for name, v in out["scores"].items():
            fails += _in_range(name, v, 0.0, bounds[name])
        return fails

    def digest(out: dict, h) -> None:
        _feed_records(out["records"], h)
        _feed_arrays(h, out["pred"], out["P"])
        h.update(repr(sorted(out["scores"].items())).encode())

    return Workload("cluster", make_job, run, check, digest)


def ari_values(out: dict) -> list[float]:
    return [r.value for r in out["records"] if r.metric == "ari"]


# --------------------------------------------------------------- linkpred

def linkpred_workload(root: Path, seed: int, tiny: bool) -> Workload:
    """Alternate SP on the shipped sign-prediction config and DP on the c8b graph."""
    cfg = _config(root, "sdsbm_sign_prediction.toml")
    lp = cfg["linkpred"]
    sp = {"graph": dict(cfg["graph"]), "task": lp["task"], "embed": lp["embed"],
          "embed_dim": int(lp["embed_dim"]), "prob_val": float(lp["prob_val"]),
          "prob_test": float(lp["prob_test"])}
    # acceptance test c8b: dsbm(meta_graph("cycle", 3), 500, 3, 0.1)
    dp = {"graph": {"model": "dsbm", "meta": "cycle", "n": 500, "k": 3, "p": 0.1},
          "task": "DP", "embed": "hermitian_spectral", "embed_dim": 8,
          "prob_val": 0.15, "prob_test": 0.05}
    setups = (sp, dp)
    if tiny:
        for s in setups:
            s["graph"]["n"] = TINY_N["linkpred"]

    def make_job(j: int) -> dict:
        return {**setups[j % 2], "graph_seed": derive(seed, j),
                "split_seed": derive(seed, j, 1)}

    def run(job: dict) -> dict:
        g = pipeline.generate_from_params(job["graph"], seed=job["graph_seed"]).graph
        res = pipeline.linkpred_run(g, job["task"], embed_method=job["embed"],
                                    embed_dim=job["embed_dim"], seeds=[job["split_seed"]],
                                    prob_val=job["prob_val"], prob_test=job["prob_test"])
        return {"graph": g, "records": res.records}

    def check(job: dict, out: dict) -> list[str]:
        fails = []
        vals = {r.metric: r.value for r in out["records"]}
        if set(vals) != {"accuracy", "majority", "auc", "macro_f1"}:
            fails.append(f"linkpred metrics {sorted(vals)}")
        for name, v in vals.items():
            fails += _in_range(name, v, 0.0, 1.0)
        # deterministic, so this is the split linkpred_run used
        split = splitters.link_class_split(out["graph"], job["task"],
                                           prob_val=job["prob_val"],
                                           prob_test=job["prob_test"],
                                           seed=job["split_seed"])
        counts = np.bincount(split.test_labels, minlength=len(split.label_names))
        if np.any(counts == 0):
            fails.append(f"test fold misses a class: counts {counts.tolist()}")
        elif "majority" in vals and vals["majority"] != counts.max() / counts.sum():
            fails.append("majority rate disagrees with the recomputed split")
        out["split"] = split  # kept for the digest, so the split is built once
        return fails

    def digest(out: dict, h) -> None:
        split = out["split"]
        _feed_records(out["records"], h)
        _feed_arrays(h, split.train_pairs, split.train_labels, split.val_pairs,
                     split.val_labels, split.test_pairs, split.test_labels)

    return Workload("linkpred", make_job, run, check, digest, block=2)


def accuracy_values(out: dict) -> list[float]:
    return [r.value for r in out["records"] if r.metric == "accuracy"]


# ----------------------------------------------------------- large_sparse

def _f2_expected_edges(n: int, p: float, rho: float, gamma: float) -> tuple[float, float]:
    """Mean and variance of the sdsbm-f2 edge count (independent pairs).

    The meta-graph is written out here, not taken from sdnet, so the
    check does not trust the generator it checks.
    """
    g = gamma
    mag = np.abs(np.array([[0.5, g, -g, -g], [1 - g, 0.5, -0.5, -g],
                           [-1 + g, -0.5, 0.5, -g], [-1 + g, -1 + g, -1 + g, 0.5]]))
    sizes = block_sizes(n, 4, rho).sizes.astype(np.float64)
    pairs = np.outer(sizes, sizes) - np.diag(sizes)
    prob = p * mag
    return float((pairs * prob).sum()), float((pairs * prob * (1 - prob)).sum())


def large_sparse_workload(root: Path, seed: int, tiny: bool, scratch: Path) -> Workload:
    """n=20000 sdsbm-f2 through TSV I/O, LWCC, link split and degree features."""
    gp = dict(_config(root, "sdsbm_f2_gamma_sweep.toml")["graph"])
    n = TINY_N["large_sparse"] if tiny else LARGE_N
    gp.update(n=n, p=LARGE_DEGREE / n, gamma=0.1, eta=0.1)

    def make_job(j: int) -> dict:
        task = "4C" if j % 2 == 0 else "EP"
        return {"graph": gp, "graph_seed": derive(seed, j), "task": task,
                "split_seed": derive(seed, j, 1), "path": scratch / f"job{j}.tsv"}

    def run(job: dict) -> dict:
        inst = pipeline.generate_from_params(job["graph"], seed=job["graph_seed"])
        sio.write_edge_tsv(job["path"], inst.graph)
        back = sio.read_edge_tsv(job["path"])
        job["path"].unlink()
        sub, index = graph.largest_weakly_connected_component(back)
        split = splitters.link_class_split(sub, job["task"],
                                           maintain_connectedness=job["task"] == "4C",
                                           seed=job["split_seed"])
        feats = graph.signed_degree_features(split.observed_graph)
        unhappy = metrics.unhappy_ratio(sub, inst.labels[index])
        return {"graph": inst.graph, "back": back, "sub": sub, "split": split,
                "features": feats.values, "unhappy": unhappy}

    def check(job: dict, out: dict) -> list[str]:
        fails = []
        g, back, sub, split = out["graph"], out["back"], out["sub"], out["split"]
        mean, var = _f2_expected_edges(n, gp["p"], gp.get("rho", 1.0), gp["gamma"])
        # 5 sigma: at 3 sigma one honest job in ~370 would fail
        if abs(g.num_edges - mean) > 5.0 * math.sqrt(var):
            fails.append(f"{g.num_edges} edges, expected {mean:.0f} +- 5 * {math.sqrt(var):.1f}")
        if back.num_nodes != g.num_nodes or not (np.array_equal(back.src, g.src)
                                                 and np.array_equal(back.dst, g.dst)
                                                 and np.array_equal(back.weight, g.weight)):
            fails.append("edge TSV round trip changed src/dst/weight")
        obs = split.observed_graph
        if job["task"] == "4C":
            before = component_count(sub.num_nodes, sub.src, sub.dst)
            after = component_count(obs.num_nodes, obs.src, obs.dst)
            if before != after:
                fails.append(f"4C split: {before} weak components before, {after} after")
        else:
            labels = np.concatenate([split.train_labels, split.val_labels, split.test_labels])
            counts = np.bincount(labels, minlength=2)
            if counts[0] != counts[1]:
                fails.append(f"EP classes unbalanced: {counts.tolist()}")
        if out["features"].shape != (obs.num_nodes, 4) or not np.all(np.isfinite(out["features"])):
            fails.append("signed degree features are not a finite n x 4 matrix")
        fails += _in_range("unhappy_ratio", out["unhappy"], 0.0, 1.0)
        return fails

    def digest(out: dict, h) -> None:
        g, split = out["graph"], out["split"]
        _feed_arrays(h, g.src, g.dst, g.weight, split.train_pairs, split.train_labels,
                     split.val_pairs, split.val_labels, split.test_pairs,
                     split.test_labels, out["features"])
        h.update(repr(out["unhappy"]).encode())

    return Workload("large_sparse", make_job, run, check, digest)


# quality figures: averaged over each worker's first block of jobs, so
# the same seed always averages over the same jobs
QUALITY = {"cluster": ("ari_mean", ari_values), "linkpred": ("accuracy_mean", accuracy_values)}


def make(name: str, root: Path, seed: int, tiny: bool, scratch: Path) -> Workload:
    if name == "cluster":
        return cluster_workload(root, seed, tiny)
    if name == "linkpred":
        return linkpred_workload(root, seed, tiny)
    if name == "large_sparse":
        return large_sparse_workload(root, seed, tiny, scratch)
    raise ValueError(f"unknown workload {name!r}")
