"""End-to-end experiment pipelines.

``linkpred_run`` realizes the embed-then-classify link-prediction
recipe: split the task queries, embed nodes of the observed graph
(spectral features stacked with signed degree features), form edge
features from the query endpoints and train a logistic classifier on
the training fold; complex embeddings feed the ``phase`` combiner,
whose conj(z_u) * z_v block carries edge direction. ``cluster_sweep``
drives spectral clustering over a swept generator parameter and reports
test-mask agreement per run.

Seeds for sub-steps are derived from the run seed with fixed tags, so
an entire experiment is a pure function of its configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import generators as gen
from .cluster import (_embedding, cluster_embedding, spectral_cluster,
                      spectral_embedding)
from .graph import SignedDirectedGraph, signed_degree_features
from .logistic import logistic_train
from .metrics import accuracy, ari, auc, macro_f1
from .rng import derive
from .splitters import canonical_task, link_class_split, node_split

# Edge combiners for ``linkpred_run``. ``phase`` needs a complex
# embedding (one of COMPLEX_EMBEDDINGS) and is their default; real
# embeddings default to ``concat``.
EDGE_COMBINERS = ("concat", "hadamard", "difference", "phase")
COMPLEX_EMBEDDINGS = ("hermitian_spectral", "hermitian_imbalance",
                      "magnetic_laplacian", "signed_magnetic_laplacian")


@dataclass(frozen=True)
class RunRecord:
    sweep_value: float
    instance: int
    seed: int
    metric: str
    value: float


@dataclass(frozen=True)
class RunResult:
    """Per-run metric rows; aggregates are always recomputed from them."""

    records: tuple[RunRecord, ...]

    def rows(self) -> list[tuple]:
        ordered = sorted(self.records, key=lambda r: (r.sweep_value, r.instance,
                                                      r.seed, r.metric))
        return [(r.sweep_value, r.instance, r.seed, r.metric, r.value) for r in ordered]

    def aggregate(self) -> dict[tuple[float, str], tuple[float, float, int]]:
        """(sweep_value, metric) -> (mean, sd, count); sd uses ddof=1."""
        groups: dict[tuple[float, str], list[float]] = {}
        for r in self.records:
            groups.setdefault((r.sweep_value, r.metric), []).append(r.value)
        out = {}
        for key in sorted(groups):
            vals = np.asarray(groups[key], dtype=np.float64)
            sd = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
            out[key] = (float(vals.mean()), sd, int(vals.size))
        return out

    def metric_values(self, metric: str) -> list[float]:
        return [r.value for r in self.records if r.metric == metric]


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated bundle of generator/method/split settings for the CLI."""

    graph: dict
    method: str | None = None
    task: str | None = None
    splits: dict = field(default_factory=dict)
    seeds: tuple[int, ...] = (0,)
    output_dir: str | None = None
    sweep: dict = field(default_factory=dict)

    def __post_init__(self):
        if "path" not in self.graph and "model" not in self.graph:
            raise ValueError("graph config needs a 'path' or a 'model'")
        if not self.seeds:
            raise ValueError("need at least one seed")
        if self.task is not None and self.task != "clustering":
            canonical_task(self.task)


def _meta_from_params(p: dict, for_signed: bool) -> gen.MetaGraph:
    """Meta-graph from explicit matrices or high-level (kind, eta, gamma)."""
    if "meta_f" in p:
        return gen.MetaGraph(np.asarray(p["meta_f"], dtype=np.float64),
                             np.asarray(p.get("meta_f_filled", p["meta_f"]),
                                        dtype=np.float64),
                             p.get("meta_kind", "custom"))
    kind = p.get("meta", "f1" if for_signed else "cycle")
    if for_signed:
        if kind == "f1":
            return gen.f1_meta(p.get("gamma", 0.0))
        if kind == "f2":
            return gen.f2_meta(p.get("gamma", 0.0))
        raise ValueError(f"unknown sdsbm meta {kind!r} (use 'f1', 'f2' or meta_f)")
    return gen.meta_graph(kind, p["k"], eta=p.get("eta", 0.0),
                          ambient=p.get("ambient", False),
                          seed=p.get("meta_seed", 0))


def generate_from_params(params: dict, seed: int | None = None) -> gen.GeneratedInstance:
    """Dispatch a generator call from a flat parameter record.

    Accepts both high-level meta-graph settings (``meta = "cycle"`` plus
    noise/ambient knobs) and the explicit ``meta_f``/``meta_f_filled``
    matrices that generated instances echo, so any instance can be
    regenerated bit-identically from its own parameter record.
    """
    p = dict(params)
    model = p.pop("model")
    if seed is not None:
        p["seed"] = seed
    p.setdefault("seed", 0)
    if model == "ssbm":
        return gen.ssbm(n=p["n"], K=p["k"], p_in=p["p_in"], p_out=p["p_out"],
                        rho=p.get("rho", 1.0), eta_in=p.get("eta_in", 0.0),
                        eta_out=p.get("eta_out", 0.0), eta=p.get("eta"),
                        seed=p["seed"])
    if model == "pol_ssbm":
        return gen.pol_ssbm(n=p["n"], r=p["r"], p=p["p"], rho=p.get("rho", 1.0),
                            eta=p.get("eta", 0.0), N=p.get("community_nodes"),
                            seed=p["seed"])
    if model == "dsbm":
        meta = _meta_from_params(p, for_signed=False)
        return gen.dsbm(meta, n=p["n"], K=p.get("k", meta.num_clusters),
                        p=p["p"], rho=p.get("rho", 1.0), seed=p["seed"])
    if model == "sdsbm":
        meta = _meta_from_params(p, for_signed=True)
        return gen.sdsbm(meta, n=p["n"], p=p["p"], rho=p.get("rho", 1.0),
                         eta=p.get("eta", 0.0), seed=p["seed"])
    if model == "erdos_renyi":
        graph = gen.signed_erdos_renyi(n=p["n"], p=p["p"], seed=p["seed"])
        labels = np.zeros(p["n"], dtype=np.int64)
        params_out = {"model": model, "n": p["n"], "p": p["p"], "seed": p["seed"]}
        return gen.GeneratedInstance(graph, labels, params_out)
    raise ValueError(f"unknown generator model {model!r}")


def edge_feature_matrix(node_x: np.ndarray, pairs: np.ndarray,
                        combine: str = "concat") -> np.ndarray:
    """Map query pairs to edge features from endpoint embeddings.

    ``phase`` takes a complex node matrix z and returns [Re | Im] of
    conj(z_u) * z_v per column: swapping the endpoints negates the Im
    block, and a column's global phase cancels.
    """
    xu = node_x[pairs[:, 0]]
    xv = node_x[pairs[:, 1]]
    if combine == "phase":
        if not np.iscomplexobj(node_x):
            raise ValueError("the phase combiner needs a complex node embedding")
        prod = np.conj(xu) * xv
        return np.hstack([prod.real, prod.imag])
    if combine == "concat":
        return np.hstack([xu, xv])
    if combine == "hadamard":
        return xu * xv
    if combine == "difference":
        return xu - xv
    raise ValueError(f"unknown edge combiner {combine!r}")


def _standardize(x: np.ndarray, ref: np.ndarray | None = None) -> np.ndarray:
    """Zero-mean unit-variance columns by the statistics of ``ref`` (default x)."""
    ref = x if ref is None else ref
    mean = ref.mean(axis=0)
    std = ref.std(axis=0)
    out = np.zeros_like(x)
    nz = std > 0
    out[:, nz] = (x[:, nz] - mean[nz]) / std[nz]
    return out


def link_node_embedding(g: SignedDirectedGraph, embed_method: str,
                        embed_dim: int, q: float = 0.25,
                        tau: float = 0.25) -> np.ndarray:
    """Spectral embedding stacked with standardized signed degrees.

    Columns are standardized so eigenvector coordinates (magnitude about
    n**-0.5) and degree features share a common scale for the classifier.
    """
    deg = signed_degree_features(g).values
    if embed_method in ("none", "signed_degree"):
        return deg
    emb = _standardize(_embedding(g, embed_method, embed_dim, q, tau))
    return np.hstack([emb, deg])


def _link_features(g: SignedDirectedGraph, pair_sets, embed_method: str,
                   embed_dim: int, combine: str, q: float, tau: float) -> list:
    """Edge features for each pair set from one embedding of ``g``.

    ``phase`` rebuilds the complex eigenvectors z from the unstandardized
    [Re | Im] embedding, stacks the phase-difference block with both
    endpoints' signed degrees and standardizes every column with the
    statistics of the first pair set (the training fold).
    """
    if combine != "phase":
        node_x = link_node_embedding(g, embed_method, embed_dim, q=q, tau=tau)
        return [edge_feature_matrix(node_x, p, combine) for p in pair_sets]
    emb = _embedding(g, embed_method, embed_dim, q, tau)
    k = emb.shape[1] // 2
    z = emb[:, :k] + 1j * emb[:, k:]
    deg = signed_degree_features(g).values
    xs = [np.hstack([edge_feature_matrix(z, p, "phase"),
                     edge_feature_matrix(deg, p, "concat")]) for p in pair_sets]
    return [_standardize(x, ref=xs[0]) for x in xs]


def resolve_combiner(embed_method: str, combine: str | None = None) -> str:
    """The edge combiner ``linkpred_run`` uses for ``combine``.

    None gives ``phase`` for COMPLEX_EMBEDDINGS and ``concat`` otherwise;
    an unknown combiner, or ``phase`` with a real embedding, raises
    ValueError.
    """
    if combine is None:
        combine = "phase" if embed_method in COMPLEX_EMBEDDINGS else "concat"
    if combine not in EDGE_COMBINERS:
        raise ValueError(f"unknown edge combiner {combine!r}")
    if combine == "phase" and embed_method not in COMPLEX_EMBEDDINGS:
        raise ValueError(f"the phase combiner needs a complex embedding, "
                         f"not {embed_method!r}")
    return combine


def linkpred_run(g: SignedDirectedGraph, task: str,
                 embed_method: str = "signed_spectral", embed_dim: int = 8,
                 seeds=(0, 1, 2, 3, 4), prob_val: float = 0.15,
                 prob_test: float = 0.05, maintain_connectedness: bool = False,
                 combine: str | None = None, lr: float = 0.1, epochs: int = 500,
                 l2: float = 1e-4, q: float = 0.25, tau: float = 0.25) -> RunResult:
    """Embed-then-classify link prediction over several split seeds.

    ``combine`` is one of EDGE_COMBINERS. It defaults to ``phase`` for
    the complex embeddings (COMPLEX_EMBEDDINGS), whose direction signal
    lives in the phase difference conj(z_u) * z_v that the additive
    ``concat`` form cannot express, and to ``concat`` otherwise.
    ``phase`` with a real embedding raises ValueError.

    Reports accuracy and the test-fold majority-class rate for every
    task, plus AUC (score = probability of class 1) and macro F1 for
    binary tasks.
    """
    task = canonical_task(task)
    combine = resolve_combiner(embed_method, combine)
    records = []
    for s in seeds:
        split = link_class_split(g, task, prob_val=prob_val, prob_test=prob_test,
                                 maintain_connectedness=maintain_connectedness,
                                 seed=s)
        x_train, x_test = _link_features(split.observed_graph,
                                         (split.train_pairs, split.test_pairs),
                                         embed_method, embed_dim, combine, q, tau)
        classes = np.arange(len(split.label_names))
        model = logistic_train(x_train, split.train_labels, classes=classes,
                               l2=l2, lr=lr, epochs=epochs)
        pred = model.predict(x_test)
        truth = split.test_labels
        records.append(RunRecord(0.0, 0, s, "accuracy", accuracy(pred, truth)))
        counts = np.bincount(truth, minlength=len(split.label_names))
        records.append(RunRecord(0.0, 0, s, "majority",
                                 float(counts.max() / counts.sum())))
        if len(split.label_names) == 2:
            scores = model.predict_proba(x_test)[:, 1]
            records.append(RunRecord(0.0, 0, s, "auc", auc(scores, truth)))
            records.append(RunRecord(0.0, 0, s, "macro_f1",
                                     macro_f1(pred, truth, classes=classes)))
    return RunResult(tuple(records))


def cluster_run(g: SignedDirectedGraph, method: str, k: int, seed: int = 0,
                q: float = 0.25, tau: float = 0.25):
    """Single clustering run; returns (SoftAssignment, labels)."""
    return spectral_cluster(g, method, k, seed=seed, q=q, tau=tau)


def cluster_sweep(graph_params: dict, param: str, values, method: str, k: int,
                  instances: int = 2, seeds=(0, 1, 2, 3, 4),
                  train_frac: float = 0.8, val_frac: float = 0.1,
                  test_frac: float = 0.1, q: float = 0.25,
                  tau: float = 0.25) -> RunResult:
    """Sweep a generator parameter and report test-node ARI per run.

    For each (value, instance): generate an instance (seed derived from
    the base seed, sweep index and instance index) and embed it once
    (``spectral_embedding``, one eigensolve). For each seed: draw one
    node split, run k-means on that embedding (``cluster_embedding``)
    and score ARI on the test mask only. Records equal those of calling
    ``spectral_cluster`` per seed.
    """
    if param not in ("eta", "gamma", "p", "rho"):
        raise ValueError(f"unsupported sweep parameter {param!r}")
    base_seed = int(graph_params.get("seed", 0))
    records = []
    for vi, value in enumerate(values):
        gp = dict(graph_params)
        gp[param] = float(value)
        for inst in range(instances):
            instance = generate_from_params(gp, seed=derive(base_seed, vi, inst))
            labels = instance.labels
            emb = spectral_embedding(instance.graph, method, k, q=q, tau=tau)
            for s in seeds:
                split = node_split(labels, train_frac=train_frac, val_frac=val_frac,
                                   test_frac=test_frac, num_splits=1,
                                   seed=derive(base_seed, vi, inst, s, 1))
                _, pred = cluster_embedding(emb, k, seed=derive(base_seed, vi, inst, s, 2))
                mask = split.test[:, 0]
                records.append(RunRecord(float(value), inst, int(s), "ari",
                                         ari(labels[mask], pred[mask])))
    return RunResult(tuple(records))
