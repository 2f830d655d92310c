"""End-to-end experiment pipelines.

``linkpred_run`` realizes the embed-then-classify link-prediction
recipe: split the task queries, embed nodes of the observed graph
(spectral features stacked with signed degree features), form edge
features from the query endpoints, fit a logistic classifier on the
training fold for each l2 in ``L2_GRID`` and keep the fit with the best
validation accuracy; complex embeddings feed the ``phase`` combiner,
whose conj(z_u) * z_v block carries edge direction. ``cluster_sweep``
drives spectral clustering over a swept generator parameter and reports
test-mask agreement per run.

``bind`` maps a flat record (generator parameters, a CLI section) onto
a call's signature, which lists its keys and defaults; RECORD_KEYS is
the one table of keys spelt differently from their parameters.

Seeds for sub-steps are derived from the run seed with fixed tags, so
an entire experiment is a pure function of its configuration.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

import numpy as np

from . import generators as gen
# spectral_cluster is bound here for the CLI, which looks it up in this module
from .cluster import (_embedding, cluster_embedding, is_complex, real_columns,
                      spectral_cluster, spectral_embedding)
from .graph import (SignedDirectedGraph, signed_degree_features,
                    standardize_columns)
from .logistic import logistic_train
from .metrics import accuracy, ari, auc, macro_f1
from .rng import derive
from .splitters import canonical_task, link_class_split, node_split

# Edge combiners for ``linkpred_run``. ``phase`` needs a complex
# embedding (``cluster.is_complex``) and is their default; real
# embeddings default to ``concat``.
EDGE_COMBINERS = ("concat", "hadamard", "difference", "phase")
# l2 penalties ``linkpred_run`` chooses from on the validation fold,
# strongest first: each fit warm-starts from the one before it
L2_GRID = (1.0, 1e-1, 1e-2, 1e-3)


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


# each model's generator is the function of that name in ``generators``,
# looked up when called, so that a wrapper bound to the attribute sees it
GENERATORS = ("ssbm", "pol_ssbm", "dsbm", "sdsbm", "erdos_renyi")


def _meta_builder(model: str, p: dict):
    """The meta-graph builder a record names, or None for a model without one.

    Explicit ``meta_f``/``meta_f_filled``/``meta_kind`` matrices, as every
    dsbm and sdsbm instance echoes them, build a MetaGraph. Otherwise dsbm
    takes ``meta_graph`` of kind ``meta`` (default cycle), and sdsbm pops
    ``meta`` (default f1) to choose ``f1_meta`` or ``f2_meta``.
    """
    if model not in ("dsbm", "sdsbm"):
        return None
    if "meta_f" in p:
        return gen.MetaGraph
    if model == "dsbm":
        p.setdefault("meta", "cycle")
        return gen.meta_graph
    kind = p.pop("meta", "f1")
    if kind not in ("f1", "f2"):
        raise ValueError(f"unknown sdsbm meta {kind!r} (use 'f1', 'f2' or meta_f)")
    return getattr(gen, f"{kind}_meta")


def generate_from_params(params: dict, seed: int | None = None) -> gen.GeneratedInstance:
    """Dispatch a generator call from a flat parameter record.

    The record's ``model`` names the generator (GENERATORS), and every
    other key is a keyword argument of the generator or of its meta-graph
    builder (``_meta_builder``), bound by ``bind``. A key neither of them
    takes, or a required key left out, raises ValueError before anything
    is generated. Every instance echoes its ``meta_f``/``meta_f_filled``
    matrices, so it regenerates bit-identically from its own record.
    """
    p = dict(params)
    model = p.pop("model")
    if model not in GENERATORS:
        raise ValueError(f"unknown generator model {model!r}")
    if seed is not None:
        p["seed"] = seed
    fn = getattr(gen, model)
    meta = _meta_builder(model, p)
    skip = int(meta is not None)  # the meta-graph is the generator's first argument
    kwargs = bind(fn, p, model, skip)
    meta_kwargs = {} if meta is None else bind(meta, p, model, 0)
    taken = set(record_keys(fn, skip)).union(() if meta is None else record_keys(meta, 0))
    unknown = sorted(set(p) - taken)
    if unknown:
        raise ValueError(f"{model} takes no key(s) {', '.join(map(repr, unknown))}")
    args = () if meta is None else (meta(**meta_kwargs),)
    return fn(*args, **kwargs)


def edge_feature_matrix(node_x: np.ndarray, pairs: np.ndarray,
                        combine: str = "concat") -> np.ndarray:
    """Map query pairs to edge features from endpoint embeddings.

    ``phase`` takes a complex node matrix z and returns [Re | Im] of
    conj(z_u) * z_v per column: swapping the endpoints negates the Im
    block, and a column's global phase cancels.
    """
    if combine == "concat":
        return node_x[pairs].reshape(len(pairs), 2 * node_x.shape[1])  # [x_u | x_v], one gather
    xu = node_x[pairs[:, 0]]
    xv = node_x[pairs[:, 1]]
    if combine == "phase":
        if not np.iscomplexobj(node_x):
            raise ValueError("the phase combiner needs a complex node embedding")
        prod = np.conj(xu) * xv
        return np.hstack([prod.real, prod.imag])
    if combine == "hadamard":
        return xu * xv
    if combine == "difference":
        return xu - xv
    raise ValueError(f"unknown edge combiner {combine!r}")


def link_node_embedding(g: SignedDirectedGraph, embed_method: str,
                        embed_dim: int, q: float = 0.25,
                        tau: float = 0.25) -> np.ndarray:
    """Spectral embedding stacked with standardized signed degrees.

    A complex embedding enters as [Re | Im]. Columns are standardized so
    eigenvector coordinates (magnitude about n**-0.5) and degree features
    share a common scale for the classifier.
    """
    deg = signed_degree_features(g).values
    if embed_method == "signed_degree":
        return deg
    emb = real_columns(_embedding(g, embed_method, embed_dim, q, tau))
    return np.hstack([standardize_columns(emb), deg])


def _link_features(g: SignedDirectedGraph, pair_sets, embed_method: str,
                   embed_dim: int, combine: str, q: float, tau: float) -> list:
    """Edge features for each pair set from one embedding of ``g``.

    ``phase`` takes the complex embedding z as it is, stacks the
    phase-difference block with both endpoints' signed degrees and
    standardizes every column with the statistics of the first pair set
    (the training fold).
    """
    if combine != "phase":
        node_x = link_node_embedding(g, embed_method, embed_dim, q=q, tau=tau)
        return [edge_feature_matrix(node_x, p, combine) for p in pair_sets]
    z = _embedding(g, embed_method, embed_dim, q, tau)
    deg = signed_degree_features(g).values
    xs = [np.hstack([edge_feature_matrix(z, p, "phase"),
                     edge_feature_matrix(deg, p, "concat")]) for p in pair_sets]
    return [standardize_columns(x, ref=xs[0]) for x in xs]


def resolve_combiner(embed_method: str, combine: str | None = None) -> str:
    """The edge combiner ``linkpred_run`` uses for ``combine``.

    None gives ``phase`` for a complex embedding (``cluster.is_complex``)
    and ``concat`` otherwise; an unknown embedding or combiner, or
    ``phase`` with a real embedding, raises ValueError.
    """
    complex_embedding = is_complex(embed_method)
    if combine is None:
        combine = "phase" if complex_embedding else "concat"
    if combine not in EDGE_COMBINERS:
        raise ValueError(f"unknown edge combiner {combine!r}")
    if combine == "phase" and not complex_embedding:
        raise ValueError(f"the phase combiner needs a complex embedding, "
                         f"not {embed_method!r}")
    return combine


def linkpred_run(g: SignedDirectedGraph, task: str,
                 embed_method: str = "signed_spectral", embed_dim: int = 8,
                 seeds=(0, 1, 2, 3, 4), prob_val: float = 0.15,
                 prob_test: float = 0.05, maintain_connectedness: bool = False,
                 combine: str | None = None, q: float = 0.25,
                 tau: float = 0.25) -> RunResult:
    """Embed-then-classify link prediction over several split seeds.

    ``combine`` is one of EDGE_COMBINERS. It defaults to ``phase`` for
    the complex embeddings (``cluster.is_complex``), whose direction signal
    lives in the phase difference conj(z_u) * z_v that the additive
    ``concat`` form cannot express, and to ``concat`` otherwise.
    ``phase`` with a real embedding raises ValueError.

    Every split's one embedding gives features for the train, validation
    and test folds. The classifier is fit on the training fold for each
    l2 in L2_GRID and the fit with the highest validation accuracy is
    scored on the test fold; ties go to the larger l2. An empty
    validation fold or an empty ``seeds`` raises ValueError.

    Reports accuracy and the test-fold majority-class rate for every
    task, plus AUC (score = probability of class 1) and macro F1 for
    binary tasks.
    """
    task = canonical_task(task)
    combine = resolve_combiner(embed_method, combine)
    seeds = tuple(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    records = []
    for s in seeds:
        split = link_class_split(g, task, prob_val=prob_val, prob_test=prob_test,
                                 maintain_connectedness=maintain_connectedness,
                                 seed=s)
        if split.val_labels.size == 0:
            raise ValueError("the validation fold is empty; raise prob_val")
        x_train, x_val, x_test = _link_features(
            split.observed_graph, (split.train_pairs, split.val_pairs,
                                   split.test_pairs),
            embed_method, embed_dim, combine, q, tau)
        classes = np.arange(len(split.label_names))
        fit, best_acc = None, -1.0
        for l2 in L2_GRID:
            fit = logistic_train(x_train, split.train_labels, classes=classes,
                                 l2=l2, start=fit)
            val_acc = accuracy(fit.predict(x_val), split.val_labels)
            if val_acc > best_acc:
                model, best_acc = fit, val_acc
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


def cluster_sweep(graph_params: dict, param: str, values, method: str, k: int,
                  instances: int = 2, seeds=(0, 1, 2, 3, 4),
                  train_frac: float = 0.8, val_frac: float = 0.1,
                  test_frac: float = 0.1, q: float = 0.25,
                  tau: float = 0.25) -> RunResult:
    """Sweep a graph parameter and report test-node ARI per run.

    ``param`` is any key of ``graph_params`` that ``generate_from_params``
    binds, except ``model`` and ``seed`` (each instance derives its own);
    each value reaches the generator as given and its record as a float.
    For each (value, instance): generate an instance (seed derived from
    the base seed, sweep index and instance index) and embed it once
    (``spectral_embedding``, one eigensolve). For each seed: draw one
    node split, run k-means on that embedding (``cluster_embedding``)
    and score ARI on the test mask only. Records equal those of calling
    ``spectral_cluster`` per seed. An unknown ``param`` or ``method``, an
    empty ``values`` or ``seeds``, or ``instances`` below 1 raises
    ValueError, and a value ``float`` rejects raises its error, before
    anything is generated.
    """
    if param in ("model", "seed"):
        raise ValueError(f"cannot sweep {param!r}")
    is_complex(method)  # ValueError for an unknown method
    values, seeds = tuple(values), tuple(seeds)
    for name, count in (("value", len(values)), ("seed", len(seeds)), ("instance", instances)):
        if count < 1:
            raise ValueError(f"need at least one {name}")
    swept = [float(value) for value in values]  # each record's sweep_value
    base_seed = int(graph_params.get("seed", 0))
    records = []
    for vi, value in enumerate(values):
        gp = dict(graph_params)
        gp[param] = value
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
                records.append(RunRecord(swept[vi], inst, int(s), "ari",
                                         ari(labels[mask], pred[mask])))
    return RunResult(tuple(records))


# parameter -> the record key that sets it, where the two are spelt
# differently; each map holds for its own function only, so ``meta_seed``
# never sets a generator's ``seed``
RECORD_KEYS = {
    gen.ssbm: {"K": "k"},
    gen.dsbm: {"K": "k"},
    gen.pol_ssbm: {"N": "community_nodes"},
    gen.meta_graph: {"kind": "meta", "K": "k", "seed": "meta_seed"},
    gen.MetaGraph: {"F": "meta_f", "F_filled": "meta_f_filled", "kind": "meta_kind"},
    linkpred_run: {"embed_method": "embed"},
}


def record_keys(fn, skip: int = 1) -> dict:
    """{record key: parameter} past the first ``skip`` (data) parameters of ``fn``.

    A key is spelt as its parameter unless RECORD_KEYS renames it for ``fn``.
    """
    renamed = RECORD_KEYS.get(inspect.unwrap(fn), {})
    params = list(inspect.signature(fn).parameters.values())[skip:]
    return {renamed.get(par.name, par.name): par for par in params}


def bind(fn, record: dict, where: str, skip: int = 1) -> dict:
    """``record`` as keyword arguments of ``fn``, with every default applied.

    Each parameter past the first ``skip`` takes the value of its key
    (``record_keys``) or its default. Keys ``fn`` does not take are left
    for the caller to reject. A required parameter left out raises
    ValueError "<where> is missing required key 'k'".
    """
    kwargs = {}
    for key, par in record_keys(fn, skip).items():
        if key in record:
            kwargs[par.name] = record[key]
        elif par.default is par.empty:
            raise ValueError(f"{where} is missing required key {key!r}")
        else:
            kwargs[par.name] = par.default
    return kwargs
