"""Command-line interface.

Subcommands: generate, split, cluster, linkpred, sweep, metrics. Each
takes ``--config <path>`` (key = value sections), ``--out <dir>`` and an
optional ``--seed`` overriding the graph seed. Exit codes: 0 success,
2 configuration error, 3 numeric failure. All outputs are byte-identical
across reruns of the same configuration.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import io as sio
from . import metrics as met
from .config import ConfigError, load
from .graph import is_directed, is_signed
from .pipeline import (ExperimentConfig, cluster_sweep, generate_from_params,
                       linkpred_run, resolve_combiner, spectral_cluster)
from .plotsvg import render_line_plot
from .spectral import NumericError
from .splitters import link_class_split, node_split


# the keys each command section reads; [graph] keys go to the generator
SECTION_KEYS = {
    "split": ("kind", "seed", "train_frac", "val_frac", "test_frac", "seed_frac",
              "num_splits", "task", "prob_val", "prob_test", "maintain_connectedness"),
    "cluster": ("method", "k", "seed", "q", "tau"),
    "linkpred": ("task", "seeds", "embed", "combine", "embed_dim", "q", "tau",
                 "prob_val", "prob_test", "maintain_connectedness"),
    "sweep": ("param", "values", "method", "k", "seeds", "instances", "train_frac",
              "val_frac", "test_frac", "q", "tau"),
    "metrics": ("labels_pred", "labels_true", "names"),
}


def _section(cfg: dict, name: str) -> dict:
    if name not in cfg:
        raise ConfigError(f"missing [{name}] section")
    sec = cfg[name]
    unknown = sorted(set(sec) - set(SECTION_KEYS.get(name, sec)))
    if unknown:
        raise ConfigError(f"[{name}] has unknown key(s) {', '.join(map(repr, unknown))}")
    return sec


def _need(sec: dict, key: str, where: str):
    if key not in sec:
        raise ConfigError(f"[{where}] is missing required key {key!r}")
    return sec[key]


# metric name -> (needs true labels, fn(graph, true, pred, soft)); reports
# follow the order the names are requested in
METRICS = {
    "ari": (True, lambda g, true, pred, soft: met.ari(true, pred)),
    "accuracy": (True, lambda g, true, pred, soft: met.accuracy(pred, true)),
    "unhappy_ratio": (False, lambda g, true, pred, soft: met.unhappy_ratio(g, pred)),
    "balanced_triangle_ratio": (False, lambda g, true, pred, soft:
                                met.balanced_triangle_ratio(g)),
    "prob_imbalance": (False, lambda g, true, pred, soft: met.prob_imbalance(g, soft)),
    "pbnc_loss": (False, lambda g, true, pred, soft: met.pbnc_loss(g, soft)),
}
SOFT_METRICS = ("prob_imbalance", "pbnc_loss")


def _metric_reports(names, graph, true, pred, soft) -> list:
    """One MetricReport per name, in order; ``soft`` feeds SOFT_METRICS."""
    reports = []
    for name in names:
        if name not in METRICS:
            raise ConfigError(f"unknown metric {name!r}")
        needs_true, fn = METRICS[name]
        if needs_true and true is None:
            raise ConfigError(f"{name} needs true labels")
        reports.append(met.MetricReport(name, fn(graph, true, pred, soft),
                                        graph.num_nodes))
    return reports


def _load_graph(cfg: dict, seed_override: int | None):
    """Returns (graph, labels-or-None, provenance params)."""
    sec = _section(cfg, "graph")
    if "path" in sec:
        graph = sio.read_edge_tsv(sec["path"])
        labels = None
        if "labels_path" in sec:
            labels = sio.read_labels_csv(sec["labels_path"])
        return graph, labels, {"source": sec["path"]}
    params = dict(sec)
    if seed_override is not None:
        params["seed"] = int(seed_override)
    inst = generate_from_params(params)
    return inst.graph, inst.labels, inst.params


def cmd_generate(cfg, outdir: Path, seed_override):
    graph, labels, params = _load_graph(cfg, seed_override)
    sio.write_edge_tsv(outdir / "edges.tsv", graph, params)
    if labels is not None:
        sio.write_labels_csv(outdir / "labels.csv", labels, params)


def cmd_split(cfg, outdir: Path, seed_override):
    sec = _section(cfg, "split")
    graph, labels, gparams = _load_graph(cfg, seed_override)
    kind = _need(sec, "kind", "split")
    params = {**gparams, **{f"split_{k}": v for k, v in sec.items()}}
    if kind == "node":
        if labels is None:
            raise ConfigError("node splits need labels (generated or labels_path)")
        split = node_split(labels,
                           train_frac=sec.get("train_frac", 0.8),
                           val_frac=sec.get("val_frac", 0.1),
                           test_frac=sec.get("test_frac", 0.1),
                           seed_frac=sec.get("seed_frac", 0.0),
                           num_splits=sec.get("num_splits", 1),
                           seed=sec.get("seed", 0))
        sio.write_node_split_csv(outdir / "node_split.csv", split, params)
    elif kind == "link":
        split = link_class_split(graph, _need(sec, "task", "split"),
                                 prob_val=sec.get("prob_val", 0.15),
                                 prob_test=sec.get("prob_test", 0.05),
                                 maintain_connectedness=sec.get(
                                     "maintain_connectedness", False),
                                 seed=sec.get("seed", 0))
        sio.write_link_split_csv(outdir / "link_split.csv", split, params)
        sio.write_edge_tsv(outdir / "observed.tsv", split.observed_graph, params)
        lines = ["u,v"] + [f"{u},{v}" for u, v in split.discarded_pairs]
        (outdir / "discarded.csv").write_text(
            "\n".join(sio.format_params(params) + lines) + "\n", encoding="utf-8")
    else:
        raise ConfigError(f"unknown split kind {kind!r}")


def cmd_cluster(cfg, outdir: Path, seed_override):
    sec = _section(cfg, "cluster")
    method = _need(sec, "method", "cluster")
    k = _need(sec, "k", "cluster")
    ExperimentConfig(graph=_section(cfg, "graph"), method=method,
                     task="clustering")
    graph, labels, gparams = _load_graph(cfg, seed_override)
    soft, pred = spectral_cluster(graph, method, k, seed=sec.get("seed", 0),
                                  q=sec.get("q", 0.25), tau=sec.get("tau", 0.25))
    params = {**gparams, "method": method, "k": k}
    sio.write_labels_csv(outdir / "pred_labels.csv", pred, params)
    names = [] if labels is None else ["ari"]
    if is_signed(graph) and graph.num_edges:
        names += ["unhappy_ratio", "pbnc_loss"]
    if is_directed(graph) and k >= 2:
        names.append("prob_imbalance")
    reports = _metric_reports(names, graph, labels, pred, soft)
    sio.write_metric_reports_csv(outdir / "metrics.csv", reports, params)


def _write_runs(outdir: Path, result, params):
    rows = result.rows()
    lines = ["sweep_value,instance,seed,metric,value"]
    for sv, inst, seed, metric, value in rows:
        lines.append(f"{repr(float(sv))},{inst},{seed},{metric},{repr(float(value))}")
    (outdir / "runs.csv").write_text(
        "\n".join(sio.format_params(params) + lines) + "\n", encoding="utf-8")
    agg = result.aggregate()
    lines = ["sweep_value,metric,mean,sd,count"]
    for (sv, metric), (mean, sd, count) in agg.items():
        lines.append(f"{repr(float(sv))},{metric},{repr(mean)},{repr(sd)},{count}")
    (outdir / "summary.csv").write_text(
        "\n".join(sio.format_params(params) + lines) + "\n", encoding="utf-8")
    return agg


def cmd_linkpred(cfg, outdir: Path, seed_override):
    sec = _section(cfg, "linkpred")
    task = _need(sec, "task", "linkpred")
    seeds = sec.get("seeds", [0, 1, 2, 3, 4])
    ExperimentConfig(graph=_section(cfg, "graph"), method=sec.get("embed"),
                     task=task, splits=sec, seeds=tuple(seeds))
    embed = sec.get("embed", "signed_spectral")
    settings = {"combine": resolve_combiner(embed, sec.get("combine")),
                "embed_dim": sec.get("embed_dim", 8),
                "q": sec.get("q", 0.25), "tau": sec.get("tau", 0.25),
                "prob_val": sec.get("prob_val", 0.15),
                "prob_test": sec.get("prob_test", 0.05),
                "maintain_connectedness": sec.get("maintain_connectedness", False)}
    graph, _, gparams = _load_graph(cfg, seed_override)
    result = linkpred_run(graph, task, embed_method=embed, seeds=seeds, **settings)
    # the resolved settings, so the header names what produced the runs
    params = {**gparams, "task": task, "embed": embed, **settings}
    _write_runs(outdir, result, params)


def cmd_sweep(cfg, outdir: Path, seed_override):
    gsec = _section(cfg, "graph")
    if "path" in gsec:
        raise ConfigError("sweep needs generator parameters, not a file path")
    gparams = dict(gsec)
    if seed_override is not None:
        gparams["seed"] = int(seed_override)
    sec = _section(cfg, "sweep")
    param = _need(sec, "param", "sweep")
    values = _need(sec, "values", "sweep")
    method = _need(sec, "method", "sweep")
    k = _need(sec, "k", "sweep")
    ExperimentConfig(graph=gsec, method=method, task="clustering",
                     seeds=tuple(sec.get("seeds", [0, 1, 2, 3, 4])),
                     sweep=sec)
    result = cluster_sweep(
        gparams, param, values, method, k,
        instances=sec.get("instances", 2),
        seeds=sec.get("seeds", [0, 1, 2, 3, 4]),
        train_frac=sec.get("train_frac", 0.8),
        val_frac=sec.get("val_frac", 0.1),
        test_frac=sec.get("test_frac", 0.1),
        q=sec.get("q", 0.25), tau=sec.get("tau", 0.25))
    params = {**gparams, "sweep_param": param, "method": method, "k": k}
    agg = _write_runs(outdir, result, params)
    xs = [float(v) for v in values]
    means = [agg[(x, "ari")][0] for x in xs]
    sds = [agg[(x, "ari")][1] for x in xs]
    render_line_plot(outdir / "sweep.svg", xs, means, sds,
                     title=f"{gparams.get('model', 'graph')} / {method}",
                     xlabel=param, ylabel="test ARI")


def cmd_metrics(cfg, outdir: Path, seed_override):
    sec = _section(cfg, "metrics")
    graph, labels, gparams = _load_graph(cfg, seed_override)
    pred = sio.read_labels_csv(_need(sec, "labels_pred", "metrics"))
    true = labels
    if "labels_true" in sec:
        true = sio.read_labels_csv(sec["labels_true"])
    names = sec.get("names", ["ari"])
    soft = (met.SoftAssignment.from_labels(pred)
            if any(name in SOFT_METRICS for name in names) else None)
    reports = _metric_reports(names, graph, true, pred, soft)
    sio.write_metric_reports_csv(outdir / "metrics.csv", reports, gparams)


COMMANDS = {
    "generate": cmd_generate,
    "split": cmd_split,
    "cluster": cmd_cluster,
    "linkpred": cmd_linkpred,
    "sweep": cmd_sweep,
    "metrics": cmd_metrics,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sdnet",
        description="Generate, split, cluster and evaluate signed/directed networks.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", required=True, help="key = value config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the graph seed")
    args = parser.parse_args(argv)
    try:
        cfg = load(args.config)
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        COMMANDS[args.command](cfg, outdir, args.seed)
        return 0
    except (ConfigError, ValueError, KeyError, OSError) as exc:
        print(f"sdnet: config error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"sdnet: numeric failure: {exc}", file=sys.stderr)
        return 3


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
