"""Command-line interface.

Subcommands: generate, split, cluster, linkpred, sweep, metrics. Each
takes ``--config <path>`` (a TOML file), ``--out <dir>`` and an
optional ``--seed`` overriding the graph seed. A command's section is
bound (``pipeline.bind``) to the library call it drives, defaults and
all, and an output's header is the graph record followed by each bound
key of that section as ``<section>_<key>``. Exit codes: 0 success,
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
from .cluster import is_complex
from .config import ConfigError, load
from .graph import is_directed, is_signed
from .pipeline import (bind, cluster_sweep, generate_from_params, linkpred_run,
                       record_keys, resolve_combiner, spectral_cluster)
from .plotsvg import render_line_plot
from .spectral import NumericError
from .splitters import canonical_task, link_class_split, node_split


# the sections some command reads; any other is a ConfigError
SECTIONS = ("graph", "split", "cluster", "linkpred", "sweep", "metrics")
# [metrics] drives no single library call, so it lists its own keys
METRICS_KEYS = ("labels_pred", "labels_true", "names")


def _section(cfg: dict, name: str, keys=None) -> dict:
    """[name]; with ``keys``, a key outside them raises ConfigError."""
    if name not in cfg:
        raise ConfigError(f"missing [{name}] section")
    sec = cfg[name]
    unknown = sorted(set(sec) - set(sec if keys is None else keys))
    if unknown:
        raise ConfigError(f"[{name}] has unknown key(s) {', '.join(map(repr, unknown))}")
    return sec


def _kwargs(cfg: dict, name: str, fn, extra=()) -> dict:
    """[name] bound to ``fn`` past its data argument; the command reads ``extra``."""
    sec = _section(cfg, name, (*record_keys(fn), *extra))
    return bind(fn, sec, f"[{name}]")


def _provenance(gparams: dict, name: str, kw: dict) -> dict:
    """The graph record, then each bound key of [name] as ``<name>_<key>``."""
    return {**gparams, **{f"{name}_{key}": value for key, value in kw.items()}}


def _need(sec: dict, key: str, where: str):
    if key not in sec:
        raise ConfigError(f"[{where}] is missing required key {key!r}")
    return sec[key]


# metric name -> (needs true labels, fn(graph, true, pred, k)); reports
# follow the order the names are requested in, and the partition losses
# score the one-hot assignment of ``pred`` over k clusters
METRICS = {
    "ari": (True, lambda g, true, pred, k: met.ari(true, pred)),
    "accuracy": (True, lambda g, true, pred, k: met.accuracy(pred, true)),
    "unhappy_ratio": (False, lambda g, true, pred, k: met.unhappy_ratio(g, pred)),
    "balanced_triangle_ratio": (False, lambda g, true, pred, k:
                                met.balanced_triangle_ratio(g)),
    "prob_imbalance": (False, lambda g, true, pred, k:
                       met.prob_imbalance(g, met.SoftAssignment.from_labels(pred, k))),
    "pbnc_loss": (False, lambda g, true, pred, k:
                  met.pbnc_loss(g, met.SoftAssignment.from_labels(pred, k))),
}


def _metric_reports(names, graph, true, pred, k) -> list:
    """One MetricReport per name, in order; ``k`` is the cluster count of
    ``pred`` (None: pred.max() + 1)."""
    reports = []
    for name in names:
        if name not in METRICS:
            raise ConfigError(f"unknown metric {name!r}")
        needs_true, fn = METRICS[name]
        if needs_true and true is None:
            raise ConfigError(f"{name} needs true labels")
        reports.append(met.MetricReport(name, fn(graph, true, pred, k),
                                        graph.num_nodes))
    return reports


def _graph_params(cfg: dict, seed_override: int | None) -> dict:
    """The [graph] section, with ``--seed`` set on generator parameters.

    A ``path`` section takes ``labels_path`` and nothing else; a ``model``
    section's keys are checked by ``generate_from_params``.
    """
    params = dict(_section(cfg, "graph"))
    if "path" in params:
        return dict(_section(cfg, "graph", ("path", "labels_path")))
    if "model" not in params:
        raise ConfigError("[graph] needs a 'path' or a 'model'")
    if seed_override is not None:
        params["seed"] = int(seed_override)
    return params


def _load_graph(cfg: dict, seed_override: int | None):
    """Returns (graph, labels-or-None, provenance params)."""
    params = _graph_params(cfg, seed_override)
    if "path" in params:
        graph = sio.read_edge_tsv(params["path"])
        labels = None
        if "labels_path" in params:
            labels = sio.read_labels_csv(params["labels_path"])
        return graph, labels, {"source": params["path"]}
    inst = generate_from_params(params)
    return inst.graph, inst.labels, inst.params


def cmd_generate(cfg, outdir: Path, seed_override):
    graph, labels, params = _load_graph(cfg, seed_override)
    sio.write_edge_tsv(outdir / "edges.tsv", graph, params)
    if labels is not None:
        sio.write_labels_csv(outdir / "labels.csv", labels, params)


SPLITTERS = {"node": node_split, "link": link_class_split}


def cmd_split(cfg, outdir: Path, seed_override):
    sec = _section(cfg, "split")
    kind = _need(sec, "kind", "split")
    if kind not in SPLITTERS:
        raise ConfigError(f"unknown split kind {kind!r}")
    kw = _kwargs(cfg, "split", SPLITTERS[kind], extra=("kind",))
    if kind == "link":
        canonical_task(kw["task"])  # ValueError for an unknown task
    graph, labels, gparams = _load_graph(cfg, seed_override)
    params = _provenance(gparams, "split", {"kind": kind, **kw})
    if kind == "node":
        if labels is None:
            raise ConfigError("node splits need labels (generated or labels_path)")
        sio.write_node_split_csv(outdir / "node_split.csv", node_split(labels, **kw),
                                 params)
        return
    split = link_class_split(graph, **kw)
    sio.write_link_split_csv(outdir / "link_split.csv", split, params)
    sio.write_edge_tsv(outdir / "observed.tsv", split.observed_graph, params)
    sio.write_pairs_csv(outdir / "discarded.csv", split.discarded_pairs, params)


def cmd_cluster(cfg, outdir: Path, seed_override):
    kw = _kwargs(cfg, "cluster", spectral_cluster)
    is_complex(kw["method"])  # ValueError for an unknown method
    graph, labels, gparams = _load_graph(cfg, seed_override)
    _, pred = spectral_cluster(graph, **kw)
    params = _provenance(gparams, "cluster", kw)
    sio.write_labels_csv(outdir / "pred_labels.csv", pred, params)
    names = [] if labels is None else ["ari"]
    if is_signed(graph) and graph.num_edges:
        names += ["unhappy_ratio", "pbnc_loss"]
    if is_directed(graph) and kw["k"] >= 2:
        names.append("prob_imbalance")
    reports = _metric_reports(names, graph, labels, pred, kw["k"])
    sio.write_metric_reports_csv(outdir / "metrics.csv", reports, params)


def _write_runs(outdir: Path, result, params):
    agg = result.aggregate()
    sio.write_runs_csv(outdir / "runs.csv", result.rows(), params)
    sio.write_summary_csv(outdir / "summary.csv", agg, params)
    return agg


def cmd_linkpred(cfg, outdir: Path, seed_override):
    kw = _kwargs(cfg, "linkpred", linkpred_run)
    canonical_task(kw["task"])  # ValueError for an unknown task
    kw["combine"] = resolve_combiner(kw["embed_method"], kw["combine"])
    graph, _, gparams = _load_graph(cfg, seed_override)
    result = linkpred_run(graph, **kw)
    _write_runs(outdir, result, _provenance(gparams, "linkpred", kw))


def cmd_sweep(cfg, outdir: Path, seed_override):
    gparams = _graph_params(cfg, seed_override)
    if "path" in gparams:
        raise ConfigError("sweep needs generator parameters, not a file path")
    kw = _kwargs(cfg, "sweep", cluster_sweep)
    result = cluster_sweep(gparams, **kw)
    agg = _write_runs(outdir, result, _provenance(gparams, "sweep", kw))
    xs = [float(v) for v in kw["values"]]
    means = [agg[(x, "ari")][0] for x in xs]
    sds = [agg[(x, "ari")][1] for x in xs]
    render_line_plot(outdir / "sweep.svg", xs, means, sds,
                     title=f"{gparams.get('model', 'graph')} / {kw['method']}",
                     xlabel=kw["param"], ylabel="test ARI")


def cmd_metrics(cfg, outdir: Path, seed_override):
    sec = _section(cfg, "metrics", METRICS_KEYS)
    graph, labels, gparams = _load_graph(cfg, seed_override)
    pred = sio.read_labels_csv(_need(sec, "labels_pred", "metrics"))
    true = labels
    if "labels_true" in sec:
        true = sio.read_labels_csv(sec["labels_true"])
    names = sec.get("names", ["ari"])
    reports = _metric_reports(names, graph, true, pred, None)
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
        p.add_argument("--config", required=True, help="TOML config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the graph seed")
    args = parser.parse_args(argv)
    try:
        cfg = load(args.config)
        unknown = sorted(set(cfg) - set(SECTIONS))
        if unknown:
            raise ConfigError(f"unknown section(s) {', '.join(f'[{s}]' for s in unknown)}")
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        COMMANDS[args.command](cfg, outdir, args.seed)
        return 0
    except (ConfigError, ValueError, KeyError, TypeError, OSError) as exc:
        print(f"sdnet: config error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"sdnet: numeric failure: {exc}", file=sys.stderr)
        return 3


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
