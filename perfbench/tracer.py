"""Span recorder that wraps sdnet's public functions from outside.

Nothing in ``src/`` knows about tracing. ``Tracer.install`` replaces
each traced function with a wrapper under every name that refers to it
in a loaded ``sdnet`` module, so a call is traced whether its caller
looks the function up in the defining module (``sdnet.spectral.eigh``)
or through a ``from .x import name`` binding (``sdnet.pipeline.
logistic_train``, ``sdnet.cluster.kmeans_full``). ``uninstall`` puts
the originals back.

A span is ``[name, start, end, parent, job, attrs]``; spans are kept in
memory and written out by the caller when the run ends. Counts that a
layer metric needs (edges generated, eigen-residuals, epochs, query
counts) are computed after the wrapped call returns, inside a
``trace.guard`` span, so they stay out of every layer's time.
"""

from __future__ import annotations

import hashlib
import os
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np

GUARD = "trace.guard"


def _edges(args, kwargs, result):
    return {"edges": int(result.graph.num_edges)}


def _operator(args, kwargs, result):
    g = args[0] if args else kwargs["g"]
    key = hashlib.blake2b(digest_size=16)
    key.update(np.int64(g.num_nodes).tobytes())
    for arr in (g.src, g.dst, g.weight):
        key.update(np.ascontiguousarray(arr).tobytes())
    return {"bytes": int(result.entries.nbytes), "graph": key.hexdigest()}


def _eigh(args, kwargs, result):
    m = args[0] if args else kwargs["matrix"]
    h = getattr(m, "entries", m)
    res = h @ result.vectors - result.vectors * result.values[None, :]
    return {"residual": float(np.linalg.norm(res, axis=0).max())}


def _link_split(args, kwargs, result):
    queries = sum(int(getattr(result, f"{f}_labels").size)
                  for f in ("train", "val", "test"))
    return {"queries": queries, "discarded": int(result.discarded_pairs.shape[0])}


def _logistic(args, kwargs, result):
    x = args[0] if args else kwargs["x"]
    return {"rows": int(np.shape(x)[0]), "epochs": len(result.losses)}


def _file_bytes(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


# module -> {function name: (span bucket, attribute hook or None)}
TARGETS = {
    "sdnet.generators": {name: ("generators.s", _edges) for name in
                         ("ssbm", "pol_ssbm", "dsbm", "sdsbm")},
    "sdnet.graph": {
        "signed_degree_features": ("graph.features_s", None),
        "signed_spectral_features": ("graph.features_s", None),
        "hermitian_spectral_features": ("graph.features_s", None),
        "largest_weakly_connected_component": ("graph.lwcc_s", None),
    },
    "sdnet.spectral": {
        **{name: ("spectral.operator_s", _operator) for name in
           ("normalized_laplacian", "signed_laplacian", "magnetic_laplacian",
            "signed_magnetic_laplacian", "hermitian_imbalance")},
        "eigh": ("spectral.eigh_s", _eigh),
    },
    "sdnet.cluster": {
        "kmeans_full": ("cluster.kmeans_s", None),
        "spectral_cluster": ("cluster.s", None),
    },
    "sdnet.splitters": {
        "link_class_split": ("splitters.link_s", _link_split),
        "spanning_forest": ("splitters.forest_s", None),
        "node_split": ("splitters.node_s", None),
    },
    "sdnet.logistic": {"logistic_train": ("logistic.fit_s", _logistic)},
    "sdnet.metrics": {name: ("metrics.s", None) for name in
                      ("ari", "accuracy", "macro_f1", "auc", "unhappy_ratio",
                       "pbnc_loss", "prob_imbalance", "balanced_triangle_ratio")},
    "sdnet.io": {
        "write_edge_tsv": ("io.write_s", _file_bytes),
        "read_edge_tsv": ("io.read_s", None),
    },
    "sdnet.pipeline": {name: ("pipeline.s", None) for name in
                       ("generate_from_params", "edge_feature_matrix",
                        "link_node_embedding", "linkpred_run", "cluster_sweep")},
}


class Tracer:
    """In-memory span recorder; one instance per traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.job: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.bound: list[str] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, self.job, {}])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    @contextmanager
    def job_scope(self, job: int):
        """Trace one job: wrap the targets and open its root ``job`` span."""
        self.job = job
        self.bound = self.install()
        try:
            with self.span("job"):
                yield
        finally:
            self.uninstall()
            self.job = None

    def _wrap(self, fn, bucket: str, hook):
        def traced(*args, **kwargs):
            idx = self._open(bucket)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                with self.span(GUARD):
                    self.spans[idx][5].update(hook(args, kwargs, result))
            return result
        traced.__wrapped__ = fn
        return traced

    def install(self) -> list[str]:
        """Wrap every target under each name bound to it; returns those names.

        A target whose module or function no longer exists is skipped, so
        a later change that removes a function leaves its layer at 0
        instead of breaking the traced run; the returned names show what
        was bound.
        """
        originals = {}
        for modname, funcs in TARGETS.items():
            mod = sys.modules.get(modname)
            for fname, (bucket, hook) in funcs.items():
                fn = getattr(mod, fname, None)
                if callable(fn):
                    originals[id(fn)] = (fn, self._wrap(fn, bucket, hook))
        bound = []
        for modname, mod in list(sys.modules.items()):
            if modname != "sdnet" and not modname.startswith("sdnet."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))
                    bound.append(f"{modname}.{attr}")
        return sorted(bound)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def records(self) -> list[dict]:
        return [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                 "job": s[4], **s[5]} for s in self.spans]


def layer_metrics(spans: list[list], jobs: int) -> dict[str, float]:
    """Per-job layer figures from spans recorded under root ``job`` spans.

    ``<bucket>`` times are inclusive and count only the outermost span of
    that bucket on each path, so a layer calling itself is not counted
    twice. Self times subtract the part of a span its children cover.
    """
    children_time = [0.0] * len(spans)
    for s in spans:
        if s[3] is not None:
            children_time[s[3]] += s[2] - s[1]

    def nested_in_same(i):
        p = spans[i][3]
        while p is not None:
            if spans[p][0] == spans[i][0]:
                return True
            p = spans[p][3]
        return False

    incl: dict[str, float] = {}
    self_t: dict[str, float] = {}
    for i, s in enumerate(spans):
        dur = s[2] - s[1]
        self_t[s[0]] = self_t.get(s[0], 0.0) + dur - children_time[i]
        if not nested_in_same(i):
            incl[s[0]] = incl.get(s[0], 0.0) + dur

    def attr_sum(bucket, key):
        return sum(s[5].get(key, 0) for s in spans if s[0] == bucket)

    def count(bucket):
        return sum(1 for s in spans if s[0] == bucket)

    def rate(num, den):
        return num / den if den > 0 else 0.0

    per_job = max(jobs, 1)
    graphs = len({(s[4], s[5]["graph"]) for s in spans
                  if s[0] == "spectral.operator_s"})
    residuals = [s[5]["residual"] for s in spans if s[0] == "spectral.eigh_s"]
    op_bytes = [s[5]["bytes"] for s in spans if s[0] == "spectral.operator_s"]
    queries = attr_sum("splitters.link_s", "queries")
    discarded = attr_sum("splitters.link_s", "discarded")
    row_epochs = sum(s[5].get("rows", 0) * s[5].get("epochs", 0)
                     for s in spans if s[0] == "logistic.fit_s")
    job_time = incl.get("job", 0.0)
    # time inside some layer span: everything under the job roots except
    # the roots' own glue and the tracer's guard work
    covered = sum(v for k, v in self_t.items() if k not in ("job", GUARD))

    def t(bucket):
        return incl.get(bucket, 0.0) / per_job

    return {
        "generators.s": t("generators.s"),
        "generators.edges_per_s": rate(attr_sum("generators.s", "edges"),
                                       incl.get("generators.s", 0.0)),
        "spectral.operator_s": t("spectral.operator_s"),
        "spectral.eigh_s": t("spectral.eigh_s"),
        "spectral.eigh_calls": count("spectral.eigh_s") / per_job,
        "spectral.eigh_calls_per_graph": rate(count("spectral.eigh_s"), graphs),
        "spectral.operator_bytes": float(max(op_bytes, default=0)),
        "spectral.eigh_residual_max": max(residuals, default=0.0),
        "cluster.kmeans_s": t("cluster.kmeans_s"),
        "cluster.kmeans_calls": count("cluster.kmeans_s") / per_job,
        "cluster.self_s": self_t.get("cluster.s", 0.0) / per_job,
        "splitters.link_s": t("splitters.link_s"),
        "splitters.forest_s": t("splitters.forest_s"),
        "splitters.node_s": t("splitters.node_s"),
        "splitters.queries": queries / per_job,
        "splitters.discarded_ratio": rate(discarded, queries + discarded),
        "logistic.fit_s": t("logistic.fit_s"),
        "logistic.epochs": attr_sum("logistic.fit_s", "epochs") / per_job,
        "logistic.row_epochs_per_s": rate(row_epochs, incl.get("logistic.fit_s", 0.0)),
        "graph.features_s": t("graph.features_s"),
        "graph.lwcc_s": t("graph.lwcc_s"),
        "metrics.s": t("metrics.s"),
        "io.write_s": t("io.write_s"),
        "io.read_s": t("io.read_s"),
        "io.bytes": attr_sum("io.write_s", "bytes") / per_job,
        "pipeline.self_s": self_t.get("pipeline.s", 0.0) / per_job,
        "trace.coverage_ratio": rate(covered, job_time),
    }
