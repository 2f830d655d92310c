"""Time and peak memory of one large link split and clustering, stage by stage.

Generates an sdsbm f1 graph (n = 100000 unless given, p = 20 / n),
writes it to an edge TSV in a temporary directory and reads it back,
takes the largest weakly connected component of the read-back graph
and its spanning forest (the two callers of one Borůvka routine),
splits its links for 4C with ``maintain_connectedness`` and for EP,
builds its signed magnetic Laplacian, solves it for k = 3 eigenpairs,
clusters the row-normalized [Re | Im] embedding and scores the
partition's one-hot assignment (``pbnc_loss``, then ``prob_imbalance``),
splits its links for 5C and fits the link classifier's ``L2_GRID``
warm-started chain on the training fold's signed-degree ``concat``
features (K = 5), prepared once as a ``logistic.Design`` as
``linkpred_run`` does, printing
after each stage its wall time, its own traced peak (tracemalloc, in
bytes per edge above what was held when the stage began), the process's
peak RSS so far (``ru_maxrss``) and its current RSS (Linux's ``VmRSS``);
under the build stage it prints the bytes per edge the operator keeps
and the build's traced peak as a multiple of them, under each score its
traced peak per cell of the symmetrized support, and under the fit its
rows, the Newton iterations of each fit and its traced peak per row.
A stage after the fit solves ``hermitian_imbalance`` of a dsbm cycle
graph (eta = 0.1) of the same n and p for its k = 3 largest-|value|
pairs and prints the route ``eigh`` took (ARPACK's real solver on the
antisymmetric S, or the complex one) and the largest residual.
``ru_maxrss`` only
grows, so a stage that peaks below an earlier one shows no rise there;
the traced peak does, and the current RSS shows how much of the heap
the stage left mapped for the next one.
Tracing is on while the stages are timed, which slows allocation-heavy
stages a little.
A last stage builds the dense link features (``signed_spectral_features``
and ``hermitian_spectral_features``, k = 8) on an sdsbm f1 graph of
n_f = min(n, 2000) nodes and prints each builder's wall time, its traced
peak, its RSS growth in n_f^2 doubles and the solver that ran: LAPACK's
``dsyevr`` for the top pairs alone, or the full ``eigh`` fallback where
numpy's OpenBLAS does not export it. Each builder runs in a fresh
process, whose peak RSS (Linux's ``VmHWM``) starts below the builder;
``ru_maxrss`` would not, as it keeps the RSS of the process it was
started from.
The header prints ``OPENBLAS_NUM_THREADS``, the BLAS thread count every
stage runs at ("unset": OpenBLAS's default). Not part of
the pytest suite; the CI workflow runs it at n = 20,000 (a few seconds),
which keeps it working. Run it from the root of a source checkout:

    PYTHONPATH=src python tools/scale_probe.py [n]
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import resource
import tempfile
import tracemalloc
from pathlib import Path
from time import perf_counter

import numpy as np

from sdnet import _blas, graph, metrics, spectral
from sdnet import io as sio
from sdnet.cluster import cluster_embedding, real_columns
from sdnet.generators import dsbm, f1_meta, meta_graph, sdsbm
from sdnet.logistic import Design, logistic_train
from sdnet.pipeline import L2_GRID
from sdnet.splitters import link_class_split, spanning_forest

N = 100_000
DEGREE = 20.0
K = 3
DENSE_N = 2000
DENSE_K = 8
DENSE_BUILDERS = ("signed_spectral_features", "hermitian_spectral_features")


def _peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _status_bytes(field: str) -> int:
    """A ``kB`` field of /proc/self/status (``VmRSS``, ``VmHWM``) in bytes."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1]) * 1024
    raise KeyError(field)


def _dense_stage(name: str, n: int) -> tuple[float, int, int, str]:
    """Seconds, traced peak, RSS growth (bytes) and solver of one dense
    feature builder, run in the calling process."""
    g = sdsbm(f1_meta(0.0), n, DEGREE / n, seed=1).graph
    before = _status_bytes("VmRSS")
    tracemalloc.start()
    t = perf_counter()
    getattr(graph, name)(g, DENSE_K)
    seconds = perf_counter() - t
    traced = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    solver = "dsyevr" if _blas.lapacke_dsyevr() is not None else "eigh fallback"
    return seconds, traced, _status_bytes("VmHWM") - before, solver


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("n", type=int, nargs="?", default=N, help=f"nodes (default {N})")
    n = ap.parse_args(argv).n

    m = 0
    traced = 0.0  # the last stage's traced peak, bytes per edge

    def stage(name, fn, *fn_args):
        nonlocal m, traced
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        t = perf_counter()
        out = fn(*fn_args)
        seconds = perf_counter() - t
        m = m or max(out.num_edges, 1)  # the first stage returns the graph
        traced = (tracemalloc.get_traced_memory()[1] - held) / m
        print(f"{name:<34} {seconds:8.2f} s   traced peak {traced:6.1f} B/edge   "
              f"peak RSS {_peak_mb():7.1f} MB   RSS {_status_bytes('VmRSS') / 2**20:7.1f} MB",
              flush=True)
        return out

    import scipy.sparse.linalg  # noqa: F401  (so no stage's time includes the import)
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    print(f"sdsbm f1, n={n}, p={DEGREE:g}/n, k={K}, OPENBLAS_NUM_THREADS={threads}; "
          f"peak RSS at start {_peak_mb():.1f} MB")
    tracemalloc.start()
    g = stage("generate", lambda: sdsbm(f1_meta(0.0), n, DEGREE / n, seed=1).graph)
    print(f"  m = {g.num_edges}")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "edges.tsv"
        stage("write_edge_tsv", sio.write_edge_tsv, path, g)
        back = stage("read_edge_tsv", sio.read_edge_tsv, path)
    sub, _ = stage("largest_weakly_connected_component",
                   graph.largest_weakly_connected_component, back)
    print(f"  component: n = {sub.num_nodes}, m = {sub.num_edges}")
    forest = stage("spanning_forest", spanning_forest, back)
    print(f"  forest: {forest.size} edges")
    del back, sub, forest
    stage("link_class_split(4C, forest)",
          lambda: link_class_split(g, "4C", maintain_connectedness=True))
    stage("link_class_split(EP)", link_class_split, g, "EP")
    op = stage("signed_magnetic_laplacian", spectral.signed_magnetic_laplacian, g)
    kept = op.entries.nbytes / m
    print(f"  operator keeps {kept:.1f} B/edge; the build traced {traced / kept:.2f}x that")
    pairs = stage("eigh(k=3)", spectral.eigh, op, K)
    emb = real_columns(pairs.vectors)
    emb /= np.maximum(np.linalg.norm(emb, axis=1, keepdims=True), 1e-300)
    soft, _ = stage("cluster_embedding", cluster_embedding, emb, K)
    cells = graph.symmetric_pairs(g)[0].size
    print(f"  {cells} cells in the symmetrized support")
    for name in ("pbnc_loss", "prob_imbalance"):
        stage(name, getattr(metrics, name), g, soft)
        print(f"  traced peak {traced * m / cells:.1f} B/cell")

    split = stage("link_class_split(5C)", link_class_split, g, "5C")
    deg = graph.signed_degree_features(split.observed_graph).values
    x = deg[split.train_pairs].reshape(len(split.train_pairs), -1)
    classes = np.arange(len(split.label_names))
    iterations = []

    def fit_chain():
        design = Design(x, split.train_labels, classes)
        fit = None
        for l2 in L2_GRID:
            fit = logistic_train(design, l2=l2, start=fit)
            iterations.append(len(fit.losses))

    stage(f"logistic_train(5C, {len(L2_GRID)} l2 fits)", fit_chain)
    rows = x.shape[0]
    print(f"  {rows} rows x {x.shape[1]} columns, K = {classes.size}; Newton iterations "
          f"per fit {iterations}; traced peak {traced * m / rows:.1f} B/row")
    del split, deg, x, op, pairs, emb, soft

    dg = dsbm(meta_graph("cycle", K, eta=0.1), n, K, DEGREE / n, seed=1).graph
    skew = spectral.hermitian_imbalance(dg)
    route = "real S" if spectral._skew_route(skew.entries, "largest_abs") else "complex"
    print(f"dsbm cycle, n={n}, p={DEGREE:g}/n, m = {dg.num_edges}")
    pairs = stage("eigh(hermitian_imbalance, k=3)", spectral.eigh, skew, K, "largest_abs")
    residual = np.linalg.norm(skew.entries @ pairs.vectors - pairs.vectors * pairs.values,
                              axis=0).max()
    print(f"  route {route}; values {np.array2string(pairs.values, precision=4)}; "
          f"residual {residual:.2g}")
    del dg, skew, pairs

    n_f = min(n, DENSE_N)
    print(f"dense features, sdsbm f1, n_f={n_f}, k={DENSE_K}, each in a fresh process "
          f"(units of n_f^2 doubles, {8 * n_f * n_f / 2**20:.1f} MB)")
    for name in DENSE_BUILDERS:
        with multiprocessing.get_context("spawn").Pool(1) as pool:
            seconds, traced, grown, solver = pool.apply(_dense_stage, (name, n_f))
        unit = 8.0 * n_f * n_f
        print(f"{name:<34} {seconds:8.2f} s   traced peak {traced / unit:4.1f} n^2   "
              f"RSS growth {grown / unit:4.1f} n^2   solver {solver}", flush=True)


if __name__ == "__main__":
    main()
