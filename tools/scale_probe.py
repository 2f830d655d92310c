"""Time and peak memory of one large signed-magnetic clustering, stage by stage.

Generates an sdsbm f1 graph (n = 100000, p = 20 / n), builds its
signed magnetic Laplacian, solves it for k = 3 eigenpairs and clusters
the row-normalized [Re | Im] embedding, printing after each stage its
wall time and the process's peak RSS so far (``ru_maxrss``). Not part of
the test suite; run it by hand from the root of a source checkout:

    PYTHONPATH=src python tools/scale_probe.py
"""

from __future__ import annotations

import resource
from time import perf_counter

import numpy as np

from sdnet import spectral
from sdnet.cluster import cluster_embedding, real_columns
from sdnet.generators import f1_meta, sdsbm

N = 100_000
DEGREE = 20.0
K = 3


def _peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> None:
    def stage(name, fn, *fn_args):
        t = perf_counter()
        out = fn(*fn_args)
        print(f"{name:<26} {perf_counter() - t:8.2f} s   peak RSS {_peak_mb():7.1f} MB",
              flush=True)
        return out

    print(f"sdsbm f1, n={N}, p={DEGREE:g}/n, k={K}; peak RSS at start {_peak_mb():.1f} MB")
    g = stage("generate", lambda: sdsbm(f1_meta(0.0), N, DEGREE / N, seed=1).graph)
    print(f"  m = {g.num_edges}")
    op = stage("signed_magnetic_laplacian", spectral.signed_magnetic_laplacian, g)
    pairs = stage("eigh(k=3)", spectral.eigh, op, K)
    emb = real_columns(pairs.vectors)
    emb /= np.maximum(np.linalg.norm(emb, axis=1, keepdims=True), 1e-300)
    stage("cluster_embedding", cluster_embedding, emb, K)


if __name__ == "__main__":
    main()
