"""sdnet benchmark: closed-loop workloads with end-to-end and per-layer metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload cluster --seed 1 --seconds 10 --trace 0

Workloads: ``cluster``, ``linkpred``, ``large_sparse`` (see
``perfbench/WORKLOADS.md`` for why each exists). Each run starts its
workload in fresh worker processes with ``src/`` on the import path and
BLAS pinned to ``min(2, nproc)`` threads.

``--trace 0`` reports the end-to-end metrics. The run uses ``WORKERS``
fresh processes one after another; each sets up (imports plus a one-job
warm-up, timed from spawn: the set-up samples, whose median is
``setup_s``) and then measures its share of the jobs. Spreading the
jobs over several processes and a longer span of time averages out the
slow drift of a shared machine's speed. ``--trace 1`` reports per-layer
metrics from one process in which each job also runs once more with
sdnet's public functions wrapped in spans (``perfbench/tracer.py``).

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print
every metric by name and unit, including the ones only some workloads
have. Exit status: 0 when every job passed its output checks, 1 when a
check failed, 2 when the benchmark cannot run (no sdnet sources next to
``perfbench/``, or a worker crashed or overran).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cluster", "linkpred", "large_sparse")
WORKERS = 3
BLAS_THREADS = str(min(2, os.cpu_count() or 1))
WORKER_TIMEOUT_S = 170.0

END_TO_END = {"setup_s": "s", "jobs_per_s": "1/s", "job_s_p50": "s",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "generators.s": "s/job", "generators.edges_per_s": "1/s",
    "spectral.operator_s": "s/job", "spectral.eigh_s": "s/job",
    "spectral.eigh_calls": "count/job", "spectral.eigh_calls_per_graph": "count",
    "spectral.operator_bytes": "bytes", "spectral.eigh_residual_max": "norm",
    "cluster.kmeans_s": "s/job", "cluster.kmeans_calls": "count/job",
    "cluster.self_s": "s/job",
    "splitters.link_s": "s/job", "splitters.forest_s": "s/job",
    "splitters.node_s": "s/job", "splitters.queries": "count/job",
    "splitters.discarded_ratio": "ratio",
    "logistic.fit_s": "s/job", "logistic.epochs": "count/job",
    "logistic.row_epochs_per_s": "1/s",
    "graph.features_s": "s/job", "graph.lwcc_s": "s/job",
    "metrics.s": "s/job",
    "io.write_s": "s/job", "io.read_s": "s/job", "io.bytes": "bytes/job",
    "pipeline.self_s": "s/job",
    "trace.overhead_ratio": "ratio", "trace.coverage_ratio": "ratio",
    "trace.jobs": "count",
}
# printed by name and unit but kept out of the JSON line: the quality
# metrics exist on one workload each, and fail_ratio is 0 on a good run
REPORT_ONLY = {"fail_ratio": "ratio", "ari_mean": "score", "accuracy_mean": "score"}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every graph (smoke test only; figures are not comparable)")
    a = ap.parse_args(argv)
    if a.seed < 0 or a.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return a


def _worker(a, out: Path, k: int, workers: int, deadline: float) -> tuple[float, dict]:
    """Start worker k of ``workers``; returns (spawn-to-READY seconds, its result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds / workers), "--trace", str(a.trace),
           "--worker", str(k), "--workers", str(workers), "--out", str(out)]
    cmd += ["--tiny"] * a.tiny
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    # a hung worker is killed, which ends its stdout and so the read below
    watchdog = threading.Timer(max(deadline - t0, 1.0), proc.kill)
    watchdog.start()
    ready, lines = None, []
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = perf_counter() - t0
            else:
                lines.append(line)
        code = proc.wait(timeout=max(deadline - perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        code = None
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None or not lines:
        raise BenchError(f"{a.workload} worker exited with status {code}")
    return ready, json.loads(lines[-1])


def run(a) -> dict:
    """Run the workload; returns its record (also written to .bench_out/)."""
    if not (ROOT / "src" / "sdnet" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        raise BenchError(f"no sdnet sources under {ROOT}; run from a full checkout")
    outdir = ROOT / ".bench_out"
    outdir.mkdir(exist_ok=True)
    stem = f"{a.workload}-seed{a.seed}-trace{a.trace}"
    deadline = perf_counter() + WORKER_TIMEOUT_S
    workers = 1 if a.trace else WORKERS
    setups, results = [], []
    for k in range(workers):
        s, r = _worker(a, outdir / f"{stem}-w{k}.json", k, workers, deadline)
        setups.append(s)
        results.append(r)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    times = [t for r in results for t in r["job_times"]]
    if a.trace:
        metrics = {k: results[0]["layers"][k] for k in PER_LAYER}
    else:
        metrics = {"setup_s": statistics.median(setups),
                   "jobs_per_s": len(times) / sum(times),
                   "job_s_p50": statistics.median(times),
                   "peak_rss_mb": max(r["peak_rss_mb"] for r in results)}
    quality = {}
    for r in results:
        for name, values in r.get("quality", {}).items():
            quality.setdefault(name, []).extend(values)
    record = {"workload": a.workload, "seed": a.seed, "trace": a.trace,
              "machine": results[0]["machine"], "attempted": attempted, "failed": failed,
              "metrics": metrics,
              "report_only": {"fail_ratio": failed / attempted,
                              **{k: statistics.fmean(v) for k, v in quality.items() if v}},
              "setup_samples_s": setups, "job_times_s": times,
              "digests": {k: v for r in results for k, v in r["digests"].items()},
              "fixed_digests": {k: v for r in results for k, v in r["fixed_digests"].items()},
              "patched": results[0].get("patched", []),
              "failures": [f for r in results for f in r["failures"]]}
    (outdir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def outputs_digest(digests: dict) -> str:
    """One digest over every job's output digest, for byte-for-byte comparison."""
    h = hashlib.sha256()
    for key in sorted(digests):
        h.update(f"{key}={digests[key]};".encode())
    return h.hexdigest()[:16]


def main(argv=None) -> int:
    a = _args(argv)
    try:
        rec = run(a)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    units = PER_LAYER if a.trace else END_TO_END
    m = rec["machine"]
    print(f"# {a.workload} seed={a.seed} trace={a.trace} jobs={len(rec['job_times_s'])} "
          f"nproc={m['nproc']} blas_threads={m['blas_threads']} blas={m['blas']} "
          f"numpy={m['numpy']} python={m['python']}")
    for name, value in rec["metrics"].items():
        print(f"{name} {value:.6g} {units[name]}")
    for name, value in rec["report_only"].items():
        print(f"{name} {value:.6g} {REPORT_ONLY[name]}")
    print(f"# outputs digest {outputs_digest(rec['fixed_digests'])} over "
          f"{len(rec['fixed_digests'])} jobs (each worker's first block)")
    correct = rec["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": rec["attempted"], "failed": rec["failed"],
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in rec["metrics"].items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
