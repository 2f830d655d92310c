"""One workload in one fresh process: set up, warm up, run jobs, check them.

Started by ``run.py``; not meant to be run by hand. Protocol on stdout:
a line ``READY`` once imports and the one-job warm-up are done (the
parent times set-up from spawn to that line), then, as the last line,
one JSON object with the raw measurements. Job output checks run
outside every timed interval.

Closed loop, one client: each job starts when the previous one has
finished and been checked. A run uses ``--workers`` such processes one
after another; worker ``k`` of ``W`` runs jobs ``k, k + W, k + 2W, ...``
in whole blocks (the workload's ``block``; 2 in traced runs, so both
variants are traced) until their summed time reaches ``--seconds``.

With ``--trace 1`` every job runs twice in a row, untraced and then
traced, so both passes see the same inputs and the ratio of their times
is the tracing overhead; the two outputs must have the same digest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import numpy as np
import workloads
from tracer import Tracer, layer_metrics

MAX_JOBS = 100_000
WARMUP_JOB = 1_000_000  # even, so it runs the first variant; never measured
TRACE_BLOCK = 2  # every workload alternates two variants


def _args(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--worker", type=int, default=0)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--out", type=Path, required=True)
    return ap.parse_args(argv)


class Runner:
    """Runs, checks and digests jobs of one workload; counts failures."""

    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}

    def execute(self, j: int, job: dict, scope=None):
        """Time job j inside ``scope``: (seconds, outputs or None if it raised)."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            with scope or nullcontext():
                out = self.wl.run(job)
        except Exception:
            self.fail(j, "raised:\n" + traceback.format_exc())
            out = None
        return perf_counter() - t0, out

    def verify(self, j: int, job: dict, out: dict | None, label: str) -> str | None:
        """Check and digest outputs; None when the job raised or a check failed."""
        if out is None:
            return None
        try:
            fails = self.wl.check(job, out)
        except Exception:
            fails = ["check raised:\n" + traceback.format_exc()]
        if fails:
            self.fail(j, "; ".join(fails))
            return None
        h = hashlib.sha256()
        self.wl.digest(out, h)
        self.digests[f"{label}{j}"] = h.hexdigest()
        return h.hexdigest()

    def fail(self, j: int, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"job {j}: {why}")
            print(f"perfbench: {self.wl.name} job {j} failed: {why}", file=sys.stderr)


def machine() -> dict:
    info = {"nproc": os.cpu_count(), "numpy": np.__version__,
            "python": sys.version.split()[0],
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        info["blas"] = "unknown"
    return info


def main(argv=None) -> int:
    a = _args(argv)
    scratch = a.out.parent / f"tmp-{a.out.stem}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.make(a.workload, a.root, a.seed, a.tiny, scratch)
        runner = Runner(wl)
        warm = wl.make_job(WARMUP_JOB)
        warm_s, out = runner.execute(WARMUP_JOB, warm)
        print("READY", flush=True)
        runner.verify(WARMUP_JOB, warm, out, "warmup")
        del out
        result = {"machine": machine(), "warmup_s": warm_s}
        result.update(measure(a, wl, runner))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result.update(attempted=runner.attempted, failed=runner.failed,
                  failures=runner.failures, digests=runner.digests,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(result), flush=True)
    return 0


def measure(a, wl, runner: Runner) -> dict:
    tracer = Tracer() if a.trace else None
    block = TRACE_BLOCK if a.trace else wl.block
    quality = workloads.QUALITY.get(a.workload)
    times: list[float] = []
    traced_times: list[float] = []
    quality_values: list[float] = []
    first_block: list[str] = []
    i = 0
    while (i % block or sum(times) < a.seconds or not i) and i < MAX_JOBS:
        j = i * a.workers + a.worker
        job = wl.make_job(j)
        dt, out = runner.execute(j, job)
        digest = runner.verify(j, job, out, "job")
        times.append(dt)
        if i < block:
            first_block.append(f"job{j}")
            if quality and digest is not None:
                quality_values += quality[1](out)
        del out  # a finished job's outputs must not count in the next job's memory
        if tracer is not None:
            tdt, tout = runner.execute(j, job, tracer.job_scope(j))
            traced_times.append(tdt)
            tdigest = runner.verify(j, job, tout, "traced")
            del tout
            if digest is not None and tdigest is not None and tdigest != digest:
                runner.fail(j, "traced outputs differ from untraced outputs")
        i += 1
    # the first block's jobs do not depend on timing, so their digests
    # compare across runs of the same seed byte for byte
    res = {"job_times": times,
           "fixed_digests": {k: runner.digests.get(k) for k in first_block}}
    if quality:
        res["quality"] = {quality[0]: quality_values}
    if tracer is not None:
        layers = layer_metrics(tracer.spans, len(traced_times))
        layers["trace.overhead_ratio"] = sum(times) / sum(traced_times)
        layers["trace.jobs"] = float(len(traced_times))
        res["layers"] = layers
        res["patched"] = tracer.bound
        with open(a.out.with_suffix(".spans.jsonl"), "w", encoding="utf-8") as fh:
            for rec in tracer.records():
                fh.write(json.dumps(rec) + "\n")
    return res


if __name__ == "__main__":
    sys.exit(main())
