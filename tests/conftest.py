"""Fixtures shared by the test modules."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def run_at_blas_threads():
    """run(script, threads): run ``script`` in a fresh Python with sdnet on
    its path and ``OPENBLAS_NUM_THREADS=threads`` set before numpy loads;
    returns its stdout and fails the test on a nonzero exit."""
    def run(script: str, threads: int) -> str:
        env = {**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": str(threads)}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout
    return run
