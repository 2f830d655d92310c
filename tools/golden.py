"""Record the SHA-256 of every file each shipped config writes.

Runs every ``configs/*.toml`` in-process through ``sdnet.cli.main``,
choosing the command from the config's first command section as CI
does (``generate`` when it has none), into a temporary directory, and
rewrites ``tests/golden.json`` as one entry: this host's key (the
Python, numpy and scipy versions and the BLAS that ``np.show_config``
reports) mapping every ``<config>/<file>`` to its digest.
``tests/test_golden.py`` reruns the configs and compares; on any other
key it skips. A change that moves an output byte reruns this script
and names every moved file. One pass takes about 6 s. Run it from the
root of a source checkout:

    PYTHONPATH=src python tools/golden.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from sdnet.cli import main
from sdnet.config import load

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
GOLDEN = ROOT / "tests" / "golden.json"
# the sections that name a command, as CI's grep lists them
COMMAND_SECTIONS = ("split", "cluster", "linkpred", "sweep", "metrics")


def host_key() -> str:
    """The versions the recorded bytes hold for."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"Python {sys.version.split()[0]}, numpy {np.__version__}, "
            f"scipy {scipy.__version__}, BLAS {blas['name']} {blas['version']}")


def command(path: Path) -> str:
    """The command CI runs a config with: its first command section."""
    return next((name for name in load(path) if name in COMMAND_SECTIONS), "generate")


def output_hashes(outdir: Path) -> dict:
    """Run every shipped config into ``outdir``; {"<config>/<file>": SHA-256}."""
    for path in sorted(CONFIGS.glob("*.toml")):
        code = main([command(path), "--config", str(path), "--out", str(outdir / path.stem)])
        if code:
            raise RuntimeError(f"{path.name} exited {code}")
    return {f.relative_to(outdir).as_posix(): hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(outdir.rglob("*")) if f.is_file()}


def record() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        hashes = output_hashes(Path(tmp))
    GOLDEN.write_text(json.dumps({host_key(): hashes}, indent=1) + "\n", encoding="utf-8")
    print(f"{GOLDEN.relative_to(ROOT)}: {len(hashes)} files under {host_key()!r}")


if __name__ == "__main__":
    record()
