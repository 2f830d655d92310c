"""Every shipped config writes the bytes ``tests/golden.json`` records.

``tools/golden.py`` records them and holds the runner this test uses;
the recorded key names the versions they hold for, and any other key
skips.
"""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "golden.py"


def _golden_tool():
    spec = importlib.util.spec_from_file_location("golden", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_shipped_configs_write_their_recorded_bytes(tmp_path):
    golden = _golden_tool()
    recorded = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))
    key = golden.host_key()
    if key not in recorded:
        pytest.skip(f"tests/golden.json has no entry for {key!r} "
                    f"(it holds {', '.join(map(repr, recorded))})")
    want, got = recorded[key], golden.output_hashes(tmp_path)
    moved = sorted(name for name in want.keys() & got.keys() if want[name] != got[name])
    unmatched = sorted(want.keys() ^ got.keys())
    assert not moved and not unmatched, \
        f"moved {moved}, written or recorded alone {unmatched}; tools/golden.py re-records"
