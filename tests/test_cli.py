from pathlib import Path

import numpy as np
import pytest

from sdnet.cli import main


def run(args):
    return main([str(a) for a in args])


def write(path, text):
    Path(path).write_text(text, encoding="utf-8")
    return path


GEN_CFG = """
[graph]
model = "ssbm"
n = 60
k = 3
p_in = 0.2
p_out = 0.2
eta = 0.1
seed = 3
"""


def read_nonblank(path):
    return Path(path).read_bytes()


def test_generate_and_rerun_identical(tmp_path):
    cfg = write(tmp_path / "gen.toml", GEN_CFG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["generate", "--config", cfg, "--out", out1]) == 0
    assert run(["generate", "--config", cfg, "--out", out2]) == 0
    assert read_nonblank(out1 / "edges.tsv") == read_nonblank(out2 / "edges.tsv")
    assert read_nonblank(out1 / "labels.csv") == read_nonblank(out2 / "labels.csv")


def test_generate_seed_override(tmp_path):
    cfg = write(tmp_path / "gen.toml", GEN_CFG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["generate", "--config", cfg, "--out", out1]) == 0
    assert run(["generate", "--config", cfg, "--out", out2, "--seed", 99]) == 0
    assert read_nonblank(out1 / "edges.tsv") != read_nonblank(out2 / "edges.tsv")


def test_split_node_and_link(tmp_path):
    cfg = write(tmp_path / "s.toml", GEN_CFG + """
[split]
kind = "node"
train_frac = 0.8
val_frac = 0.1
test_frac = 0.1
seed_frac = 0.1
num_splits = 2
""")
    out = tmp_path / "node"
    assert run(["split", "--config", cfg, "--out", out]) == 0
    assert (out / "node_split.csv").exists()

    cfg2 = write(tmp_path / "l.toml", GEN_CFG + """
[split]
kind = "link"
task = "SP"
prob_val = 0.15
prob_test = 0.05
maintain_connectedness = true
""")
    out2 = tmp_path / "link"
    assert run(["split", "--config", cfg2, "--out", out2]) == 0
    for name in ("link_split.csv", "observed.tsv", "discarded.csv"):
        assert (out2 / name).exists()


def test_cluster_command(tmp_path):
    cfg = write(tmp_path / "c.toml", GEN_CFG + """
[cluster]
method = "signed_laplacian_sym"
k = 3
""")
    out = tmp_path / "out"
    assert run(["cluster", "--config", cfg, "--out", out]) == 0
    text = (out / "metrics.csv").read_text()
    assert "ari," in text
    assert (out / "pred_labels.csv").exists()


def test_linkpred_command(tmp_path):
    cfg = write(tmp_path / "lp.toml", """
[graph]
model = "sdsbm"
n = 100
p = 0.2
meta = "f1"
gamma = 0.0
seed = 0

[linkpred]
task = "SP"
embed = "signed_spectral"
embed_dim = 4
seeds = [0, 1]
epochs = 100
""")
    out = tmp_path / "out"
    assert run(["linkpred", "--config", cfg, "--out", out]) == 0
    runs = (out / "runs.csv").read_text().splitlines()
    header = [ln for ln in runs if not ln.startswith("#")][0]
    assert header == "sweep_value,instance,seed,metric,value"
    assert (out / "summary.csv").exists()


DP_CFG = """
[graph]
model = "dsbm"
meta = "cycle"
n = 90
k = 3
p = 0.3
seed = 0

[linkpred]
task = "DP"
embed = "hermitian_spectral"
embed_dim = 3
seeds = [0]
epochs = 50
"""


def test_linkpred_command_takes_library_default_combiner(tmp_path):
    outs = {}
    for name, extra in (("default", ""), ("phase", 'combine = "phase"\n'),
                        ("concat", 'combine = "concat"\n')):
        cfg = write(tmp_path / f"{name}.toml", DP_CFG + extra)
        assert run(["linkpred", "--config", cfg, "--out", tmp_path / name]) == 0
        outs[name] = (tmp_path / name / "runs.csv").read_bytes()
    assert outs["default"] == outs["phase"]
    assert outs["default"] != outs["concat"]


SWEEP_CFG = """
[graph]
model = "dsbm"
meta = "cycle"
n = 60
k = 3
p = 0.3
rho = 1.0
seed = 0

[sweep]
param = "eta"
values = [0.0, 0.4]
method = "hermitian_imbalance"
k = 3
instances = 1
seeds = [0, 1]
"""


def test_sweep_command_outputs_and_determinism(tmp_path):
    cfg = write(tmp_path / "sw.toml", SWEEP_CFG)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert run(["sweep", "--config", cfg, "--out", out1]) == 0
    assert run(["sweep", "--config", cfg, "--out", out2]) == 0
    for name in ("runs.csv", "summary.csv", "sweep.svg"):
        assert read_nonblank(out1 / name) == read_nonblank(out2 / name)
    svg = (out1 / "sweep.svg").read_text()
    assert svg.startswith("<?xml") and "<svg" in svg and "polyline" in svg
    rows = [ln for ln in (out1 / "runs.csv").read_text().splitlines()
            if ln and not ln.startswith("#")][1:]
    assert len(rows) == 2 * 1 * 2


def test_metrics_command(tmp_path):
    cfg = write(tmp_path / "g.toml", GEN_CFG)
    gdir = tmp_path / "gen"
    assert run(["generate", "--config", cfg, "--out", gdir]) == 0
    mcfg = write(tmp_path / "m.toml", f"""
[graph]
path = "{gdir}/edges.tsv"

[metrics]
labels_true = "{gdir}/labels.csv"
labels_pred = "{gdir}/labels.csv"
names = ["ari", "accuracy", "unhappy_ratio", "balanced_triangle_ratio"]
""")
    out = tmp_path / "m"
    assert run(["metrics", "--config", mcfg, "--out", out]) == 0
    text = (out / "metrics.csv").read_text()
    assert "ari,1.0," in text


def test_exit_code_config_error(tmp_path):
    missing = tmp_path / "nope.toml"
    assert run(["generate", "--config", missing, "--out", tmp_path / "x"]) == 2
    bad = write(tmp_path / "bad.toml", "[graph]\nmodel = \"nope\"\nn = 5\n")
    assert run(["generate", "--config", bad, "--out", tmp_path / "y"]) == 2
    nosec = write(tmp_path / "nosec.toml", "[graph]\nmodel = \"ssbm\"\nn = 10\n"
                  "k = 2\np_in = 0.5\np_out = 0.5\n")
    assert run(["cluster", "--config", nosec, "--out", tmp_path / "z"]) == 2


def test_exit_code_numeric_failure(tmp_path, monkeypatch):
    import sdnet.cli as cli
    from sdnet.spectral import NumericError

    def boom(*a, **k):
        raise NumericError("no convergence")

    monkeypatch.setitem(cli.COMMANDS, "cluster", boom)
    cfg = write(tmp_path / "c.toml", GEN_CFG + "[cluster]\nmethod = \"signed_laplacian_sym\"\nk = 3\n")
    assert run(["cluster", "--config", cfg, "--out", tmp_path / "o"]) == 3


def test_cli_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["unknown-command"])
    assert exc.value.code == 2


def _header(path):
    return [ln for ln in Path(path).read_text().splitlines() if ln.startswith("#")]


def test_linkpred_header_records_resolved_settings(tmp_path):
    heads = {}
    for name, extra in (("default", ""), ("concat", 'combine = "concat"\n')):
        cfg = write(tmp_path / f"{name}.toml", DP_CFG + extra)
        assert run(["linkpred", "--config", cfg, "--out", tmp_path / name]) == 0
        heads[name] = _header(tmp_path / name / "runs.csv")
    assert heads["default"] != heads["concat"]
    assert '# combine = "phase"' in heads["default"]
    assert '# combine = "concat"' in heads["concat"]
    for line in ("# embed_dim = 3", "# epochs = 50", "# lr = 0.1", "# l2 = 0.0001",
                 "# q = 0.25", "# tau = 0.25", "# prob_val = 0.15", "# prob_test = 0.05"):
        assert line in heads["default"]
