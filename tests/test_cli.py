import functools
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


def _metric_rows(path):
    """{metric: value} of a metrics.csv."""
    rows = [ln.split(",") for ln in Path(path).read_text().splitlines()
            if ln and not ln.startswith("#")]
    return {r[0]: r[1] for r in rows[1:]}


def test_cluster_scores_its_partition_as_the_metrics_command_does(tmp_path):
    import json
    from sdnet.config import load
    shipped = Path(__file__).resolve().parents[1] / "configs" / "ssbm_cluster.toml"
    out = tmp_path / "cluster"
    assert run(["cluster", "--config", shipped, "--out", out]) == 0
    # JSON spells these strings and numbers as TOML does
    graph = "\n".join(f"{key} = {json.dumps(value)}"
                      for key, value in load(shipped)["graph"].items())
    mcfg = write(tmp_path / "m.toml", f"""
[graph]
{graph}

[metrics]
labels_pred = "{out}/pred_labels.csv"
names = ["unhappy_ratio", "pbnc_loss"]
""")
    assert run(["metrics", "--config", mcfg, "--out", tmp_path / "metrics"]) == 0
    clustered = _metric_rows(out / "metrics.csv")
    scored = _metric_rows(tmp_path / "metrics" / "metrics.csv")
    assert {name: clustered[name] for name in scored} == scored
    assert scored["pbnc_loss"] == "0.0"


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


METRIC_NAMES = ["ari", "accuracy", "unhappy_ratio", "balanced_triangle_ratio",
                "prob_imbalance", "pbnc_loss"]


def _metrics_cfg(tmp_path, names, with_true=True):
    gdir = tmp_path / "gen"
    if not gdir.exists():
        assert run(["generate", "--config", write(tmp_path / "g.toml", GEN_CFG),
                    "--out", gdir]) == 0
    true = f'labels_true = "{gdir}/labels.csv"\n' if with_true else ""
    listed = ", ".join(f'"{n}"' for n in names)
    return write(tmp_path / "m.toml", f"""
[graph]
path = "{gdir}/edges.tsv"

[metrics]
{true}labels_pred = "{gdir}/labels.csv"
names = [{listed}]
""")


def test_metrics_command_every_name(tmp_path):
    for name in METRIC_NAMES:
        out = tmp_path / name
        assert run(["metrics", "--config", _metrics_cfg(tmp_path, [name]),
                    "--out", out]) == 0
        rows = [ln for ln in (out / "metrics.csv").read_text().splitlines()
                if ln and not ln.startswith("#")]
        assert [r.split(",")[0] for r in rows[1:]] == [name]
    out = tmp_path / "all"
    names = METRIC_NAMES[::-1]
    assert run(["metrics", "--config", _metrics_cfg(tmp_path, names), "--out", out]) == 0
    rows = [ln for ln in (out / "metrics.csv").read_text().splitlines()
            if ln and not ln.startswith("#")]
    assert [r.split(",")[0] for r in rows[1:]] == names


def test_metrics_command_config_errors(tmp_path, capsys):
    cfg = _metrics_cfg(tmp_path, ["ari", "bogus"])
    assert run(["metrics", "--config", cfg, "--out", tmp_path / "a"]) == 2
    assert "unknown metric 'bogus'" in capsys.readouterr().err
    cfg = _metrics_cfg(tmp_path, ["unhappy_ratio", "ari"], with_true=False)
    assert run(["metrics", "--config", cfg, "--out", tmp_path / "b"]) == 2
    assert "ari needs true labels" in capsys.readouterr().err
    assert not (tmp_path / "b" / "metrics.csv").exists()


def test_exit_code_config_error(tmp_path):
    missing = tmp_path / "nope.toml"
    assert run(["generate", "--config", missing, "--out", tmp_path / "x"]) == 2
    bad = write(tmp_path / "bad.toml", "[graph]\nmodel = \"nope\"\nn = 5\n")
    assert run(["generate", "--config", bad, "--out", tmp_path / "y"]) == 2
    nosec = write(tmp_path / "nosec.toml", "[graph]\nmodel = \"ssbm\"\nn = 10\n"
                  "k = 2\np_in = 0.5\np_out = 0.5\n")
    assert run(["cluster", "--config", nosec, "--out", tmp_path / "z"]) == 2


def test_unknown_method_rejected_before_generating(tmp_path, monkeypatch, capsys):
    import sdnet.cli as cli
    import sdnet.pipeline as pipeline
    generated = []

    def record(*a, **k):
        generated.append(a)
        raise AssertionError("the graph was generated")

    monkeypatch.setattr(cli, "generate_from_params", record)
    monkeypatch.setattr(pipeline, "generate_from_params", record)
    for command, section in (("cluster", "[cluster]\nk = 3\n"),
                             ("sweep", '[sweep]\nparam = "eta"\nvalues = [0.0]\nk = 3\n')):
        cfg = write(tmp_path / f"{command}.toml",
                    GEN_CFG + section + 'method = "nope"\n')
        assert run([command, "--config", cfg, "--out", tmp_path / command]) == 2
        assert "'nope'" in capsys.readouterr().err
    assert generated == []


@pytest.mark.parametrize("command, section, message", [
    ("cluster", '[cluster]\nmethod = "signed_laplacian_sym"\n',
     "[cluster] is missing required key 'k'"),
    ("linkpred", '[linkpred]\nembed = "signed_spectral"\n',
     "[linkpred] is missing required key 'task'"),
    ("sweep", '[sweep]\nparam = "eta"\nmethod = "signed_laplacian_sym"\nk = 3\n',
     "[sweep] is missing required key 'values'"),
    ("split", '[split]\nkind = "link"\n', "[split] is missing required key 'task'"),
    ("split", '[split]\nkind = "link"\ntask = "XY"\n', "unknown link task 'XY'"),
    ("linkpred", '[linkpred]\ntask = "XY"\n', "unknown link task 'XY'"),
    ("split", '[split]\nkind = "edge"\n', "unknown split kind 'edge'"),
    ("linkpred", '[linkpred]\ntask = "SP"\ncombine = "outer"\n',
     "unknown edge combiner 'outer'"),
    ("sweep", '[sweep]\nparam = "eta"\nvalues = [0.0]\nmethod = "signed_laplacian_sym"\n'
              'k = 3\nseeds = []\n', "need at least one seed"),
    ("sweep", '[sweep]\nparam = "eta"\nvalues = []\nmethod = "signed_laplacian_sym"\n'
              'k = 3\n', "need at least one value"),
    ("sweep", '[sweep]\nparam = "eta"\nvalues = [0.0]\nmethod = "signed_laplacian_sym"\n'
              'k = 3\ninstances = 0\n', "need at least one instance"),
    ("generate", '[clustr]\nk = 2\n', "unknown section(s) [clustr]"),
    ("generate", 'seed = 5\n', "key(s) 'seed' must sit in a [section]"),
])
def test_config_error_rejected_before_generating(tmp_path, monkeypatch, capsys,
                                                 command, section, message):
    import sdnet.cli as cli
    import sdnet.pipeline as pipeline

    def record(*a, **k):
        raise AssertionError("the graph was generated")

    monkeypatch.setattr(cli, "generate_from_params", record)
    monkeypatch.setattr(pipeline, "generate_from_params", record)
    # a key written before [graph] is a top-level key
    text = GEN_CFG + section if section.startswith("[") else section + GEN_CFG
    cfg = write(tmp_path / "c.toml", text)
    assert run([command, "--config", cfg, "--out", tmp_path / "out"]) == 2
    assert message in capsys.readouterr().err
    assert not any((tmp_path / "out").glob("*"))


@pytest.mark.parametrize("command, text", [
    ("sweep", GEN_CFG + '[sweep]\nparam = "eta"\nvalues = 0.1\n'
              'method = "signed_laplacian_sym"\nk = 3\n'),
    ("linkpred", GEN_CFG + '[linkpred]\ntask = "SP"\nembed = "signed_spectral"\nseeds = 3\n'),
    ("generate", GEN_CFG.replace("n = 60", 'n = "60"')),
], ids=["sweep-values-scalar", "linkpred-seeds-scalar", "graph-n-string"])
def test_mistyped_config_value_exits_2(tmp_path, capsys, command, text):
    # each once ended in a TypeError traceback with exit 1
    cfg = write(tmp_path / "c.toml", text)
    assert run([command, "--config", cfg, "--out", tmp_path / "out"]) == 2
    assert "sdnet: config error:" in capsys.readouterr().err


def test_unwritable_default_exits_2_naming_its_key(tmp_path, monkeypatch, capsys):
    # a keyword defaulting to None reaches every output header, although
    # the config never sets it; the error once named no key
    import sdnet.cli as cli
    real = cli.spectral_cluster

    def with_dim(g, method, k, seed=0, q=0.25, tau=0.25, dim=None):
        return real(g, method, k, seed=seed, q=q, tau=tau)

    monkeypatch.setattr(cli, "spectral_cluster", with_dim)
    cfg = write(tmp_path / "c.toml",
                GEN_CFG + '[cluster]\nmethod = "signed_laplacian_sym"\nk = 3\n')
    assert run(["cluster", "--config", cfg, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert "sdnet: config error:" in err and "'cluster_dim'" in err and "NoneType" in err


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
    assert '# linkpred_combine = "phase"' in heads["default"]
    assert '# linkpred_combine = "concat"' in heads["concat"]
    for line in ("# linkpred_embed_dim = 3", "# linkpred_q = 0.25", "# linkpred_tau = 0.25",
                 "# linkpred_prob_val = 0.15", "# linkpred_prob_test = 0.05"):
        assert line in heads["default"]


@pytest.mark.parametrize("command, section, name, lines", [
    ("cluster", '[cluster]\nmethod = "signed_laplacian_sym"\nk = 2\nseed = 7\n',
     "pred_labels.csv",
     ['# cluster_method = "signed_laplacian_sym"', "# cluster_k = 2", "# cluster_seed = 7",
      "# cluster_q = 0.25", "# cluster_tau = 0.25"]),
    ("sweep", '[sweep]\nparam = "eta"\nvalues = [0.0]\nmethod = "signed_laplacian_sym"\n'
              'k = 2\nseeds = [0]\n', "runs.csv",
     ['# sweep_param = "eta"', "# sweep_values = [0.0]",
      '# sweep_method = "signed_laplacian_sym"', "# sweep_k = 2", "# sweep_instances = 2",
      "# sweep_seeds = [0]", "# sweep_train_frac = 0.8", "# sweep_val_frac = 0.1",
      "# sweep_test_frac = 0.1", "# sweep_q = 0.25", "# sweep_tau = 0.25"]),
])
def test_header_keeps_graph_record_and_prefixes_section_keys(tmp_path, command, section,
                                                             name, lines):
    cfg = write(tmp_path / "c.toml", GEN_CFG + section)
    assert run([command, "--config", cfg, "--out", tmp_path / "out"]) == 0
    head = _header(tmp_path / "out" / name)
    graph = [ln for ln in head if not ln.startswith(f"# {command}_")]
    assert "# k = 3" in graph  # the graph's k, not the section's
    assert head == graph + lines


@pytest.mark.parametrize("command, section, bad", [
    ("split", '[split]\nkind = "node"\nepochs = 100\n', "epochs"),
    ("cluster", '[cluster]\nmethod = "signed_laplacian_sym"\nk = 3\nepochs = 100\n', "epochs"),
    ("linkpred", '[linkpred]\ntask = "SP"\nembed_dimm = 4\n', "embed_dimm"),
    ("sweep", '[sweep]\nparam = "eta"\nvalues = [0.0]\nmethod = "signed_laplacian_sym"\n'
              'k = 3\nepochs = 100\n', "epochs"),
    ("metrics", '[metrics]\nlabels_pred = "p.csv"\nepochs = 100\n', "epochs"),
    # [split] takes the keys of the splitter its kind selects, not the other's
    ("split", '[split]\nkind = "node"\nprob_val = 0.15\n', "prob_val"),
    ("split", '[split]\nkind = "link"\ntask = "SP"\ntrain_frac = 0.8\n', "train_frac"),
    # the config spells linkpred_run's embed_method as embed, and only so
    ("linkpred", '[linkpred]\ntask = "SP"\nembed_method = "signed_spectral"\n',
     "embed_method"),
])
def test_unknown_section_key_exits_2(tmp_path, capsys, command, section, bad):
    cfg = write(tmp_path / "c.toml", GEN_CFG + section)
    out = tmp_path / "out"
    assert run([command, "--config", cfg, "--out", out]) == 2
    assert f"[{command}] has unknown key(s) '{bad}'" in capsys.readouterr().err
    assert not any(out.iterdir())


@pytest.mark.parametrize("command, section", [
    ("generate", ""),
    ("split", '[split]\nkind = "node"\n'),
    ("cluster", '[cluster]\nmethod = "signed_laplacian_sym"\nk = 3\n'),
    ("linkpred", '[linkpred]\ntask = "SP"\n'),
    ("sweep", '[sweep]\nparam = "eta"\nvalues = [0.0]\nmethod = "signed_laplacian_sym"\n'
              'k = 3\n'),
    ("metrics", '[metrics]\nlabels_pred = "p.csv"\n'),
])
def test_graph_needs_path_or_model(tmp_path, capsys, command, section):
    cfg = write(tmp_path / "c.toml", "[graph]\nn = 60\nk = 3\nseed = 3\n" + section)
    out = tmp_path / "out"
    assert run([command, "--config", cfg, "--out", out]) == 2
    assert "[graph] needs a 'path' or a 'model'" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_unknown_graph_key_exits_2(tmp_path, monkeypatch, capsys):
    import sdnet.generators as generators

    @functools.wraps(generators.ssbm)
    def record(*a, **k):
        raise AssertionError("the graph was generated")

    monkeypatch.setattr(generators, "ssbm", record)
    with pytest.raises(AssertionError, match="the graph was generated"):
        run(["generate", "--config", write(tmp_path / "g.toml", GEN_CFG),
             "--out", tmp_path / "g"])
    for command, extra, bad in (
        ("generate", "rh0 = 1.5\n", "rh0"),
        ("cluster", 'unused_generator_key = 1\n[cluster]\nmethod = "signed_laplacian_sym"\n'
                    'k = 3\n', "unused_generator_key"),
        # the swept parameter is a [graph] key too: ssbm has no gamma
        ("sweep", '[sweep]\nparam = "gamma"\nvalues = [0.0]\n'
                  'method = "signed_laplacian_sym"\nk = 3\n', "gamma"),
    ):
        cfg = write(tmp_path / f"{command}.toml", GEN_CFG + extra)
        out = tmp_path / command
        assert run([command, "--config", cfg, "--out", out]) == 2
        assert f"ssbm takes no key(s) '{bad}'" in capsys.readouterr().err
        assert not any(out.iterdir())


def test_path_graph_takes_only_path_and_labels_path(tmp_path, capsys):
    gdir = tmp_path / "gen"
    assert run(["generate", "--config", write(tmp_path / "g.toml", GEN_CFG),
                "--out", gdir]) == 0
    cfg = write(tmp_path / "c.toml", f"""
[graph]
path = "{gdir}/edges.tsv"
label_path = "{gdir}/labels.csv"

[cluster]
method = "signed_laplacian_sym"
k = 3
""")
    out = tmp_path / "out"
    assert run(["cluster", "--config", cfg, "--out", out]) == 2
    assert "[graph] has unknown key(s) 'label_path'" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_path_graph_with_labels_path_clusters_as_the_generated_graph(tmp_path):
    shipped = Path(__file__).resolve().parents[1] / "configs" / "ssbm_cluster.toml"
    generated, gdir = tmp_path / "generated", tmp_path / "gen"
    assert run(["cluster", "--config", shipped, "--out", generated]) == 0
    assert run(["generate", "--config", shipped, "--out", gdir]) == 0
    cfg = write(tmp_path / "c.toml", f"""
[graph]
path = "{gdir}/edges.tsv"
labels_path = "{gdir}/labels.csv"

[cluster]
method = "signed_laplacian_sym"
k = 3
""")
    out = tmp_path / "out"
    assert run(["cluster", "--config", cfg, "--out", out]) == 0
    # the value column only: params_hash covers the header, which differs
    read = _metric_rows(out / "metrics.csv")
    assert list(read) == ["ari", "unhappy_ratio", "pbnc_loss"]
    assert read == _metric_rows(generated / "metrics.csv")


@pytest.mark.parametrize("command, section, message", [
    ("split", '[split]\nkind = "node"\n',
     "node splits need labels (generated or labels_path)"),
    ("sweep", '[sweep]\nparam = "eta"\nvalues = [0.0]\nmethod = "signed_laplacian_sym"\n'
              'k = 3\n', "sweep needs generator parameters, not a file path"),
])
def test_path_graph_without_what_the_command_needs_exits_2(tmp_path, capsys, command,
                                                          section, message):
    gdir = tmp_path / "gen"
    assert run(["generate", "--config", write(tmp_path / "g.toml", GEN_CFG),
                "--out", gdir]) == 0
    cfg = write(tmp_path / "c.toml", f'[graph]\npath = "{gdir}/edges.tsv"\n\n{section}')
    out = tmp_path / "out"
    assert run([command, "--config", cfg, "--out", out]) == 2
    assert message in capsys.readouterr().err
    assert not any(out.iterdir())


def test_metrics_negative_predicted_label_exits_2(tmp_path, capsys):
    cfg = _metrics_cfg(tmp_path, ["prob_imbalance"])
    write(tmp_path / "gen" / "labels.csv", "label\n-1\n" + "0\n" * 59)
    out = tmp_path / "out"
    assert run(["metrics", "--config", cfg, "--out", out]) == 2
    assert "labels must lie in [0, 1)" in capsys.readouterr().err
    assert not any(out.iterdir())


CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.toml"))


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_shipped_config_binds(monkeypatch, path):
    import sdnet.cli as cli
    import sdnet.generators as generators
    from sdnet.config import load
    cfg = load(path)
    calls = {"cluster": cli.spectral_cluster, "linkpred": cli.linkpred_run,
             "sweep": cli.cluster_sweep}
    for name, fn in calls.items():
        if name in cfg:
            assert cli._kwargs(cfg, name, fn)
    if "split" in cfg:
        assert cli._kwargs(cfg, "split", cli.SPLITTERS[cfg["split"]["kind"]], ("kind",))
    if "metrics" in cfg:
        cli._section(cfg, "metrics", cli.METRICS_KEYS)
    # every record the command would generate binds to the generator, which
    # only records its arguments
    model = cfg["graph"]["model"]
    bound = []

    @functools.wraps(getattr(generators, model))
    def record(*args, **kwargs):
        bound.append(kwargs)

    monkeypatch.setattr(generators, model, record)
    sweep = cfg.get("sweep")
    records = ([cfg["graph"]] if sweep is None else
               [{**cfg["graph"], sweep["param"]: value} for value in sweep["values"]])
    for params in records:
        cli.generate_from_params(params)
    assert len(bound) == len(records)


def test_record_keys_name_their_parameters():
    import inspect
    from sdnet.pipeline import RECORD_KEYS
    for fn, renamed in RECORD_KEYS.items():
        params = inspect.signature(fn).parameters
        assert set(renamed) <= set(params), fn
        # a key spelt like another parameter would set both
        assert not set(renamed.values()) & (set(params) - set(renamed)), fn
