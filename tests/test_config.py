import pytest

from sdnet.config import ConfigError, load, loads


def test_loads_sections_and_types():
    cfg = loads("""
# comment

[graph]
model = "ssbm"
n = 100
p_in = 0.05
eta = 0.1
directed = false
seeds = [0, 1, 2]
""")
    g = cfg["graph"]
    assert g["model"] == "ssbm" and isinstance(g["model"], str)
    assert g["n"] == 100 and isinstance(g["n"], int)
    assert g["p_in"] == 0.05 and isinstance(g["p_in"], float)
    assert g["directed"] is False
    assert g["seeds"] == [0, 1, 2]


def test_loads_empty_list():
    assert loads("[s]\nxs = []\n")["s"]["xs"] == []


def test_loads_comments_nested_lists_and_quoted_commas():
    cfg = loads("""
[graph]
n = 100  # trailing comment
meta_f = [[0.5, 1.0], [1.0, 0.5]]
names = ["a, b", "c"]
""")["graph"]
    assert cfg == {"n": 100, "meta_f": [[0.5, 1.0], [1.0, 0.5]], "names": ["a, b", "c"]}


def test_loads_errors():
    with pytest.raises(ConfigError):
        loads("[graph\nmodel = 1\n")
    with pytest.raises(ConfigError):
        loads("novalue\n")
    with pytest.raises(ConfigError):
        loads("x = @@\n")
    with pytest.raises(ConfigError):
        loads("x = [1, 2\n")
    with pytest.raises(ConfigError):  # duplicate key
        loads("[s]\nx = 1\nx = 2\n")
    with pytest.raises(ConfigError):  # repeated section
        loads("[s]\nx = 1\n[s]\ny = 2\n")
    with pytest.raises(ConfigError):  # leading zero
        loads("x = 007\n")


def test_load_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load(tmp_path / "nope.toml")


def test_roundtrip_with_io_format_params(tmp_path):
    from sdnet.io import format_params
    from sdnet.pipeline import generate_from_params
    params = {"model": "dsbm", "n": 100, "p": 0.02, "ambient": False,
              "values": [0.0, 0.5], "name": "run", "source": "C:\\data\\x.tsv",
              "note": 'say "hi"', "names": ["tab\there", "two\nlines", "bell\x07", "del\x7f"]}
    lines = [ln[2:] for ln in format_params(params)]  # strip leading '# '
    assert len(lines) == len(params)  # no value breaks its line
    cfg = loads("[graph]\n" + "\n".join(lines))["graph"]
    assert cfg == params
    # every model's provenance header, read back as [graph], regenerates it
    for record in (
        {"model": "ssbm", "n": 40, "k": 3, "p_in": 0.3, "p_out": 0.2, "eta": 0.1},
        {"model": "pol_ssbm", "n": 60, "r": 2, "p": 0.2, "community_nodes": 20},
        {"model": "dsbm", "n": 40, "k": 3, "p": 0.3, "meta": "cycle", "eta": 0.2},
        {"model": "sdsbm", "n": 40, "p": 0.3, "meta": "f2", "gamma": 0.25},
        {"model": "erdos_renyi", "n": 40, "p": 0.2},
    ):
        inst = generate_from_params(record, seed=11)
        lines = [ln[2:] for ln in format_params(inst.params)]
        again = generate_from_params(loads("[graph]\n" + "\n".join(lines))["graph"])
        assert again.graph.edge_list() == inst.graph.edge_list(), record["model"]
        assert list(again.labels) == list(inst.labels), record["model"]
