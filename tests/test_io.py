import warnings

import numpy as np
import pytest

from sdnet import io as sio
from sdnet.generators import dsbm, f1_meta, f2_meta, meta_graph, sdsbm, ssbm
from sdnet.graph import SignedDirectedGraph
from sdnet.pipeline import RunRecord, RunResult
from sdnet.splitters import LinkTaskSplit, link_class_split, node_split


def test_edge_tsv_roundtrip(tmp_path):
    inst = ssbm(25, 2, 0.3, 0.3, eta=0.1, seed=4)
    path = tmp_path / "edges.tsv"
    sio.write_edge_tsv(path, inst.graph, inst.params)
    back = sio.read_edge_tsv(path)
    assert back.num_nodes == inst.graph.num_nodes
    assert back.edge_list() == inst.graph.edge_list()


def test_edge_tsv_header_num_nodes(tmp_path):
    # trailing isolated node survives via the header
    g = SignedDirectedGraph.from_edges(5, [(0, 1, 1.5)])
    path = tmp_path / "g.tsv"
    sio.write_edge_tsv(path, g)
    assert sio.read_edge_tsv(path).num_nodes == 5
    (tmp_path / "h.tsv").write_text("0\t1\t-2.0\n")
    h = sio.read_edge_tsv(tmp_path / "h.tsv")
    assert h.num_nodes == 2 and h.edge_list() == [(0, 1, -2.0)]


def _reference_edge_tsv(g, params=None):
    """The per-edge f-string writer that write_edge_tsv replaced."""
    hdr = dict(params or {})
    hdr.setdefault("num_nodes", g.num_nodes)
    lines = sio.format_params(hdr)
    lines += [f"{u}\t{v}\t{repr(float(w))}" for u, v, w in zip(g.src, g.dst, g.weight)]
    return "\n".join(lines) + "\n"


# every id where the digit count changes, up to seven digits
BOUNDARY_IDS = sorted({0} | {10 ** d - 1 for d in range(1, 7)} | {10 ** d for d in range(1, 7)})


def _boundary_graph():
    ids = np.array(BOUNDARY_IDS)
    src, dst = np.repeat(ids, ids.size), np.tile(ids, ids.size)
    weight = np.where((src + dst) % 3 == 0, -1.0, 0.5) * (1.0 + np.arange(src.size))
    return SignedDirectedGraph(ids[-1] + 1, src, dst, weight)


def _many_weights_graph():
    rng = np.random.default_rng(11)
    n = 2000
    codes = np.unique(rng.integers(0, n * n, size=6000))
    weight = rng.standard_normal(codes.size) * 10.0 ** rng.integers(-300, 300, codes.size)
    weight[weight == 0] = 1.0
    weight[:6] = [5e-324, -1.7976931348623157e308, 0.30000000000000004,
                  -5e-324, 1.7976931348623157e308, -0.30000000000000004]
    weight[6:600] = weight[600:1194]  # repeated values share one cell
    return SignedDirectedGraph(n, codes // n, codes % n, weight)


PARAMS = {"model": "ssbm", "p": 0.25}


def test_id_cells_match_str_at_every_width():
    for n in (0, 1, 9, 10, 11, 99, 100, 101, 1000, 10001):
        assert sio._id_cells(n, "\t").tolist() == [f"{i}\t".encode() for i in range(n)]


@pytest.mark.parametrize("g, params", [
    (SignedDirectedGraph.from_edges(12, [
        (0, 1, 0.1), (1, 0, -1e-300), (2, 3, 5e-324), (3, 11, 2.5e17), (4, 4, -3.0),
        (5, 6, 0.1), (6, 5, -3.0), (11, 0, 2.5e17), (7, 8, 1.0 / 3.0)]), PARAMS),
    (SignedDirectedGraph.from_edges(0, []), PARAMS),
    (SignedDirectedGraph.from_edges(3, []), PARAMS),
    (_boundary_graph(), PARAMS),
    (_many_weights_graph(), PARAMS),
    (SignedDirectedGraph.from_edges(3, [(0, 2, -1.0), (2, 1, 1.0)]),
     {"model": "ssbm", "note": "signé, Δ ≥ 0 — 符号", "tags": ["α", "b"]}),
], ids=["awkward-weights", "n0", "no-edges", "digit-boundary-ids", "thousands-of-weights",
        "non-ascii-header"])
def test_edge_tsv_bytes_match_per_edge_formatter(tmp_path, g, params):
    path = tmp_path / "g.tsv"
    sio.write_edge_tsv(path, g, params)
    assert path.read_bytes() == _reference_edge_tsv(g, params).encode("utf-8")
    back = sio.read_edge_tsv(path)
    assert back.num_nodes == g.num_nodes
    for field in ("src", "dst", "weight"):
        got, want = getattr(back, field), getattr(g, field)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("line", [
    "0\t1",            # two fields
    "0\t1\t0.5\t",     # trailing tab: a fourth, empty field
    "0\t1\t0.5\t2",    # four fields
    "a\t1\t0.5",        # non-numeric id
    "0\t1\tx",          # non-numeric weight
    "1.5\t1\t0.5",      # non-integer id
    "0 1 0.5",          # space separated
])
def test_edge_tsv_malformed_line(tmp_path, line):
    path = tmp_path / "bad.tsv"
    path.write_text(f"# num_nodes = 3\n0\t2\t1.0\n{line}\n")
    with pytest.raises(ValueError, match="malformed edge line"):
        sio.read_edge_tsv(path)


def test_edge_tsv_header_only_and_empty(tmp_path):
    (tmp_path / "h.tsv").write_text("# model = \"ssbm\"\n# num_nodes = 4\n")
    (tmp_path / "e.tsv").write_text("")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h = sio.read_edge_tsv(tmp_path / "h.tsv")
        e = sio.read_edge_tsv(tmp_path / "e.tsv")
    assert h.num_nodes == 4 and h.num_edges == 0
    assert e.num_nodes == 0 and e.num_edges == 0
    for g in (h, e):
        assert g.src.dtype == g.dst.dtype == np.int64 and g.weight.dtype == np.float64


def test_edge_tsv_blank_lines_and_late_header(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("\n# num_nodes = 5\n0\t1\t0.5\n\n  \t \n 2\t3\t-1.5 \n"
                    "  #num_nodes=9\n# other = 1\n")
    g = sio.read_edge_tsv(path)
    assert g.num_nodes == 9
    assert g.edge_list() == [(0, 1, 0.5), (2, 3, -1.5)]
    with pytest.raises(TypeError):  # the file alone sets the node count
        sio.read_edge_tsv(path, num_nodes=12)
    # keys that merely contain num_nodes are not the header
    path.write_text("# num_nodes_total = 30\n# x = \"num_nodes = 40\"\n0\t1\t1.0\n")
    assert sio.read_edge_tsv(path).num_nodes == 2
    # nor is a comment after data or after a second "#" on its line
    path.write_text("# num_nodes = 4\n0\t1\t1.0 # num_nodes = 50\n## num_nodes = 7\n")
    g = sio.read_edge_tsv(path)
    assert g.num_nodes == 4 and g.edge_list() == [(0, 1, 1.0)]


def test_edge_tsv_params_cannot_resize_the_graph(tmp_path):
    g = SignedDirectedGraph.from_edges(6, [(0, 1, 1.0), (4, 5, -1.0)])
    path = tmp_path / "g.tsv"
    for bad in (3, 6.0, "6"):
        with pytest.raises(ValueError, match="num_nodes"):
            sio.write_edge_tsv(path, g, {"num_nodes": bad})
    assert not path.exists()
    sio.write_edge_tsv(path, g, {"model": "x", "num_nodes": np.int64(6)})
    assert path.read_text().splitlines()[:2] == ["# model = \"x\"", "# num_nodes = 6"]
    assert sio.read_edge_tsv(path).num_nodes == 6


def test_labels_and_features_roundtrip(tmp_path):
    labels = np.array([0, 2, 1, 1])
    sio.write_labels_csv(tmp_path / "y.csv", labels, {"model": "x"})
    assert list(sio.read_labels_csv(tmp_path / "y.csv")) == [0, 2, 1, 1]


def test_node_split_csv(tmp_path):
    split = node_split(np.array([0, 0, 0, 0, 0, 1, 1, 1, 1, 1]),
                       0.6, 0.2, 0.2, seed_frac=0.2, num_splits=2, seed=0)
    path = tmp_path / "split.csv"
    sio.write_node_split_csv(path, split)
    lines = path.read_text().splitlines()
    assert lines[0] == "node,replicate,role"
    roles = {ln.split(",")[2] for ln in lines[1:]}
    assert roles == {"train", "val", "test", "seed"}


def _reference_node_split_csv(split, params=None):
    """The per-membership loop that write_node_split_csv replaced."""
    lines = sio.format_params(params) if params else []
    lines.append("node,replicate,role")
    rolemasks = (("train", split.train), ("val", split.val),
                 ("test", split.test), ("seed", split.seed))
    for rep in range(split.num_splits):
        for role, mask in rolemasks:
            for node in np.nonzero(mask[:, rep])[0]:
                lines.append(f"{node},{rep},{role}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("labels, num_splits", [
    (np.array([0, 0, 0, 0, 0, 1, 1, 1, 1, 1]), 2),
    (np.arange(1234) % 3, 12),
    (np.repeat([0, 1], 3), 1),
], ids=["ten-nodes", "four-digit-ids", "six-nodes"])
def test_node_split_csv_bytes_match_per_row_formatter(tmp_path, labels, num_splits):
    split = node_split(labels, 0.6, 0.2, 0.2, seed_frac=0.2, num_splits=num_splits, seed=0)
    path = tmp_path / "split.csv"
    params = {"model": "ssbm", "kind": "node"}
    sio.write_node_split_csv(path, split, params)
    assert path.read_bytes() == _reference_node_split_csv(split, params).encode("utf-8")


def test_link_split_csv(tmp_path):
    inst = ssbm(30, 2, 0.5, 0.5, eta=0.2, seed=1)
    split = link_class_split(inst.graph, "SP", seed=0)
    path = tmp_path / "link.csv"
    sio.write_link_split_csv(path, split)
    lines = path.read_text().splitlines()
    assert lines[0] == "u,v,label,fold"
    labels = {ln.split(",")[2] for ln in lines[1:]}
    assert labels <= {"positive", "negative"}
    folds = {ln.split(",")[3] for ln in lines[1:]}
    assert folds == {"train", "val", "test"}


def _reference_link_split_csv(split):
    """The per-query f-string rows that write_link_split_csv replaced."""
    lines = ["u,v,label,fold"]
    for fold, pairs, labels in (("train", split.train_pairs, split.train_labels),
                                ("val", split.val_pairs, split.val_labels),
                                ("test", split.test_pairs, split.test_labels)):
        for (u, v), lab in zip(pairs, labels):
            lines.append(f"{u},{v},{split.label_names[lab]},{fold}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("task", ["SP", "5C"])
def test_link_split_csv_bytes_match_per_row_formatter(tmp_path, task):
    inst = sdsbm(f2_meta(0.1), 200, 0.05, eta=0.1, seed=3)
    split = link_class_split(inst.graph, task, seed=2)
    path = tmp_path / "link.csv"
    sio.write_link_split_csv(path, split)
    assert path.read_text(encoding="utf-8") == _reference_link_split_csv(split)


def _reference_pairs_csv(pairs, params):
    """The per-pair f-string loop that wrote the CLI's discarded.csv."""
    lines = ["u,v"] + [f"{u},{v}" for u, v in pairs]
    return "\n".join(sio.format_params(params) + lines) + "\n"


@pytest.mark.parametrize("g, discards", [
    (dsbm(meta_graph("cycle", 3), 90, 3, 0.3, seed=0).graph, True),
    (SignedDirectedGraph.from_edges(12, [(i, (i + 1) % 12, 1.0) for i in range(12)]),
     False),
], ids=["reciprocal-pairs", "no-reciprocal-pairs"])
def test_pairs_csv_bytes_match_per_pair_formatter(tmp_path, g, discards):
    split = link_class_split(g, "DP", seed=1)
    assert (len(split.discarded_pairs) > 0) == discards
    params = {"model": "dsbm", "split_task": "DP"}
    path = tmp_path / "discarded.csv"
    sio.write_pairs_csv(path, split.discarded_pairs, params)
    assert path.read_text(encoding="utf-8") == _reference_pairs_csv(
        split.discarded_pairs, params)


def _boundary_link_split(**change):
    ids = np.array(BOUNDARY_IDS)
    pairs = np.column_stack([ids, ids[::-1]])
    fields = dict(task="SP", train_pairs=pairs[:6], train_labels=np.arange(6) % 2,
                  val_pairs=pairs[6:9], val_labels=[1, 0, 1],
                  test_pairs=pairs[9:], test_labels=np.arange(pairs.shape[0] - 9) % 2,
                  observed_graph=_boundary_graph(), discarded_pairs=pairs[:2],
                  label_names=("positive", "negative"))
    fields.update(change)
    return LinkTaskSplit(**fields)


def test_link_split_and_pairs_csv_bytes_at_digit_boundaries(tmp_path):
    split = _boundary_link_split()
    sio.write_link_split_csv(tmp_path / "link.csv", split)
    assert (tmp_path / "link.csv").read_text(encoding="utf-8") == \
        _reference_link_split_csv(split)
    ids = np.array(BOUNDARY_IDS)
    pairs = np.column_stack([ids, np.roll(ids, 3)])
    params = {"model": "dsbm", "split_task": "DP"}
    sio.write_pairs_csv(tmp_path / "pairs.csv", pairs, params)
    assert (tmp_path / "pairs.csv").read_text(encoding="utf-8") == \
        _reference_pairs_csv(pairs, params)


def test_writers_bytes_do_not_depend_on_block_size(tmp_path, monkeypatch):
    # rows are built a block at a time; blocks of 7 rows split every table
    monkeypatch.setattr(sio, "_BLOCK_ROWS", 7)
    g = _many_weights_graph()
    sio.write_edge_tsv(tmp_path / "g.tsv", g)
    assert (tmp_path / "g.tsv").read_text(encoding="utf-8") == _reference_edge_tsv(g)
    split = link_class_split(sdsbm(f2_meta(0.1), 200, 0.05, eta=0.1, seed=3).graph, "5C",
                             seed=2)
    sio.write_link_split_csv(tmp_path / "link.csv", split)
    assert (tmp_path / "link.csv").read_text(encoding="utf-8") == \
        _reference_link_split_csv(split)
    sio.write_pairs_csv(tmp_path / "pairs.csv", split.train_pairs, {})
    assert (tmp_path / "pairs.csv").read_text(encoding="utf-8") == \
        _reference_pairs_csv(split.train_pairs, {})
    nodes = node_split(np.arange(300) % 3, 0.6, 0.2, 0.2, seed_frac=0.2, num_splits=3, seed=1)
    sio.write_node_split_csv(tmp_path / "nodes.csv", nodes)
    assert (tmp_path / "nodes.csv").read_text(encoding="utf-8") == \
        _reference_node_split_csv(nodes)


def test_pairs_csv_rejects_negative_ids(tmp_path):
    path = tmp_path / "pairs.csv"
    with pytest.raises(ValueError, match="negative"):
        sio.write_pairs_csv(path, [[0, 3], [-1, 2]])
    with pytest.raises(ValueError, match="negative"):
        sio.write_pairs_csv(path, [[0, -3]])
    assert not path.exists()


@pytest.mark.parametrize("fold, bad", [("train", -1), ("val", 1_000_001), ("test", -7)])
def test_link_split_csv_rejects_pairs_outside_the_graph(tmp_path, fold, bad):
    pairs = getattr(_boundary_link_split(), f"{fold}_pairs").copy()
    pairs[-1, 1] = bad
    split = _boundary_link_split(**{f"{fold}_pairs": pairs})
    path = tmp_path / "link.csv"
    with pytest.raises(ValueError, match=f"{fold} pair outside"):
        sio.write_link_split_csv(path, split)
    assert not path.exists()


def test_run_csvs_bytes_match_per_row_formatter(tmp_path):
    result = RunResult(tuple(
        RunRecord(sv, inst, seed, metric, value)
        for sv in (0.0, 0.1) for inst in (0, 1) for seed in (3, 4)
        for metric, value in (("ari", 1.0 / (3 + seed + inst)), ("auc", sv + 2.0**-40))))
    params = {"model": "dsbm", "sweep_param": "eta"}
    sio.write_runs_csv(tmp_path / "runs.csv", result.rows(), params)
    sio.write_summary_csv(tmp_path / "summary.csv", result.aggregate(), params)
    # the per-row loops that wrote runs.csv and summary.csv in the CLI
    lines = ["sweep_value,instance,seed,metric,value"]
    for sv, inst, seed, metric, value in result.rows():
        lines.append(f"{repr(float(sv))},{inst},{seed},{metric},{repr(float(value))}")
    assert (tmp_path / "runs.csv").read_text(encoding="utf-8") == \
        "\n".join(sio.format_params(params) + lines) + "\n"
    lines = ["sweep_value,metric,mean,sd,count"]
    for (sv, metric), (mean, sd, count) in result.aggregate().items():
        lines.append(f"{repr(float(sv))},{metric},{repr(mean)},{repr(sd)},{count}")
    assert (tmp_path / "summary.csv").read_text(encoding="utf-8") == \
        "\n".join(sio.format_params(params) + lines) + "\n"


def test_params_hash_stable():
    p = {"a": 1, "b": 2.5, "c": "x"}
    assert sio.params_hash(p) == sio.params_hash(dict(p))
    assert sio.params_hash(p) != sio.params_hash({**p, "a": 2})


def test_read_csv_header_check(tmp_path):
    (tmp_path / "bad.csv").write_text("wrong\n1\n")
    with pytest.raises(ValueError):
        sio.read_labels_csv(tmp_path / "bad.csv")


def test_read_edge_tsv_traced_bytes_per_edge(tmp_path):
    # holding the file's text while loadtxt parsed the file again once
    # traced 73 bytes per edge
    from test_spectral import _traced_peak
    n = 20_000
    g = sdsbm(f1_meta(0.0), n, 20.0 / n, seed=1).graph
    path = tmp_path / "edges.tsv"
    sio.write_edge_tsv(path, g)
    peak, back = _traced_peak(lambda: sio.read_edge_tsv(path))
    assert back.edge_list() == g.edge_list() and g.num_edges > 190_000
    assert peak <= 65 * g.num_edges, f"{peak / g.num_edges:.1f} bytes per edge"
