"""File formats: edge-list TSV, label CSV, split, run and metric CSV.

Every writer accepts an optional ``params`` mapping that is echoed into
the file header as ``# key = value`` lines for provenance. Output bytes
are deterministic: rows are emitted in a fixed order and floats use
shortest round-trip formatting. Files are written in binary mode as
UTF-8, so ``\n`` is never translated to the platform's line ending.

The edge TSV, link-split CSV, node-split CSV and node-pair CSV writers
are byte tables. Every node id below ``num_nodes`` is formatted once by
digit arithmetic, every distinct weight once (``repr(float(w))`` over a
sort and an adjacent-dedup pass) and every label or role name once,
each with the separator that follows it in a row, into NUL-padded
fixed-width ``S`` cells. Each block of rows is gathered from these
tables into one record array by fancy indexing, and one boolean
compress drops the padding, so no value is formatted per row and no
Python string is made per row. The edge TSV reader finds the
``# num_nodes = N`` header with one regular-expression scan of the
file's text that starts only at ``#`` characters (the last header wins),
drops the text, and parses the file with one ``np.loadtxt`` call into
int64, int64 and float64 columns; the text is read again only to retry
a file whose blank lines hold spaces.
"""

from __future__ import annotations

import hashlib
import io
import re
from pathlib import Path

import numpy as np

from .graph import SignedDirectedGraph, integral


# a TOML basic string escapes the quotation mark, the backslash and every
# control character, by its short form where TOML has one
_TOML_ESCAPES = {c: f"\\u{c:04X}" for c in (*range(0x20), 0x7F)}
_TOML_ESCAPES.update({ord('"'): '\\"', ord("\\"): "\\\\", ord("\b"): "\\b",
                      ord("\t"): "\\t", ord("\n"): "\\n", ord("\f"): "\\f",
                      ord("\r"): "\\r"})


def _fmt(value) -> str:
    """``value`` as a TOML value: a boolean, float, integer, basic string
    or array of them."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return '"' + value.translate(_TOML_ESCAPES) + '"'
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    raise TypeError(f"cannot serialize a value of type {type(value)!r}")


def format_params(params: dict) -> list[str]:
    """Render a flat parameter record as ``# key = value`` header lines.

    A value that cannot be written raises TypeError naming its key.
    """
    lines = []
    for key, value in params.items():
        try:
            lines.append(f"# {key} = {_fmt(value)}")
        except TypeError as exc:
            raise TypeError(f"parameter {key!r}: {exc}") from None
    return lines


def params_hash(params: dict | None) -> str:
    """Short stable digest of a parameter record."""
    if not params:
        return "none"
    blob = "\n".join(format_params(params)).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _write_lines(path, header_params, lines, *tables):
    """Header, then ``lines`` one per line, then the rows of each of ``tables``.

    The file is written in binary mode, so no newline is ever translated.
    Each table is a sequence of ``(cells, index)`` pairs (see ``_write_rows``).
    """
    out = format_params(header_params) if header_params else []
    out.extend(lines)
    with open(path, "wb") as fh:
        fh.write(("\n".join(out) + "\n").encode("utf-8"))
        for table in tables:
            _write_rows(fh, table)


def _text_cells(strings) -> np.ndarray:
    """The UTF-8 bytes of each string as one ``S`` array (NUL-padded cells)."""
    return np.array([s.encode("utf-8") for s in strings], dtype=bytes)


def _id_cells(num_nodes: int, sep: str) -> np.ndarray:
    """``str(i) + sep`` for every node id i < num_nodes as NUL-padded ASCII cells.

    Ids of equal digit count form one range, filled as a block: the
    leading digits of i are the already formatted i // 10, then come
    the last digit and the separator.
    """
    width = len(str(max(num_nodes - 1, 0)))
    table = np.zeros((num_nodes, width + 1), dtype=np.uint8)
    ids = np.arange(num_nodes)
    for digits in range(1, width + 1):
        lo, hi = (10 ** (digits - 1) if digits > 1 else 0), min(10 ** digits, num_nodes)
        table[lo:hi, :digits - 1] = table[ids[lo:hi] // 10, :digits - 1]
        table[lo:hi, digits - 1] = ids[lo:hi] % 10 + ord("0")
        table[lo:hi, digits] = ord(sep)
    return table.view(f"S{width + 1}").ravel()


def _distinct(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct ``values`` and the position of each value among them."""
    ordered = np.sort(values)
    fresh = np.ones(ordered.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=fresh[1:])
    distinct = ordered[fresh]
    return distinct, np.searchsorted(distinct, values)


# rows per record array: a few MB however many rows a file has
_BLOCK_ROWS = 1 << 16


def _write_rows(fh, table) -> None:
    """Write one row per index of the ``(cells, index)`` pairs of ``table``.

    Row r joins ``cells[index[r]]`` of every pair in order. The cells of
    each pair are an ``S`` array, so a block of rows is gathered into one
    fixed-width record array and one boolean compress drops the NUL
    padding of all of them. Indices must lie in ``[0, len(cells))``: a
    negative one would wrap.
    """
    dtype = [(f"c{k}", cells.dtype) for k, (cells, _) in enumerate(table)]
    num_rows = len(table[0][1])
    for start in range(0, num_rows, _BLOCK_ROWS):
        records = np.empty(min(_BLOCK_ROWS, num_rows - start), dtype=dtype)
        for k, (cells, index) in enumerate(table):
            records[f"c{k}"] = cells[index[start:start + _BLOCK_ROWS]]
        body = records.view(np.uint8)
        fh.write(body[body != 0])


def write_edge_tsv(path, g: SignedDirectedGraph, params: dict | None = None) -> None:
    """One ``src<TAB>dst<TAB>weight`` line per edge, 0-based ids.

    The header records ``num_nodes``; a ``params["num_nodes"]`` that would
    write anything but the graph's node count (say 3, or 6.0, which
    ``read_edge_tsv`` cannot parse, for 6 nodes) raises ``ValueError``.
    """
    hdr = dict(params or {})
    hdr.setdefault("num_nodes", g.num_nodes)
    if _fmt(hdr["num_nodes"]) != str(g.num_nodes):
        raise ValueError(f"params give num_nodes = {hdr['num_nodes']!r} for a graph "
                         f"of {g.num_nodes} nodes")
    ids = _id_cells(g.num_nodes, "\t")
    # weights are finite and nonzero, so equal floats have equal reprs
    values, inv = _distinct(g.weight)
    weights = _text_cells(repr(w) + "\n" for w in values.tolist())
    _write_lines(path, hdr, [], ((ids, g.src), (ids, g.dst), (weights, inv)))


# a header line is "# num_nodes = N" with optional blanks; the scan starts
# from the literal "#", so it jumps between "#" characters, and a match
# counts only where blanks alone precede it on its line
_NUM_NODES = re.compile(r"#[^\S\n]*num_nodes[^\S\n]*=([^\n]*)")


def _opens_line(text: str, pos: int) -> bool:
    """True when only blanks precede position ``pos`` on its line."""
    before = text[text.rfind("\n", 0, pos) + 1:pos]
    return not before or before.isspace()


_DATA_LINE = re.compile(r"^[^\S\n]*[^#\s]", re.MULTILINE)
_BLANK_LINE = re.compile(r"^[^\S\n]+(?:#.*)?$", re.MULTILINE)
_EDGE_DTYPE = [("src", np.int64), ("dst", np.int64), ("weight", np.float64)]


def _edge_rows(source) -> np.ndarray:
    """Structured (src, dst, weight) rows of an edge TSV with a data line.

    ``source`` is its path, which ``np.loadtxt`` reads in chunks, or on
    the retry a text stream of its content with blank lines emptied.
    """
    try:
        return np.loadtxt(source, dtype=_EDGE_DTYPE, delimiter="\t", comments="#",
                          ndmin=1, encoding="utf-8")
    except ValueError as err:
        # loadtxt drops comments but skips only the lines left empty:
        # empty the lines of blanks (or blanks and a comment) and retry
        if not isinstance(source, io.StringIO):
            text = Path(source).read_text(encoding="utf-8")
            if _BLANK_LINE.search(text):
                return _edge_rows(io.StringIO(_BLANK_LINE.sub("", text)))
        raise ValueError(f"malformed edge line: {err}") from None


def read_edge_tsv(path) -> SignedDirectedGraph:
    """Read an edge-list TSV; the last ``# num_nodes = N`` header, or else
    the largest node id plus one, sets the node count.

    Blank lines and ``#`` comments are skipped. Any other line must hold
    exactly three tab-separated fields (int, int, float), or
    ``ValueError("malformed edge line: ...")`` is raised.
    """
    text = Path(path).read_text(encoding="utf-8")
    headers = [m[1] for m in _NUM_NODES.finditer(text) if _opens_line(text, m.start())]
    has_data = _DATA_LINE.search(text) is not None
    del text  # not held while loadtxt parses the file again
    rows = _edge_rows(path) if has_data else np.zeros(0, dtype=_EDGE_DTYPE)
    # explicit column copies: handing the graph the strided field views
    # (which it copies itself) measured ~3 MB more peak RSS on large_sparse
    src, dst = np.ascontiguousarray(rows["src"]), np.ascontiguousarray(rows["dst"])
    if headers:
        num_nodes = int(headers[-1])
    else:
        num_nodes = int(max(src.max(), dst.max())) + 1 if src.size else 0
    return SignedDirectedGraph(num_nodes, src, dst, np.ascontiguousarray(rows["weight"]))


def write_labels_csv(path, labels, params: dict | None = None) -> None:
    labels = integral(labels, "labels")
    _write_lines(path, params, ["label"] + [str(int(v)) for v in labels])


def read_labels_csv(path) -> np.ndarray:
    """The labels under a ``label`` header; comments and blank lines are skipped."""
    lines = [ln for ln in Path(path).read_text(encoding="utf-8").splitlines()
             if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise ValueError(f"{path}: empty CSV")
    if lines[0] != "label":
        raise ValueError(f"{path}: expected header 'label', got {lines[0]!r}")
    return np.asarray([int(ln.split(",")[0]) for ln in lines[1:]], dtype=np.int64)


def write_node_split_csv(path, split, params: dict | None = None) -> None:
    """Rows (node, replicate, role) for every set membership.

    Rows run by replicate, then role (train, val, test, seed), then node.
    """
    roles = ("train", "val", "test", "seed")
    member = np.stack([getattr(split, role) for role in roles]).transpose(2, 0, 1)
    rep, role, node = np.nonzero(member)  # C order: replicate, role, node
    _write_lines(path, params, ["node,replicate,role"],
                 ((_id_cells(member.shape[2], ","), node),
                  (_id_cells(split.num_splits, ","), rep),
                  (_text_cells(f"{name}\n" for name in roles), role)))


def write_link_split_csv(path, split, params: dict | None = None) -> None:
    """Rows (u, v, label, fold) over the train/val/test query sets.

    Every pair must lie in ``[0, num_nodes)`` of the observed graph, or
    ``ValueError`` is raised.
    """
    num_nodes = split.observed_graph.num_nodes
    folds = (("train", split.train_pairs, split.train_labels),
             ("val", split.val_pairs, split.val_labels),
             ("test", split.test_pairs, split.test_labels))
    for fold, pairs, _ in folds:
        if pairs.size and (pairs.min() < 0 or pairs.max() >= num_nodes):
            raise ValueError(f"{fold} pair outside [0, {num_nodes})")
    ids = _id_cells(num_nodes, ",")
    _write_lines(path, params, ["u,v,label,fold"], *(
        ((ids, pairs[:, 0]), (ids, pairs[:, 1]),
         (_text_cells(f"{name},{fold}\n" for name in split.label_names), labels))
        for fold, pairs, labels in folds))


def write_pairs_csv(path, pairs, params: dict | None = None) -> None:
    """Rows (u, v), one per node pair; a negative id raises ``ValueError``."""
    pairs = integral(pairs, "pairs").astype(np.int64, copy=False).reshape(-1, 2)
    if pairs.size and pairs.min() < 0:
        raise ValueError("negative node id in pairs")
    num_nodes = int(pairs.max()) + 1 if pairs.size else 0
    _write_lines(path, params, ["u,v"], ((_id_cells(num_nodes, ","), pairs[:, 0]),
                                         (_id_cells(num_nodes, "\n"), pairs[:, 1])))


def write_runs_csv(path, rows, params: dict | None = None) -> None:
    """Per-run rows (sweep_value, instance, seed, metric, value)."""
    lines = ["sweep_value,instance,seed,metric,value"]
    lines.extend(f"{repr(float(sv))},{inst},{seed},{metric},{repr(float(value))}"
                 for sv, inst, seed, metric, value in rows)
    _write_lines(path, params, lines)


def write_summary_csv(path, aggregate: dict, params: dict | None = None) -> None:
    """Rows (sweep_value, metric, mean, sd, count) of a ``RunResult.aggregate()``."""
    lines = ["sweep_value,metric,mean,sd,count"]
    lines.extend(f"{repr(float(sv))},{metric},{repr(mean)},{repr(sd)},{count}"
                 for (sv, metric), (mean, sd, count) in aggregate.items())
    _write_lines(path, params, lines)


def write_metric_reports_csv(path, reports, params: dict | None = None) -> None:
    digest = params_hash(params)
    lines = ["metric,value,support,params_hash"]
    for rep in reports:
        lines.append(f"{rep.name},{repr(float(rep.value))},{rep.support},{digest}")
    _write_lines(path, params, lines)
