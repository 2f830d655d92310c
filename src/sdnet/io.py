"""File formats: edge-list TSV, feature/label CSV, split and metric CSV.

Every writer accepts an optional ``params`` mapping that is echoed into
the file header as ``# key = value`` lines for provenance. Output bytes
are deterministic: rows are emitted in a fixed order and floats use
shortest round-trip formatting.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from .graph import SignedDirectedGraph


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return f'"{value}"'
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    raise TypeError(f"cannot serialize parameter of type {type(value)!r}")


def format_params(params: dict) -> list[str]:
    """Render a flat parameter record as ``# key = value`` header lines."""
    return [f"# {key} = {_fmt(value)}" for key, value in params.items()]


def params_hash(params: dict | None) -> str:
    """Short stable digest of a parameter record."""
    if not params:
        return "none"
    blob = "\n".join(format_params(params)).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _write_lines(path, header_params, lines):
    out = []
    if header_params:
        out.extend(format_params(header_params))
    out.extend(lines)
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")


def write_edge_tsv(path, g: SignedDirectedGraph, params: dict | None = None) -> None:
    """One ``src<TAB>dst<TAB>weight`` line per edge, 0-based ids."""
    hdr = dict(params or {})
    hdr.setdefault("num_nodes", g.num_nodes)
    lines = [f"{u}\t{v}\t{repr(float(w))}" for u, v, w in zip(g.src, g.dst, g.weight)]
    _write_lines(path, hdr, lines)


def read_edge_tsv(path, num_nodes: int | None = None) -> SignedDirectedGraph:
    """Read an edge-list TSV; ``# num_nodes = N`` headers are honored."""
    src, dst, w = [], [], []
    header_n = None
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, _, val = body.partition("=")
                if key.strip() == "num_nodes":
                    header_n = int(val.strip())
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ValueError(f"malformed edge line: {raw!r}")
        src.append(int(parts[0]))
        dst.append(int(parts[1]))
        w.append(float(parts[2]))
    if num_nodes is None:
        num_nodes = header_n
    if num_nodes is None:
        num_nodes = (max(max(src), max(dst)) + 1) if src else 0
    return SignedDirectedGraph(
        num_nodes,
        np.asarray(src, dtype=np.int64),
        np.asarray(dst, dtype=np.int64),
        np.asarray(w, dtype=np.float64),
    )


def write_labels_csv(path, labels, params: dict | None = None) -> None:
    labels = np.asarray(labels, dtype=np.int64)
    _write_lines(path, params, ["label"] + [str(int(v)) for v in labels])


def read_labels_csv(path) -> np.ndarray:
    rows = _read_csv_rows(path, expected_header="label")
    return np.asarray([int(r[0]) for r in rows], dtype=np.int64)


def write_features_csv(path, values, params: dict | None = None) -> None:
    values = np.asarray(values, dtype=np.float64)
    header = ",".join(f"f{j}" for j in range(values.shape[1]))
    lines = [header] + [",".join(repr(float(x)) for x in row) for row in values]
    _write_lines(path, params, lines)


def read_features_csv(path) -> np.ndarray:
    rows = _read_csv_rows(path)
    return np.asarray([[float(x) for x in r] for r in rows], dtype=np.float64)


def _read_csv_rows(path, expected_header: str | None = None) -> list[list[str]]:
    lines = [
        ln for ln in Path(path).read_text(encoding="utf-8").splitlines()
        if ln.strip() and not ln.startswith("#")
    ]
    if not lines:
        raise ValueError(f"{path}: empty CSV")
    if expected_header is not None and lines[0] != expected_header:
        raise ValueError(f"{path}: expected header {expected_header!r}, got {lines[0]!r}")
    return [ln.split(",") for ln in lines[1:]]


def write_node_split_csv(path, split, params: dict | None = None) -> None:
    """Rows (node, replicate, role) for every set membership."""
    lines = ["node,replicate,role"]
    rolemasks = (("train", split.train), ("val", split.val),
                 ("test", split.test), ("seed", split.seed))
    for rep in range(split.num_splits):
        for role, mask in rolemasks:
            for node in np.nonzero(mask[:, rep])[0]:
                lines.append(f"{node},{rep},{role}")
    _write_lines(path, params, lines)


def write_link_split_csv(path, split, params: dict | None = None) -> None:
    """Rows (u, v, label, fold) over the train/val/test query sets."""
    lines = ["u,v,label,fold"]
    for fold, pairs, labels in (("train", split.train_pairs, split.train_labels),
                                ("val", split.val_pairs, split.val_labels),
                                ("test", split.test_pairs, split.test_labels)):
        for (u, v), lab in zip(pairs, labels):
            lines.append(f"{u},{v},{split.label_names[lab]},{fold}")
    _write_lines(path, params, lines)


def write_metric_reports_csv(path, reports, params: dict | None = None) -> None:
    digest = params_hash(params)
    lines = ["metric,value,support,params_hash"]
    for rep in reports:
        lines.append(f"{rep.name},{repr(float(rep.value))},{rep.support},{digest}")
    _write_lines(path, params, lines)


def write_matrix_csv(path, matrix, params: dict | None = None) -> None:
    """Debug dump of a spectral operator as (row, col, re, im) rows.

    Walks the CSR's stored entries, which are in row-major order with
    sorted columns, and skips exact zeros, so the rows are the nonzero
    cells of the dense matrix in row-major order.
    """
    entries = matrix.entries
    rows = np.repeat(np.arange(entries.shape[0]), np.diff(entries.indptr))
    keep = entries.data != 0
    lines = ["row,col,re,im"]
    lines.extend(f"{i},{j},{repr(float(z.real))},{repr(float(z.imag))}"
                 for i, j, z in zip(rows[keep], entries.indices[keep],
                                    entries.data[keep]))
    _write_lines(path, params, lines)
