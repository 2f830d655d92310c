"""The embedding table against the nine-branch ``_embedding`` it replaced.

``_embedding_oracle`` is a verbatim copy of that function (renamed); it
returns real columns, [Re | Im] for the complex methods.
"""

import numpy as np
import pytest

import sdnet.pipeline as pipeline
from sdnet import spectral as sp
from sdnet.cluster import (CLUSTER_METHODS, _embedding, _row_normalize,
                           is_complex, real_columns, spectral_embedding)
from sdnet.generators import dsbm, f1_meta, meta_graph, sdsbm, ssbm
from sdnet.graph import (SignedDirectedGraph, _fix_phase, _fix_sign,
                         hermitian_spectral_features, is_directed, is_signed,
                         signed_degree_features, signed_spectral_features)


def _embedding_oracle(g: SignedDirectedGraph, method: str, k: int, q: float,
                      tau: float) -> np.ndarray:
    if method == "normalized_laplacian":
        pairs = sp.eigh(sp.normalized_laplacian(g), k, "smallest")
        return _fix_sign(pairs.vectors.real)
    if method == "signed_laplacian":
        pairs = sp.eigh(sp.signed_laplacian(g, normalized=False), k, "smallest")
        return _fix_sign(pairs.vectors.real)
    if method == "signed_laplacian_sym":
        pairs = sp.eigh(sp.signed_laplacian(g, normalized=True), k, "smallest")
        return _fix_sign(pairs.vectors.real)
    if method == "magnetic_laplacian":
        pairs = sp.eigh(sp.magnetic_laplacian(g, q=q), k, "smallest")
        vecs = _fix_phase(pairs.vectors)
        return np.hstack([vecs.real, vecs.imag])
    if method == "signed_magnetic_laplacian":
        pairs = sp.eigh(sp.signed_magnetic_laplacian(g, q=q), k, "smallest")
        vecs = _fix_phase(pairs.vectors)
        return np.hstack([vecs.real, vecs.imag])
    if method == "hermitian_imbalance":
        pairs = sp.eigh(sp.hermitian_imbalance(g), k, "largest_abs")
        vecs = _fix_phase(pairs.vectors)
        return np.hstack([vecs.real, vecs.imag])
    if method == "signed_spectral":
        return signed_spectral_features(g, k, tau=tau).values
    if method == "hermitian_spectral":
        return hermitian_spectral_features(g, k).values
    if method == "signed_degree":
        return signed_degree_features(g).values
    raise ValueError(f"unknown clustering method {method!r}")


def _graphs():
    graphs = {
        "signed_directed": sdsbm(f1_meta(0.1), 120, 0.1, eta=0.1, seed=3).graph,
        "unsigned_directed": dsbm(meta_graph("cycle", 3), 120, 3, 0.1, seed=4).graph,
        "undirected": ssbm(120, 3, 0.1, 0.05, eta=0.1, seed=5).graph,
    }
    assert [(is_signed(g), is_directed(g)) for g in graphs.values()] == \
        [(True, True), (False, True), (True, False)]
    return graphs


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("method", CLUSTER_METHODS)
def test_table_matches_the_nine_branch_embedding(method):
    for name, g in _graphs().items():
        if method == "magnetic_laplacian" and is_signed(g):
            for fn in (_embedding_oracle, _embedding):
                with pytest.raises(ValueError, match="nonnegative"):
                    fn(g, method, 3, 0.2, 0.3)
            continue
        want = _embedding_oracle(g, method, 3, 0.2, 0.3)
        got = _embedding(g, method, 3, 0.2, 0.3)
        assert np.iscomplexobj(got) == is_complex(method)
        assert _same_bytes(real_columns(got), want), (method, name)
        assert _same_bytes(spectral_embedding(g, method, 3, q=0.2, tau=0.3),
                           _row_normalize(want)), (method, name)


def test_complex_methods():
    assert len(CLUSTER_METHODS) == 9
    assert {m for m in CLUSTER_METHODS if is_complex(m)} == {
        "magnetic_laplacian", "signed_magnetic_laplacian", "hermitian_imbalance",
        "hermitian_spectral"}
    with pytest.raises(ValueError, match="unknown clustering method"):
        is_complex("nope")


def test_unknown_embedding_raises_before_any_split(monkeypatch):
    def no_split(*args, **kwargs):
        raise AssertionError("a split was drawn")

    monkeypatch.setattr(pipeline, "link_class_split", no_split)
    g = _graphs()["unsigned_directed"]
    for combine in (None, "concat", "phase"):
        with pytest.raises(ValueError, match="unknown clustering method 'nope'"):
            pipeline.linkpred_run(g, "DP", embed_method="nope", combine=combine)

