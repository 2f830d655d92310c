"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture
def two_blas_threads():
    """Every OpenBLAS found set to 2 threads for the test, then put back;
    yields the counts read back."""
    import scipy.sparse.linalg  # noqa: F401  (loads scipy's BLAS before the lookup)
    from sdnet import _blas
    libraries = _blas.openblas_libraries()
    saved = [get() for _, get, _ in libraries]
    for _, _, set_ in libraries:
        set_(2)
    yield [get() for _, get, _ in libraries]
    for (_, _, set_), count in zip(libraries, saved):
        set_(count)
