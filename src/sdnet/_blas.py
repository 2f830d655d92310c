"""Process-wide OpenBLAS thread limit around small sparse eigensolves.

``single_blas_thread`` sets every OpenBLAS loaded in the process to one
thread and restores the saved counts when the outermost holder exits,
also on an exception. The counts are process-wide, so other threads'
BLAS calls run single-threaded meanwhile. Libraries are found once, from
``/proc/self/maps``, at the first call: scipy's own OpenBLAS must be
loaded by then. Where none is found (another OS, MKL, a system BLAS)
the limit does nothing. ctypes is imported only by the lookup.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

# (get, set) names OpenBLAS builds export: plain, scipy's wheel, and
# numpy's ILP64 wheel
_SYMBOLS = (("openblas_get_num_threads", "openblas_set_num_threads"),
            ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
            ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"))

_lock = threading.Lock()
_libraries = None
_depth = 0
_saved: list[int] = []


def _find() -> list[tuple[str, object, object]]:
    import ctypes
    import os
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split(maxsplit=5)[5].strip() for line in maps
                            if "openblas" in line})
    except OSError:
        return []
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)  # never loads a new copy
        except OSError:
            continue
        for names in _SYMBOLS:
            if all(hasattr(lib, name) for name in names):
                found.append((path, *(getattr(lib, name) for name in names)))
                break
    return found


def openblas_libraries() -> list[tuple[str, object, object]]:
    """(path, get_num_threads, set_num_threads) of each loaded OpenBLAS."""
    global _libraries
    with _lock:
        if _libraries is None:
            _libraries = _find()
    return _libraries


@contextmanager
def single_blas_thread():
    """Run the block with every loaded OpenBLAS on one thread."""
    global _depth, _saved
    libraries = openblas_libraries()
    with _lock:
        if _depth == 0:
            _saved = [get() for _, get, _ in libraries]
            for _, _, set_ in libraries:
                set_(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for (_, _, set_), count in zip(libraries, _saved):
                    set_(count)
