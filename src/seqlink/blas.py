"""One BLAS thread while seqlink's own workers run.

numpy's bundled OpenBLAS runs its own thread pool under every matrix
product, factorization and eigendecomposition. The pixel and trial workers
(--threads) are meant to be the only parallelism: with both, a few small
matrices per call cost more in thread hand-offs than they save, and some
results depend on the BLAS thread count. single_blas_thread holds that pool
to one thread through the library's own controls, found by symbol in the
wheel's bundled copy; on other builds (MKL, Accelerate, a system OpenBLAS)
it does nothing.
"""
from __future__ import annotations

import ctypes
import glob
import os
import threading
from contextlib import contextmanager
from functools import cache

import numpy as np

# numpy wheels bundle OpenBLAS with a 64-bit-integer, prefixed symbol set
_GET = "scipy_openblas_get_num_threads64_"
_SET = "scipy_openblas_set_num_threads64_"


@cache
def _bundled_controls():
    """(get, set) thread-count functions of numpy's bundled OpenBLAS, or
    None when this numpy build has none."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*"))):
        try:
            lib = ctypes.CDLL(path)
            get, set_ = getattr(lib, _GET), getattr(lib, _SET)
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


_lock = threading.Lock()
_holders = 0
_saved = 0


def blas_pinnable() -> bool:
    """Whether single_blas_thread can set this build's BLAS thread count."""
    return _bundled_controls() is not None


@contextmanager
def single_blas_thread():
    """Run the block with BLAS on one thread, then restore the previous
    count. Nested and concurrent blocks share one pin: the first to enter
    sets it and the last to leave restores it."""
    global _holders, _saved
    controls = _bundled_controls()
    if controls is None:
        yield
        return
    get, set_ = controls
    with _lock:
        if _holders == 0:
            _saved = get()
            set_(1)
        _holders += 1
    try:
        yield
    finally:
        with _lock:
            _holders -= 1
            if _holders == 0:
                set_(_saved)
