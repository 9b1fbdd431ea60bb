"""BLAS thread pinning: one BLAS thread inside the row runner, the previous
count restored after it, and a no-op where the controls are missing."""
import threading

import pytest

import seqlink.blas
from seqlink.blas import _bundled_controls, blas_pinnable, single_blas_thread
from seqlink.raster import _run_rows

needs_controls = pytest.mark.skipif(
    not blas_pinnable(), reason="this numpy build has no bundled OpenBLAS")


@needs_controls
@pytest.mark.parametrize("threads", [1, 3])
def test_rows_run_on_one_blas_thread_and_the_count_is_restored(threads):
    get, set_ = _bundled_controls()
    before = get()
    set_(2)
    try:
        seen = []
        lock = threading.Lock()

        def worker(row):
            with lock:
                seen.append(get())

        _run_rows(5, worker, threads)
        assert seen == [1] * 5
        assert get() == 2
    finally:
        set_(before)


@needs_controls
def test_overlapping_pins_restore_only_when_the_last_one_leaves():
    get, set_ = _bundled_controls()
    before = get()
    set_(2)
    try:
        outer = single_blas_thread()
        outer.__enter__()
        with single_blas_thread():
            assert get() == 1
        assert get() == 1  # the outer block still holds the pin
        outer.__exit__(None, None, None)
        assert get() == 2
    finally:
        set_(before)


def test_pin_is_a_no_op_without_controls(monkeypatch):
    monkeypatch.setattr(seqlink.blas, "_bundled_controls", lambda: None)
    assert not blas_pinnable()
    ran = []
    with single_blas_thread():
        ran.append(True)
    assert ran == [True]
