"""Span recording for the traced benchmark run.

A span is one call into a layer: its name, thread, parent span, start and
end. Spans are kept in memory under a lock and written out when the run
ends. The benchmark wraps the public functions of each layer *as the
consuming module imports them* (``seqlink.raster.estimate``,
``seqlink.solvers.largest_eigenvalue``, ...), so nothing under ``src/``
changes, and every wrapped function is restored in ``finally``.

Self time is charged per thread. The raster's row loop is wrapped so that
every row runs in a ``raster.row`` span on the thread that processes it; the
per-pixel Python of a worker (window bookkeeping, ``np.angle``, the checks
between calls) is that row's self time, whatever the other worker is doing
meanwhile. Worker threads start with an empty span stack, so a row span is
parented to the innermost open span of the thread that installed the
wrappers: the ``raster.process`` call that spawned it. A span's self time
subtracts the union of its children's intervals. On one thread the self
times of a repetition add up to its wall time; on two, to about twice it,
and a worker's self time includes the time it waits for the GIL.

A target the program no longer has is an error (``MissingTarget``), not a
layer that reads zero.
"""
from __future__ import annotations

import importlib
import os
import statistics
import threading
import time
from contextlib import contextmanager

# Span record layout (lists keep the in-memory trace small).
ID, PARENT, NAME, THREAD, START, END, ATTRS = range(7)


class Recorder:
    """Thread-safe in-memory span store with per-thread parent stacks."""

    def __init__(self):
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()
        self.spans: list[list] = []

    def _parent_for(self, thread: int):
        stack = self._stacks.get(thread)
        if stack:
            return stack[-1]
        main = self._stacks.get(self._main)
        return main[-1] if main else None

    @contextmanager
    def span(self, name: str, attrs: dict | None = None):
        """Record one span; yields the attrs dict so callers can add to it."""
        thread = threading.get_ident()
        attrs = {} if attrs is None else attrs
        with self._lock:
            span_id = len(self.spans)
            record = [span_id, self._parent_for(thread), name, thread,
                      time.perf_counter(), None, attrs]
            self.spans.append(record)
            self._stacks.setdefault(thread, []).append(span_id)
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            with self._lock:
                record[END] = end
                self._stacks[thread].pop()

    def take(self) -> list[list]:
        """Return and clear the recorded spans."""
        with self._lock:
            out, self.spans = self.spans, []
        return out


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[int, list] = {}
    for rec in spans:
        if rec[PARENT] is not None:
            children.setdefault(rec[PARENT], []).append(rec)
    out = {}
    for rec in spans:
        start, end = rec[START], rec[END]
        clipped = [(max(c[START], start), min(c[END], end))
                   for c in children.get(rec[ID], ())]
        clipped = [(a, b) for a, b in clipped if b > a]
        out[rec[ID]] = (end - start) - _union_length(clipped)
    return out


# ---------------------------------------------------------------------------
# wrapping the layers' public functions


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _reader(args, kwargs, result, attrs):
    attrs["bytes"] = _file_size(args[0])


def _writer(args, kwargs, result, attrs):
    attrs["bytes"] = _file_size(args[0]) - attrs.pop("size_before", 0)


def _appender_before(args, kwargs, attrs):
    attrs["size_before"] = _file_size(args[0])


def _raster(args, kwargs, result, attrs):
    attrs["pixels"] = int(result.height * result.width)
    attrs["undersampled"] = int(result.undersampled.sum())
    attrs["failed"] = int(result.failed.sum())


def _plugin(args, kwargs, result, attrs):
    n, dates = args[0].shape
    attrs["flop"] = 8.0 * n * dates * dates  # computed, not counted


def _solve(args, kwargs, result, attrs):
    attrs["iters"] = int(result.iterations)
    attrs["converged"] = bool(result.converged)


def _rows(recorder, run_rows):
    """Stand-in for ``seqlink.raster._run_rows`` that runs each row of the
    pixel loop in a ``raster.row`` span on the thread that processes it."""
    def run(height, worker, threads):
        def row(index):
            with recorder.span("raster.row"):
                return worker(index)
        return run_rows(height, row, threads)
    return run


def _bench(args, kwargs, result, attrs):
    attrs["trials"] = sum(row.trials for row in result)
    attrs["excluded"] = sum(row.excluded for row in result)


_SOLVERS = ("solve_offline_kl", "solve_offline_frob", "solve_seq_kl",
            "solve_seq_frob")

# (consuming module, attribute, span name, after-hook, before-hook)
TARGETS = (
    [("seqlink.cli", fn, "stackio.read", _reader, None)
     for fn in ("read_stack", "read_phase_raster", "read_truth_csv")]
    + [("seqlink.cli", fn, "stackio.write", _writer, None)
       for fn in ("write_stack", "write_truth_csv", "write_manifest",
                  "write_phase_raster_csv", "write_phase_raster_binary")]
    + [("seqlink.cli", "append_manifest", "stackio.write", _writer,
        _appender_before),
       ("seqlink.cli", "process_stack_offline", "raster.process", _raster, None),
       ("seqlink.cli", "process_stack_sequential", "raster.process", _raster,
        None),
       ("seqlink.cli", "mc_mse_experiment", "bench.experiment", _bench, None),
       ("seqlink.cli", "sample_stack", "simulate.sample", None, None),
       ("seqlink.raster", "sliding_window_extract", "raster.window", None, None),
       ("seqlink.raster", "estimate", "plugins.estimate", _plugin, None),
       ("seqlink.raster", "schur_factors", "linalg.schur", None, None),
       ("seqlink.bench", "sample_stack", "simulate.sample", None, None),
       ("seqlink.bench", "estimate", "plugins.estimate", _plugin, None),
       ("seqlink.bench", "schur_factors", "linalg.schur", None, None),
       ("seqlink.solvers", "largest_eigenvalue", "linalg.eig", None, None),
       ("seqlink.solvers", "pd_inverse", "linalg.inverse", None, None),
       ("seqlink.linalg", "pd_inverse", "linalg.inverse", None, None)]
    + [(mod, fn, "solvers.solve", _solve, None)
       for mod in ("seqlink.raster", "seqlink.bench") for fn in _SOLVERS]
)

# Methods are wrapped on their class: (module, class, method, span name).
METHOD_TARGETS = (("seqlink.linalg", "SchurFactors", "f_inv", "linalg.f_inv"),)

# Functions replaced by a stand-in: (module, attribute, stand-in factory).
ROW_TARGETS = (("seqlink.raster", "_run_rows", _rows),)


class MissingTarget(RuntimeError):
    """A function the trace wraps is gone from the program."""


def _lookup(owner, attr, where):
    fn = getattr(owner, attr, None)
    if fn is None:
        raise MissingTarget(f"{where}.{attr} not found; update perfbench/spans.py")
    return fn


def _wrap(recorder, fn, name, after, before):
    def wrapper(*args, **kwargs):
        with recorder.span(name) as attrs:
            if before is not None:
                before(args, kwargs, attrs)
            result = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result, attrs)
            return result
    wrapper.__wrapped__ = fn
    return wrapper


@contextmanager
def installed(recorder: Recorder):
    """Wrap every target for the duration of the block; restore in finally.

    Raises ``MissingTarget`` (after restoring what it wrapped) when a target
    is gone, so a renamed or inlined layer cannot pass as a layer that takes
    no time.
    """
    saved = []
    try:
        for module_name, attr, name, after, before in TARGETS:
            module = importlib.import_module(module_name)
            fn = _lookup(module, attr, module_name)
            saved.append((module, attr, fn))
            setattr(module, attr, _wrap(recorder, fn, name, after, before))
        for module_name, cls_name, attr, name in METHOD_TARGETS:
            cls = _lookup(importlib.import_module(module_name), cls_name,
                          module_name)
            fn = _lookup(cls, attr, f"{module_name}.{cls_name}")
            saved.append((cls, attr, fn))
            setattr(cls, attr, _wrap(recorder, fn, name, None, None))
        for module_name, attr, factory in ROW_TARGETS:
            module = importlib.import_module(module_name)
            fn = _lookup(module, attr, module_name)
            saved.append((module, attr, fn))
            setattr(module, attr, factory(recorder, fn))
        yield recorder
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


# ---------------------------------------------------------------------------
# per-layer metrics of one traced repetition

# self time of each span name -> layer metric; linalg spans nest (schur calls
# pd_inverse), so each is charged only its own self time
SELF_METRICS = {
    "cli.main": "cli.self_s",
    "stackio.read": "stackio.read_s",
    "stackio.write": "stackio.write_s",
    "raster.process": "raster.self_s",
    "raster.row": "raster.self_s",
    "raster.window": "raster.window_s",
    "plugins.estimate": "plugins.estimate_s",
    "linalg.eig": "linalg.eig_s",
    "linalg.schur": "linalg.schur_s",
    "linalg.f_inv": "linalg.f_inv_s",
    "linalg.inverse": "linalg.inverse_s",
    "solvers.solve": "solvers.mm_s",
    "simulate.sample": "simulate.sample_s",
    "bench.experiment": "bench.self_s",
}


def layer_metrics(spans, wall_s: float) -> dict[str, float]:
    """Per-layer counts and self times of one repetition's spans."""
    selfs = self_times(spans)
    out = {metric: 0.0 for metric in SELF_METRICS.values()}
    for rec in spans:
        metric = SELF_METRICS.get(rec[NAME])
        if metric is not None:
            out[metric] += selfs[rec[ID]]

    def of(name):
        return [rec for rec in spans if rec[NAME] == name]

    rasters = of("raster.process")
    out["raster.pixels"] = sum(r[ATTRS].get("pixels", 0) for r in rasters)
    out["raster.undersampled"] = sum(r[ATTRS].get("undersampled", 0)
                                     for r in rasters)
    plugins = of("plugins.estimate")
    out["plugins.calls"] = len(plugins)
    out["plugins.gflop"] = sum(r[ATTRS].get("flop", 0.0) for r in plugins) / 1e9
    out["linalg.eig_calls"] = len(of("linalg.eig"))
    out["linalg.schur_calls"] = len(of("linalg.schur"))
    iters = [r[ATTRS]["iters"] for r in of("solvers.solve") if "iters" in r[ATTRS]]
    out["solvers.solves"] = len(iters)
    out["solvers.iters_sum"] = sum(iters)
    out["solvers.iters_p50"] = float(statistics.median(iters)) if iters else 0.0
    out["solvers.iters_max"] = max(iters, default=0)
    out["solvers.nonconverged"] = sum(
        1 for r in of("solvers.solve") if r[ATTRS].get("converged") is False)
    out["solvers.us_per_iter"] = (out["solvers.mm_s"] / out["solvers.iters_sum"]
                                  * 1e6 if iters and sum(iters) else 0.0)
    out["stackio.bytes_read"] = sum(r[ATTRS].get("bytes", 0)
                                    for r in of("stackio.read"))
    out["stackio.bytes_written"] = sum(r[ATTRS].get("bytes", 0)
                                       for r in of("stackio.write"))
    benches = of("bench.experiment")
    out["bench.trials"] = sum(r[ATTRS].get("trials", 0) for r in benches)
    out["bench.excluded"] = sum(r[ATTRS].get("excluded", 0) for r in benches)
    out["trace.self_sum_frac"] = (sum(selfs.values()) / wall_s
                                  if wall_s > 0 else 0.0)
    return out
