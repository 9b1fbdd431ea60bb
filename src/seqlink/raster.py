"""Whole-raster phase estimation.

The raster is processed in blocks of consecutive rows (block_rows), as
many as keep a block's fitted plug-in rows within BLOCK_BYTES, for every
fit. Each block builds every pixel's sliding-window plug-in in one pass
(plugins.window_estimates), or only its new rows for a least-squares
update, and solves all its pixels in one solvers.fit call, one stacked MM
under either objective, given each pixel's past phases; an offline raster
has an empty past. Blocks run on the calling thread and threads - 1 helper
threads (_run_rows). Pixels are independent, so the result is
byte-identical for any block size and number of worker threads.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .blas import single_blas_thread
# estimate, schur_factors and the four solve_* functions are not called here;
# they stay importable from this module because perfbench/spans.py wraps them
from .linalg import schur_factors  # noqa: F401
from .plugins import PluginSpec, estimate, window_bounds, window_estimates  # noqa: F401
from .simulate import noiseless_stack
from .solvers import (  # noqa: F401
    MMConfig,
    check_distance,
    first_fitted_row,
    fit,
    solve_offline_frob,
    solve_offline_kl,
    solve_seq_frob,
    solve_seq_kl,
)


def wrap_angle(x):
    """Map angles to the principal interval (-pi, pi]."""
    return np.pi - np.mod(np.pi - np.asarray(x, dtype=float), 2.0 * np.pi)


@dataclass
class ImageStack:
    """l complex images on a common grid, stored as (l, height, width)."""

    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=complex)
        if self.data.ndim != 3:
            raise ValueError(f"stack must be 3-d, got shape {self.data.shape}")
        if min(self.data.shape) < 1:
            raise ValueError(f"stack dims must be positive, got {self.data.shape}")

    @property
    def count(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]


@dataclass
class PhaseRaster:
    """Per-pixel phase angles in (-pi, pi], stored as (count, height, width).

    A pixel with a NaN angle failed (its solve errored or was skipped); the
    failed property is that mask, so a caller marks a pixel failed by giving
    it NaN angles. undersampled marks pixels whose clipped window held fewer
    samples than the stack depth; nonconverged marks pixels whose solver hit
    its iteration budget before the stopping rule held (phases kept, but not
    to tolerance); iterations holds each pixel's MM iteration count (0 where
    nothing was solved). block_rows is the number of raster rows each fit
    call took in the pass that made the raster (see raster.block_rows); 1
    for a raster made any other way.
    """

    data: np.ndarray
    undersampled: np.ndarray = field(default=None)
    nonconverged: np.ndarray = field(default=None)
    iterations: np.ndarray = field(default=None)
    block_rows: int = 1

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim != 3:
            raise ValueError(f"raster must be 3-d, got shape {self.data.shape}")
        if min(self.data.shape) < 1:
            raise ValueError(f"raster dims must be positive, got {self.data.shape}")
        grid = self.data.shape[1:]
        for name, dtype in (("undersampled", bool), ("nonconverged", bool),
                            ("iterations", int)):
            value = getattr(self, name)
            value = np.zeros(grid, dtype) if value is None else np.asarray(value, dtype)
            if value.shape != grid:
                raise ValueError("mask shapes must match the raster grid")
            setattr(self, name, value)

    @property
    def failed(self) -> np.ndarray:
        """(height, width) mask of the pixels with a NaN angle."""
        return np.isnan(self.data).any(axis=0)

    @property
    def count(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]


def sliding_window_extract(
    stack: ImageStack, row: int, col: int, win: int
) -> np.ndarray:
    """The neighborhood's pixel vectors as rows of an (n, l) sample stack.

    Windows are clipped at raster borders (no padding), so n = win^2 only in
    the interior.
    """
    if win < 1:
        raise ValueError("win must be >= 1")
    if not (0 <= row < stack.height and 0 <= col < stack.width):
        raise IndexError(
            f"pixel ({row}, {col}) outside {stack.height} x {stack.width} raster")
    r0, r1 = window_bounds(stack.height, win)
    c0, c1 = window_bounds(stack.width, win)
    patch = stack.data[:, r0[row]:r1[row], c0[col]:c1[col]]
    return patch.reshape(stack.count, -1).T


def _run_rows(height: int, worker, threads: int) -> None:
    """worker(row) for every row in range(height), on `threads` workers:
    the calling thread and min(threads, height) - 1 helper threads, which
    take rows from one shared iterator (_process hands it blocks of raster
    rows). BLAS runs on one thread (see blas.single_blas_thread),
    so that the workers are the only parallelism.

    The caller works rather than waits, so the heap it has already freed
    serves the rows it runs (each helper thread gets its own malloc arena).
    Rows are independent, so no result depends on which thread ran a row.
    A row that raises stops its worker; the others finish the remaining
    rows, and the first exception (the caller's, then the helpers' in start
    order) is raised once every worker has stopped.
    """
    with single_blas_thread():
        # range's next() is atomic under the GIL: each row is handed out once
        rows = iter(range(height))

        def drain() -> None:
            for row in rows:
                worker(row)

        helpers = min(threads, height) - 1
        if helpers < 1:
            drain()
            return
        # leaving the block waits for every helper, also when drain() or a
        # result() raises
        with ThreadPoolExecutor(max_workers=helpers) as pool:
            started = [pool.submit(drain) for _ in range(helpers)]
            drain()
            for future in started:
                future.result()


def _window_masks(signal: np.ndarray, bad: np.ndarray, win: int, depth: int):
    """(undersampled, unusable) pixel grids: windows holding fewer than depth
    samples, and windows that hold no pixel marked in one date of the
    (dates, height, width) stack signal (a nonzero entry) or that hold one
    marked in the (height, width) grid bad. Box counts come from running
    sums over the window rows, then over the window columns."""
    if win < 1:
        raise ValueError("win must be >= 1")
    height, width = bad.shape
    r0, r1 = window_bounds(height, win)
    c0, c1 = window_bounds(width, win)

    def box_counts(marked):
        # a count is at most height x width, so int32 holds it
        rows = np.zeros(marked.shape[:-2] + (height + 1, width), np.int32)
        np.cumsum(marked, axis=-2, out=rows[..., 1:, :])
        rows = rows.take(r1, axis=-2) - rows.take(r0, axis=-2)
        cols = np.zeros(rows.shape[:-1] + (width + 1,), np.int32)
        np.cumsum(rows, axis=-1, out=cols[..., 1:])
        return cols.take(c1, axis=-1) - cols.take(c0, axis=-1)

    unusable = (box_counts(signal) == 0).any(axis=0) | (box_counts(bad) > 0)
    return np.outer(r1 - r0, c1 - c0) < depth, unusable


# bytes of the fitted plug-in rows of one block of raster rows (see
# block_rows), without a spectral fit's Schur factors and eigenvectors: a
# fixed budget, so that a worker's memory does not grow with the stack
# depth. On a 64-pixel-wide update of k = 5 of l = 40 dates it gives 5 rows;
# larger blocks were no faster there and raised peak memory.
BLOCK_BYTES = 2 ** 20


def block_rows(height: int, width: int, l: int, p: int,
               distance: str) -> int:
    """Raster rows per block of a fit of l dates given p past phases, on a
    raster of height x width pixels: as many rows as keep their fitted
    plug-in rows, those from first = solvers.first_fitted_row on (p for a
    least-squares update, else 0: whole plug-ins), width (l - first) l
    complex entries a row, within BLOCK_BYTES, and at least one; the band,
    the fit's temporaries and the output then scale with the same bytes."""
    first = first_fitted_row(distance, p)
    row_bytes = width * (l - first) * l * np.dtype(complex).itemsize
    return min(height, max(1, BLOCK_BYTES // row_bytes))


def _process(stacks, past, win: int, spec: PluginSpec, cfg: MMConfig,
             distance: str, threads: int) -> PhaseRaster:
    """fit every pixel of a sequence of (l_i, height, width) stacks of
    consecutive dates, in blocks of consecutive rows, given the
    (p, height, width) past angles (p = 0 for an offline raster); the last
    stack holds the fitted dates, k = l - p of them. A pixel fails if its
    window holds a non-finite entry, or no nonzero sample in one of the
    fitted dates, or if its fit fails (fit fails a pixel whose past holds a
    NaN angle).

    The stacks are read in place: each block's window rows are copied into
    one band by window_estimates. Non-finite entries are read as 0 (from a
    copy of the stack that holds them), so no other pixel's plug-in sees
    them. A least-squares update reads only the k new rows of each plug-in,
    so only those are built; a spectral fit builds the whole plug-in. Each
    block is one fit call over its live pixels; a block holds block_rows
    rows, as many as keep its fitted plug-in rows within BLOCK_BYTES. No
    pixel's result depends on its block, so the raster is the same, bit for
    bit, for any block size.
    """
    stacks = list(stacks)
    height, width = stacks[0].shape[1:]
    l = sum(len(data) for data in stacks)
    bad_grid = np.zeros((height, width), dtype=bool)
    for i, data in enumerate(stacks):
        bad = ~np.isfinite(data)
        if bad.any():
            stacks[i] = data = np.where(bad, 0, data)
            bad_grid |= bad.any(axis=0)
    undersampled, unusable = _window_masks(stacks[-1] != 0, bad_grid, win, l)
    first = first_fitted_row(distance, len(past))
    rows = block_rows(height, width, l, len(past), distance)
    out = np.full((l - len(past), height, width), np.nan)
    iterations = np.zeros((height, width), dtype=int)
    nonconverged = np.zeros((height, width), dtype=bool)

    def worker(block: int) -> None:
        start = block * rows
        stop = min(start + rows, height)
        live = ~unusable[start:stop]
        if not live.any():
            return
        sigma = window_estimates(stacks, start, win, spec, first, stop - start)
        w_past = np.exp(1j * past[:, start:stop][:, live].T)
        batch = fit(sigma if live.all() else sigma[live.ravel()], cfg,
                    distance, w_past)
        lost = np.isnan(batch.phases).any(axis=1)
        out[:, start:stop][:, live] = np.angle(batch.phases).T
        iterations[start:stop][live] = batch.iterations
        nonconverged[start:stop][live] = ~batch.converged & ~lost

    _run_rows(-(-height // rows), worker, threads)
    return PhaseRaster(out, undersampled, nonconverged, iterations, rows)


def process_stack_offline(
    stack: ImageStack,
    spec: PluginSpec = PluginSpec(),
    distance: str = "kl",
    win: int = 8,
    cfg: MMConfig = MMConfig(),
    threads: int = 1,
) -> PhaseRaster:
    """Estimate all stack phases at every pixel, the sequential estimate
    from an empty past; anchored to the first date.

    Per-pixel failures (non-invertible plug-in, a date with no signal in
    the window) yield NaN phases and a failed-mask bit instead of aborting
    the raster; a solve that runs out of iterations keeps its phases and
    sets a nonconverged bit.
    """
    check_distance(distance)
    if stack.count < 2:
        raise ValueError("need at least two images to link phases")
    past = np.empty((0, stack.height, stack.width))
    return _process([stack.data], past, win, spec, cfg, distance, threads)


def process_stack_sequential(
    stack_new: ImageStack,
    past_phases: PhaseRaster,
    stack_past: ImageStack,
    spec: PluginSpec = PluginSpec(),
    distance: str = "kl",
    win: int = 8,
    cfg: MMConfig = MMConfig(),
    threads: int = 1,
) -> PhaseRaster:
    """Estimate only the k new phases per pixel, holding past phases fixed.

    Each pixel's plug-in is recomputed from both stacks, which are read in
    place (only phase rasters and images are persisted between acquisitions,
    never covariances). A least-squares (Frobenius) update builds only the
    k x l rows of the new dates, since its fit reads no past block; a
    spectral-fit (KL) update still builds the full (p+k) x (p+k) plug-in,
    whose past block enters through the Schur factors. Pixels whose past
    solve failed stay failed.
    """
    check_distance(distance)
    if stack_past.height != stack_new.height or stack_past.width != stack_new.width:
        raise ValueError("past and new stacks must share the raster grid")
    if past_phases.height != stack_new.height or past_phases.width != stack_new.width:
        raise ValueError("past phases must share the raster grid")
    if past_phases.count != stack_past.count:
        raise ValueError(
            f"past raster holds {past_phases.count} phases but past stack has "
            f"{stack_past.count} images")
    return _process([stack_past.data, stack_new.data], past_phases.data, win,
                    spec, cfg, distance, threads)


def interferogram(phases: PhaseRaster, i: int, j: int) -> np.ndarray:
    """Wrapped per-pixel phase difference theta_i - theta_j in (-pi, pi]."""
    if not (0 <= i < phases.count and 0 <= j < phases.count):
        raise IndexError(
            f"dates ({i}, {j}) out of range for {phases.count} phases")
    return wrap_angle(phases.data[i] - phases.data[j])


def noiseless_raster(
    sigma: np.ndarray, win: int, height: int, width: int
) -> ImageStack:
    """A stack whose every full win x win window averages back to sigma.

    Pixels cycle through the win^2 zero-noise samples by their residue class,
    so any window of that exact size contains each sample exactly once and
    interior pixels see the true covariance with no sampling noise.
    """
    base = noiseless_stack(sigma, win * win)
    rows = np.arange(height) % win
    cols = np.arange(width) % win
    index = rows[:, None] * win + cols[None, :]
    return ImageStack(base.T[:, index])
