"""Whole-raster phase estimation.

The raster is processed row by row. Each row builds every pixel's
sliding-window plug-in in one pass (plugins.window_estimates) and solves its
pixels through solvers.fit: least-squares pixels together in one stacked MM,
spectral-fit pixels one by one on the row's plug-ins. Pixels are
independent, so the result is byte-identical for any number of worker
threads.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

# estimate, schur_factors and the four solve_* functions are not called here;
# they stay importable from this module because perfbench/spans.py wraps them
from .linalg import schur_factors  # noqa: F401
from .plugins import PluginSpec, estimate, window_bounds, window_estimates  # noqa: F401
from .simulate import noiseless_stack
from .solvers import (  # noqa: F401
    DISTANCES,
    MMConfig,
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

    undersampled marks pixels whose clipped window held fewer samples than
    the stack depth; failed marks pixels whose solve errored (phases NaN);
    nonconverged marks pixels whose solver hit its iteration budget before
    the stopping rule held (phases kept, but not to tolerance); iterations
    holds each pixel's MM iteration count (0 where nothing was solved).
    """

    data: np.ndarray
    undersampled: np.ndarray = field(default=None)
    failed: np.ndarray = field(default=None)
    nonconverged: np.ndarray = field(default=None)
    iterations: np.ndarray = field(default=None)

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim != 3:
            raise ValueError(f"raster must be 3-d, got shape {self.data.shape}")
        if min(self.data.shape) < 1:
            raise ValueError(f"raster dims must be positive, got {self.data.shape}")
        grid = self.data.shape[1:]
        for name, dtype in (("undersampled", bool), ("failed", bool),
                            ("nonconverged", bool), ("iterations", int)):
            value = getattr(self, name)
            value = np.zeros(grid, dtype) if value is None else np.asarray(value, dtype)
            if value.shape != grid:
                raise ValueError("mask shapes must match the raster grid")
            setattr(self, name, value)

    @property
    def count(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]


def window_area(height: int, width: int, row: int, col: int, win: int) -> int:
    """Sample count of the clipped win x win window centered at (row, col)."""
    r0, r1 = window_bounds(height, win)
    c0, c1 = window_bounds(width, win)
    return int((r1[row] - r0[row]) * (c1[col] - c0[col]))


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
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(worker, range(height)))
    else:
        for row in range(height):
            worker(row)


def _check_distance(distance: str) -> None:
    if distance not in DISTANCES:
        raise ValueError(f"unknown distance {distance!r}; choose from {DISTANCES}")


def _window_masks(data: np.ndarray, win: int, depth: int):
    """(undersampled, empty) pixel grids: windows holding fewer than depth
    samples, and windows whose samples are all exactly zero (a box count of
    nonzero pixels over an integral image)."""
    if win < 1:
        raise ValueError("win must be >= 1")
    height, width = data.shape[1:]
    r0, r1 = window_bounds(height, win)
    c0, c1 = window_bounds(width, win)
    nonzero = np.zeros((height + 1, width + 1), dtype=np.int64)
    nonzero[1:, 1:] = np.any(data != 0, axis=0).cumsum(0).cumsum(1)
    counts = (nonzero[np.ix_(r1, c1)] - nonzero[np.ix_(r0, c1)]
              - nonzero[np.ix_(r1, c0)] + nonzero[np.ix_(r0, c0)])
    return np.outer(r1 - r0, c1 - c0) < depth, counts == 0


def _process(data: np.ndarray, past, win: int, spec: PluginSpec,
             skip: np.ndarray, cfg: MMConfig, distance: str,
             threads: int) -> PhaseRaster:
    """fit every pixel of an (l, height, width) stack, row by row.

    past is None for an offline raster, or the (p, height, width) past
    angles of a sequential one, whose pixels then hold the last l - p dates.
    Pixels in skip, with all-zero windows, or whose fit fails are failed.
    """
    l, height, width = data.shape
    count = l if past is None else l - len(past)
    undersampled, empty = _window_masks(data, win, l)
    failed = skip | empty
    out = np.full((count, height, width), np.nan)
    iterations = np.zeros((height, width), dtype=int)
    nonconverged = np.zeros((height, width), dtype=bool)

    def worker(row: int) -> None:
        live = ~failed[row]
        if not live.any():
            return
        sigma = window_estimates(data, row, win, spec)
        w_past = None if past is None else np.exp(1j * past[:, row, live].T)
        batch = fit(sigma if live.all() else sigma[live], cfg, distance, w_past)
        lost = np.isnan(batch.phases).any(axis=1)
        out[:, row, live] = np.angle(batch.phases).T
        iterations[row, live] = batch.iterations
        nonconverged[row, live] = ~batch.converged & ~lost
        failed[row, live] = lost

    _run_rows(height, worker, threads)
    return PhaseRaster(out, undersampled, failed, nonconverged, iterations)


def process_stack_offline(
    stack: ImageStack,
    spec: PluginSpec = PluginSpec(),
    distance: str = "kl",
    win: int = 8,
    cfg: MMConfig = MMConfig(),
    threads: int = 1,
) -> PhaseRaster:
    """Estimate all stack phases at every pixel; anchored to the first date.

    Per-pixel failures (non-invertible plug-in, empty signal) yield NaN
    phases and a failed-mask bit instead of aborting the raster; a solve that
    runs out of iterations keeps its phases and sets a nonconverged bit.
    """
    _check_distance(distance)
    if stack.count < 2:
        raise ValueError("need at least two images to link phases")
    skip = np.zeros((stack.height, stack.width), dtype=bool)
    return _process(stack.data, None, win, spec, skip, cfg, distance, threads)


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

    The full (p+k) plug-in is recomputed from both stacks at each pixel (only
    phase rasters and images are persisted between acquisitions, never
    covariances); its past/new partition feeds the sequential solver. Pixels
    whose past solve failed stay failed.
    """
    _check_distance(distance)
    if stack_past.height != stack_new.height or stack_past.width != stack_new.width:
        raise ValueError("past and new stacks must share the raster grid")
    if past_phases.height != stack_new.height or past_phases.width != stack_new.width:
        raise ValueError("past phases must share the raster grid")
    if past_phases.count != stack_past.count:
        raise ValueError(
            f"past raster holds {past_phases.count} phases but past stack has "
            f"{stack_past.count} images")
    skip = past_phases.failed | np.isnan(past_phases.data).any(axis=0)
    combined = np.concatenate([stack_past.data, stack_new.data], axis=0)
    return _process(combined, past_phases.data, win, spec, skip, cfg,
                    distance, threads)


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
