"""Whole-raster phase estimation.

Per pixel: extract a sliding-window neighborhood, form the configured
covariance plug-in, and run the offline or sequential solver. Pixels are
independent, so rasters can be processed with any number of worker threads
with byte-identical results.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import SeqlinkError
from .linalg import abs_entrywise, partition, schur_factors
from .plugins import PluginSpec, estimate
from .simulate import noiseless_stack
from .solvers import (
    MMConfig,
    solve_offline_frob,
    solve_offline_kl,
    solve_seq_frob,
    solve_seq_kl,
)

DISTANCES = ("kl", "frob")


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
    the stopping rule held (phases kept, but not to tolerance).
    """

    data: np.ndarray
    undersampled: np.ndarray = field(default=None)
    failed: np.ndarray = field(default=None)
    nonconverged: np.ndarray = field(default=None)

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim != 3:
            raise ValueError(f"raster must be 3-d, got shape {self.data.shape}")
        if min(self.data.shape) < 1:
            raise ValueError(f"raster dims must be positive, got {self.data.shape}")
        grid = self.data.shape[1:]
        if self.undersampled is None:
            self.undersampled = np.zeros(grid, dtype=bool)
        if self.failed is None:
            self.failed = np.zeros(grid, dtype=bool)
        if self.nonconverged is None:
            self.nonconverged = np.zeros(grid, dtype=bool)
        self.undersampled = np.asarray(self.undersampled, dtype=bool)
        self.failed = np.asarray(self.failed, dtype=bool)
        self.nonconverged = np.asarray(self.nonconverged, dtype=bool)
        if any(mask.shape != grid for mask in
               (self.undersampled, self.failed, self.nonconverged)):
            raise ValueError("mask shapes must match the raster grid")

    @property
    def count(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]


def _window_bounds(size: int, center: int, win: int):
    start = max(0, center - win // 2)
    stop = min(size, center - win // 2 + win)
    return start, stop


def window_area(height: int, width: int, row: int, col: int, win: int) -> int:
    """Sample count of the clipped win x win window centered at (row, col)."""
    r0, r1 = _window_bounds(height, row, win)
    c0, c1 = _window_bounds(width, col, win)
    return (r1 - r0) * (c1 - c0)


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
    r0, r1 = _window_bounds(stack.height, row, win)
    c0, c1 = _window_bounds(stack.width, col, win)
    patch = stack.data[:, r0:r1, c0:c1]
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
    l = stack.count
    out = np.full((l, stack.height, stack.width), np.nan)
    undersampled = np.zeros((stack.height, stack.width), dtype=bool)
    failed = np.zeros((stack.height, stack.width), dtype=bool)
    nonconverged = np.zeros((stack.height, stack.width), dtype=bool)

    def worker(row: int) -> None:
        for col in range(stack.width):
            samples = sliding_window_extract(stack, row, col, win)
            undersampled[row, col] = samples.shape[0] < l
            if not np.any(samples):
                failed[row, col] = True
                continue
            try:
                sigma = estimate(samples, spec)
                if distance == "kl":
                    report = solve_offline_kl(sigma, cfg)
                else:
                    report = solve_offline_frob(sigma, cfg)
            except (SeqlinkError, np.linalg.LinAlgError):
                failed[row, col] = True
                continue
            out[:, row, col] = np.angle(report.phases)
            nonconverged[row, col] = not report.converged

    _run_rows(stack.height, worker, threads)
    return PhaseRaster(out, undersampled, failed, nonconverged)


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
    p, k = stack_past.count, stack_new.count
    combined = ImageStack(np.concatenate([stack_past.data, stack_new.data], axis=0))
    out = np.full((k, stack_new.height, stack_new.width), np.nan)
    undersampled = np.zeros((stack_new.height, stack_new.width), dtype=bool)
    failed = np.zeros((stack_new.height, stack_new.width), dtype=bool)
    nonconverged = np.zeros((stack_new.height, stack_new.width), dtype=bool)

    def worker(row: int) -> None:
        for col in range(stack_new.width):
            samples = sliding_window_extract(combined, row, col, win)
            undersampled[row, col] = samples.shape[0] < p + k
            past_angles = past_phases.data[:, row, col]
            if past_phases.failed[row, col] or np.any(np.isnan(past_angles)):
                failed[row, col] = True
                continue
            if not np.any(samples):
                failed[row, col] = True
                continue
            try:
                sigma = estimate(samples, spec)
                blocks = partition(sigma, p)
                w_past = np.exp(1j * past_angles)
                if distance == "kl":
                    factors = schur_factors(
                        abs_entrywise(sigma), p, sigma_new=blocks.new)
                    report = solve_seq_kl(blocks, factors, w_past, cfg)
                else:
                    report = solve_seq_frob(blocks, w_past, cfg)
            except (SeqlinkError, np.linalg.LinAlgError):
                failed[row, col] = True
                continue
            out[:, row, col] = np.angle(report.phases)
            nonconverged[row, col] = not report.converged

    _run_rows(stack_new.height, worker, threads)
    return PhaseRaster(out, undersampled, failed, nonconverged)


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
