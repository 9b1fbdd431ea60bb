"""Covariance-matrix plug-ins built from a pixel's sample stack.

A sample stack is an (n, l) complex array: n neighborhood vectors of length
l (one entry per acquisition date). Estimators are the sample covariance
matrix and its amplitude-robust phase-only variant; either can be regularized
by shrinkage to a scaled identity or by tapering (banding).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ESTIMATORS = ("scm", "po")
REGULARIZERS = ("none", "shrink", "taper")


@dataclass(frozen=True)
class PluginSpec:
    """Choice of covariance estimator plus optional regularization.

    beta is the shrinkage weight on the raw estimate (1 = no shrinkage);
    bandwidth is the tapering half-width in dates. Defaults follow the
    experiment settings used throughout.
    """

    estimator: str = "scm"
    regularizer: str = "none"
    beta: float = 0.9
    bandwidth: int = 9

    def __post_init__(self):
        if self.estimator not in ESTIMATORS:
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if self.regularizer not in REGULARIZERS:
            raise ValueError(f"unknown regularizer {self.regularizer!r}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")
        if self.bandwidth < 0:
            raise ValueError(f"bandwidth must be >= 0, got {self.bandwidth}")

    def label(self) -> tuple[str, str]:
        """(estimator, regularizer) labels for CSV output."""
        if self.regularizer == "shrink":
            return self.estimator, f"shrink:{self.beta!r}"
        if self.regularizer == "taper":
            return self.estimator, f"taper:{self.bandwidth}"
        return self.estimator, "none"


def _average_outer(vectors: np.ndarray) -> np.ndarray:
    n = vectors.shape[0]
    sigma = vectors.T @ vectors.conj() / n
    # BLAS does not guarantee exact conjugate symmetry; enforce it
    return (sigma + sigma.conj().T) / 2


def scm(stack: np.ndarray) -> np.ndarray:
    """Sample covariance matrix (1/n) Σ x xᴴ of an (n, l) stack."""
    stack = np.asarray(stack, dtype=complex)
    if stack.ndim != 2 or stack.shape[0] < 1:
        raise ValueError("stack must be (n, l) with n >= 1")
    return _average_outer(stack)


def unit_phasors(x: np.ndarray) -> np.ndarray:
    """Entrywise x/|x| with the convention that 0 maps to 1."""
    x = np.asarray(x, dtype=complex)
    mod = np.abs(x)
    out = np.ones_like(x)
    np.divide(x, mod, out=out, where=mod > 0)
    return out


def phase_only(stack: np.ndarray) -> np.ndarray:
    """Covariance of the phase-normalized stack; insensitive to amplitudes.

    Every sample entry is replaced by its unit phasor before averaging the
    outer products, so the diagonal is exactly one.
    """
    stack = np.asarray(stack, dtype=complex)
    if stack.ndim != 2 or stack.shape[0] < 1:
        raise ValueError("stack must be (n, l) with n >= 1")
    sigma = _average_outer(unit_phasors(stack))
    np.fill_diagonal(sigma, 1.0)
    return sigma


def shrink_to_identity(sigma: np.ndarray, beta: float) -> np.ndarray:
    """Convex combination beta*Σ + (1-beta)*(trace(Σ)/l)*I; trace preserved.

    Broadcasts over leading axes: a (..., l, l) stack is shrunk matrix by
    matrix.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must be in [0, 1], got {beta}")
    sigma = np.asarray(sigma)
    l = sigma.shape[-1]
    scale = np.trace(sigma, axis1=-2, axis2=-1).real / l
    return beta * sigma + ((1.0 - beta) * scale)[..., None, None] * np.eye(l)


def taper(sigma: np.ndarray, bandwidth: int) -> np.ndarray:
    """Zero out covariance entries between dates more than `bandwidth` apart
    (broadcasts over leading axes)."""
    if bandwidth < 0:
        raise ValueError(f"bandwidth must be >= 0, got {bandwidth}")
    sigma = np.asarray(sigma)
    return taper_mask(sigma.shape[-1], bandwidth) * sigma


def taper_mask(l: int, bandwidth: int) -> np.ndarray:
    """The 0/1 banding mask applied by taper()."""
    idx = np.arange(l)
    return (np.abs(idx[:, None] - idx[None, :]) <= bandwidth).astype(float)


def _regularize(sigma: np.ndarray, spec: PluginSpec) -> np.ndarray:
    if spec.regularizer == "shrink":
        return shrink_to_identity(sigma, spec.beta)
    if spec.regularizer == "taper":
        return taper(sigma, spec.bandwidth)
    return sigma


def estimate(stack: np.ndarray, spec: PluginSpec) -> np.ndarray:
    """Dispatch estimator then regularizer according to spec."""
    sigma = scm(stack) if spec.estimator == "scm" else phase_only(stack)
    return _regularize(sigma, spec)


def window_bounds(size: int, win: int) -> tuple[np.ndarray, np.ndarray]:
    """Start and stop indices of the win-wide window centred on each of
    `size` positions, clipped at the borders (no padding)."""
    start = np.arange(size) - win // 2
    return np.maximum(start, 0), np.minimum(start + win, size)


def window_estimates(data: np.ndarray, row: int, win: int,
                     spec: PluginSpec) -> np.ndarray:
    """The plug-in of every pixel's clipped win x win window in one row of
    an (l, height, width) stack, as a (width, l, l) array.

    Equals estimate() on sliding-window samples up to summation order. One
    stacked matmul sums each column's outer products over the window rows;
    those column terms are then added over the window columns in ascending
    order, starting from zero, and divided by the clipped area, so
    O(l^2 win width) work per row instead of O(l^2 win^2 width).
    """
    if win < 1:
        raise ValueError("win must be >= 1")
    l, height, width = data.shape
    r_start, r_stop = window_bounds(height, win)
    c_start, c_stop = window_bounds(width, win)
    band = data[:, r_start[row]:r_stop[row]]
    if spec.estimator == "po":
        band = unit_phasors(band)
    # (width, window rows, l): each column's window rows form one matrix
    cols = np.ascontiguousarray(band.transpose(2, 1, 0))
    terms = np.matmul(cols.transpose(0, 2, 1), cols.conj())
    half = win // 2
    sigma = np.zeros((width, l, l), dtype=complex)
    # window offset d adds column col - half + d to pixel col
    for d in range(max(0, half - width + 1), min(win, half + width)):
        first, last = max(0, half - d), min(width, width + half - d)
        sigma[first:last] += terms[first - half + d:last - half + d]
    sigma /= ((r_stop[row] - r_start[row]) * (c_stop - c_start))[:, None, None]
    # BLAS does not guarantee exact conjugate symmetry; enforce it (the
    # column terms are spent, so their buffer holds the conjugate)
    np.conjugate(sigma.transpose(0, 2, 1), out=terms)
    sigma += terms
    sigma /= 2
    if spec.estimator == "po":
        sigma[:, np.arange(l), np.arange(l)] = 1.0
    return _regularize(sigma, spec)
