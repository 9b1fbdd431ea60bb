"""Covariance-matrix plug-ins built from a pixel's sample stack.

A sample stack is an (n, l) complex array: n neighborhood vectors of length
l (one entry per acquisition date). Estimators are the sample covariance
matrix and its amplitude-robust phase-only variant; either can be regularized
by shrinkage to a scaled identity or by tapering (banding).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blas import single_blas_thread
from .errors import ConfigError

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
            raise ConfigError("estimator", f"unknown estimator {self.estimator!r}")
        if self.regularizer not in REGULARIZERS:
            raise ConfigError("regularizer", f"unknown regularizer {self.regularizer!r}")
        if not 0.0 <= self.beta <= 1.0:
            raise ConfigError("beta", f"beta must be in [0, 1], got {self.beta}")
        if self.bandwidth < 0:
            raise ConfigError("bandwidth", f"bandwidth must be >= 0, got {self.bandwidth}")

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


def taper_mask(l: int, bandwidth: int, first: int = 0) -> np.ndarray:
    """Rows first: of the l x l banding mask applied by taper(), as bools
    (True within the band), built from two comparisons of index vectors so
    that no l x l integer array is made."""
    rows = np.arange(first, l)[:, None]
    cols = np.arange(l)
    mask = cols >= rows - bandwidth
    mask &= cols <= rows + bandwidth
    return mask


def regularize(sigma: np.ndarray, spec: PluginSpec) -> np.ndarray:
    """Apply spec's regularizer to a plug-in or a (..., l, l) stack of them,
    out of place: sigma, which may be a view of a larger plug-in, is not
    written."""
    if spec.regularizer == "shrink":
        return shrink_to_identity(sigma, spec.beta)
    if spec.regularizer == "taper":
        return taper(sigma, spec.bandwidth)
    return sigma


def estimate(stack: np.ndarray, spec: PluginSpec) -> np.ndarray:
    """Dispatch estimator then regularizer according to spec."""
    sigma = scm(stack) if spec.estimator == "scm" else phase_only(stack)
    return regularize(sigma, spec)


def window_bounds(size: int, win: int) -> tuple[np.ndarray, np.ndarray]:
    """Start and stop indices of the win-wide window centred on each of
    `size` positions, clipped at the borders (no padding)."""
    start = np.arange(size) - win // 2
    return np.maximum(start, 0), np.minimum(start + win, size)


def window_estimates(data, row: int, win: int, spec: PluginSpec,
                     first: int = 0, rows: int = 1) -> np.ndarray:
    """Rows first: of the plug-in of every pixel's clipped win x win window
    in rows row:row + rows of an (l, height, width) stack, as a
    (rows * width, l - first, l) array in raster order; first = 0 gives the
    whole plug-in.

    data may also be a sequence of (l_i, height, width) stacks of
    consecutive dates (say, the past and the new images of an update),
    which are read in place: each stack row that the block's windows read is
    copied once (and, for po, normalized once), into one band over all l
    dates and rows + win - 1 raster rows at most.

    Equals estimate() on sliding-window samples up to summation order. For
    each output row, one stacked matmul sums each column's outer products
    over the window rows, for rows first: against all l columns. Those
    terms are then summed over the window columns by products with a 0/1
    band matrix on their real view, one tile of win output columns at a
    time for all output rows at once, so the work is O((l - first) l win)
    per pixel instead of O((l - first) l win^2) and no width x width matrix
    is built. The sums are scaled by 0.5 / (clipped area), which gives the
    same bits as dividing by the area and halving after the symmetrization.
    Each plug-in is the same, bit for bit, whatever block it is built in.

    The rows equal rows first: of the whole plug-in to rounding: the whole
    plug-in adds each entry left of column first to the conjugate of its
    transposed entry, which the rows do not hold, so the rows double it
    instead. `scm` shrinkage takes the whole plug-in's trace from a box sum
    of the window's squared moduli. The k x k block of new dates is exactly
    Hermitian, as the whole plug-in is.

    The regularizer works in place on the output, whole plug-in or rows, so
    no second (rows * width, l - first, l) array is built. The whole
    plug-in equals regularize() of the unregularized one (==, which does not
    see the sign of a zero: out of place, shrinkage adds +0 to the
    off-diagonal entries).

    The products run on one BLAS thread, since their rounding can depend on
    the BLAS thread count; so the result is the same whether or not the
    caller holds blas.single_blas_thread.
    """
    if win < 1:
        raise ValueError("win must be >= 1")
    stacks = [data] if isinstance(data, np.ndarray) else list(data)
    l = sum(len(stack) for stack in stacks)
    height, width = stacks[0].shape[1:]
    if not 0 <= first < l:
        raise ValueError(f"first row {first} must satisfy 0 <= first < l={l}")
    stop = row + rows
    if not (rows >= 1 and 0 <= row and stop <= height):
        raise ValueError(f"rows {row}:{stop} must lie in 0:{height}")
    r_start, r_stop = window_bounds(height, win)
    c_start, c_stop = window_bounds(width, win)
    top, bottom = r_start[row], r_stop[stop - 1]
    # (width, band rows, l): each column's band rows form one matrix
    cols = np.empty((width, bottom - top, l), dtype=complex)
    date = 0
    for stack in stacks:
        band = stack[:, top:bottom]
        if spec.estimator == "po":
            band = unit_phasors(band)
        cols[:, :, date:date + len(stack)] = band.transpose(2, 1, 0)
        date += len(stack)
    conj = cols.conj()
    windows = [slice(r_start[r] - top, r_stop[r] - top)
               for r in range(row, stop)]
    shrink_rows = (first > 0 and spec.regularizer == "shrink"
                   and spec.estimator == "scm")
    terms = np.empty((rows * width, l - first, l), dtype=complex)
    with single_blas_thread():
        for i, window in enumerate(windows):
            np.matmul(cols[:, window, first:].transpose(0, 2, 1),
                      conj[:, window], out=terms[i * width:(i + 1) * width])
        if shrink_rows:
            squares = np.empty((rows, width), dtype=complex)
            for i, window in enumerate(windows):
                flat = cols[:, window].reshape(width, -1)
                squares[i] = np.vecdot(flat, flat)
        del cols, conj  # the band is spent: free it before sigma is made
        sigma = np.empty_like(terms)
        sums = sigma.view(float).reshape(rows, width, -1)
        pairs = [(terms.view(float).reshape(rows, width, -1), sums)]
        if shrink_rows:
            trace = np.empty((rows, width, 1))
            pairs.append((squares.real[:, :, None], trace))
        for start in range(0, width, win):
            end = min(start + win, width)
            taps = np.arange(c_start[start], c_stop[end - 1])
            ones = ((taps >= c_start[start:end, None])
                    & (taps < c_stop[start:end, None])).astype(float)
            for src, dst in pairs:
                np.matmul(ones, src[:, taps[0]:taps[-1] + 1],
                          out=dst[:, start:end])
    area = np.outer(r_stop[row:stop] - r_start[row:stop], c_stop - c_start)
    sums *= (0.5 / area)[:, :, None]
    # BLAS does not guarantee exact conjugate symmetry; enforce it. Entry
    # (i, j) of the new block adds the conjugate of entry (j, i), from the
    # row terms (which are spent, so their buffer holds the conjugate); an
    # entry left of column first is doubled, which is exact
    new, spent = sigma[:, :, first:], terms[:, :, first:]
    np.conjugate(new.transpose(0, 2, 1), out=spent)
    new += spent
    sigma[:, :, :first] *= 2
    diag = np.arange(l - first)
    if spec.estimator == "po":
        sigma[:, diag, first + diag] = 1.0
    # the plug-in is this call's own array: regularize it in place
    if spec.regularizer == "taper":
        sigma *= taper_mask(l, spec.bandwidth, first)
    elif spec.regularizer == "shrink":
        # shrink to the whole plug-in's trace: its own; for rows, l under
        # po's unit diagonal, else the box sum of the window's squared moduli
        if not first:
            scale = np.trace(sigma, axis1=-2, axis2=-1).real / l
        elif shrink_rows:
            scale = (trace[:, :, 0] / (area * l)).ravel()
        else:
            scale = np.ones(rows * width)
        sigma *= spec.beta
        sigma[:, diag, first + diag] += ((1.0 - spec.beta) * scale)[:, None]
    return sigma
