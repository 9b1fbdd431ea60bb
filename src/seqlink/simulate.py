"""Synthetic ground truth and sample generation.

Builds the structured covariance Σ = Ψ ∘ w wᴴ from a Toeplitz coherence
matrix and a linear phase ramp, then draws circular complex Gaussian or
Gamma-textured (scaled Gaussian) sample stacks from it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NotPositiveDefinite
from .linalg import DEFAULT_JITTER, hermitize, jittered_cholesky
from .plugins import unit_phasors

DISTRIBUTIONS = ("gaussian", "scaled_gaussian")


@dataclass(frozen=True)
class SimulationConfig:
    """Ground-truth and sampling parameters for one synthetic scenario."""

    l: int = 40
    p: int = 35
    k: int = 5
    rho: float = 0.98
    nu: float = 1.0
    distribution: str = "gaussian"
    n: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.p < 1 or self.k < 1:
            raise ConfigError("p" if self.p < 1 else "k",
                              f"p = {self.p} and k = {self.k} must both be >= 1")
        if self.p + self.k != self.l:
            raise ConfigError("l", f"p + k = {self.p + self.k} must equal l = {self.l}")
        if not 0.0 < self.rho < 1.0:
            raise ConfigError("rho", "rho out of range, must lie in (0, 1)")
        if self.nu <= 0.0:
            raise ConfigError("nu", "nu must be > 0")
        if self.distribution not in DISTRIBUTIONS:
            raise ConfigError("distribution", f"unknown distribution "
                              f"{self.distribution!r}; choose from {DISTRIBUTIONS}")
        if self.n < 1:
            raise ConfigError("n", "n must be >= 1")


def toeplitz_coherence(l: int, rho: float) -> np.ndarray:
    """Coherence matrix Ψ[i,j] = rho^|i-j| (unit diagonal, positive definite)."""
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie in (0, 1)")
    lags = np.arange(l)
    return (rho ** lags)[np.abs(lags[:, None] - lags[None, :])]


def linear_phase_ramp(l: int, total_rad: float = 2.0) -> np.ndarray:
    """Unit-modulus phasors with angles 0, Δ, 2Δ, ... for Δ = total_rad / l.

    The first date is the zero-phase reference.
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    return np.exp(1j * np.arange(l) * (total_rad / l))


def build_true_covariance(psi: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Σ[i,j] = psi[i,j] · w[i] · conj(w[j]) for unit-modulus w.

    The phase factors are renormalized entrywise so the diagonal is exactly
    real and abs_entrywise(Σ) reproduces psi to rounding.
    """
    psi = np.asarray(psi)
    w = np.asarray(w, dtype=complex)
    if psi.shape != (w.size, w.size):
        raise ValueError(f"psi shape {psi.shape} does not match {w.size} phases")
    out = psi * unit_phasors(np.outer(w, w.conj()))
    # w_i * conj(w_i) is exactly 1 in the model; keep the diagonal real
    np.fill_diagonal(out, np.diag(psi))
    return out


def matrix_sqrt(sigma: np.ndarray, jitter: float = DEFAULT_JITTER) -> np.ndarray:
    """Lower-triangular (or eigenvector-based) L with L Lᴴ = sigma.

    Cholesky with linalg's jitter rescue; positive semidefinite but singular
    inputs (e.g. Σ = 0) fall back to an eigendecomposition with tiny negative
    eigenvalues clipped to zero.
    """
    sigma = np.asarray(sigma, dtype=complex)
    try:
        return jittered_cholesky(sigma, jitter)[0]
    except NotPositiveDefinite:
        pass
    values, vectors = np.linalg.eigh(hermitize(sigma))
    top = max(float(values[-1]), 0.0)
    if float(values[0]) < -1e-8 * max(top, 1.0):
        raise NotPositiveDefinite(
            f"covariance has negative eigenvalue {values[0]:.3e}")
    return vectors * np.sqrt(np.clip(values, 0.0, None))


def _standard_complex_normal(rng: np.random.Generator, n: int, l: int) -> np.ndarray:
    """n i.i.d. rows with E[z zᴴ] = I (Re and Im each variance 1/2)."""
    z = rng.standard_normal((n, l)) + 1j * rng.standard_normal((n, l))
    return z / np.sqrt(2.0)


def sample_gaussian(sigma: np.ndarray, n: int, seed, root=None) -> np.ndarray:
    """n circular complex Gaussian samples with covariance sigma, as rows.

    root, if given, is matrix_sqrt(sigma), so that many draws from one
    covariance share one factorization.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    l_mat = matrix_sqrt(sigma) if root is None else root
    return _standard_complex_normal(rng, n, sigma.shape[0]) @ l_mat.T


def sample_scaled_gaussian(
    sigma: np.ndarray,
    n: int,
    nu: float,
    seed,
    textures: np.ndarray | None = None,
    root=None,
) -> np.ndarray:
    """n samples √τᵢ·xᵢ with xᵢ Gaussian and τᵢ ~ Gamma(nu, 1/nu), E[τ] = 1.

    The Gaussian part consumes the generator exactly as sample_gaussian, so
    injecting textures of all ones reproduces the Gaussian stack bit for bit
    (the unit-texture degenerate path used by tests). root is as for
    sample_gaussian.
    """
    if nu <= 0.0:
        raise ValueError("nu must be > 0")
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    l_mat = matrix_sqrt(sigma) if root is None else root
    gaussian = _standard_complex_normal(rng, n, sigma.shape[0]) @ l_mat.T
    if textures is None:
        textures = rng.gamma(shape=nu, scale=1.0 / nu, size=n)
    else:
        textures = np.asarray(textures, dtype=float)
        if textures.shape != (n,):
            raise ValueError(f"textures shape {textures.shape}, expected ({n},)")
        if np.any(textures < 0):
            raise ValueError("textures must be nonnegative")
    return np.sqrt(textures)[:, None] * gaussian


def noiseless_stack(sigma: np.ndarray, n: int) -> np.ndarray:
    """A deterministic n-sample stack whose sample covariance is exactly sigma.

    Columns of the first l rows of the n-point unitary DFT are orthonormal in
    aggregate, so x_i = √n · L · u_i averages back to L Lᴴ with no sampling
    noise. Requires n >= l.
    """
    sigma = np.asarray(sigma, dtype=complex)
    l = sigma.shape[0]
    if n < l:
        raise ValueError(f"need n >= l to span the stack, got n={n}, l={l}")
    l_mat = matrix_sqrt(sigma)
    grid = np.outer(np.arange(l), np.arange(n))
    dft_rows = np.exp(-2j * np.pi * grid / n) / np.sqrt(n)
    return (np.sqrt(n) * (l_mat @ dft_rows)).T


def ground_truth(cfg: SimulationConfig):
    """(coherence, true phases, true covariance) for a scenario."""
    psi = toeplitz_coherence(cfg.l, cfg.rho)
    w = linear_phase_ramp(cfg.l)
    return psi, w, build_true_covariance(psi, w)


def sample_stack(sigma: np.ndarray, cfg: SimulationConfig, seed=None,
                 root=None) -> np.ndarray:
    """Draw one stack from sigma under the configured distribution; root,
    if given, is matrix_sqrt(sigma) (see sample_gaussian)."""
    use = cfg.seed if seed is None else seed
    if cfg.distribution == "gaussian":
        return sample_gaussian(sigma, cfg.n, use, root)
    return sample_scaled_gaussian(sigma, cfg.n, cfg.nu, use, root=root)
