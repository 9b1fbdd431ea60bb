"""Covariance-fitting objectives in full (whole-stack) and block form.

Both distances compare the plug-in Σ̃ with the structured model Ψ̃ ∘ w̃w̃ᴴ
restricted to the torus; dropping w̃-independent constants leaves quadratic
forms in the phase vector. The block forms split the objective into past,
cross and new-block terms so the sequential solver can hold the past fixed;
they agree with the full forms exactly (up to rounding), which the tests
check against each other and against scalar-loop oracles.
"""
from __future__ import annotations

import numpy as np

from .linalg import (
    DEFAULT_JITTER,
    BlockCov,
    SchurFactors,
    abs_entrywise,
    hadamard,
    pd_inverse,
)


def quad_form(w: np.ndarray, m: np.ndarray) -> float:
    """Real part of wᴴ M w (the imaginary residual of a Hermitian form is
    rounding noise)."""
    w = np.asarray(w)
    return float(np.real(w.conj() @ (m @ w)))


def kl_cost_full(w: np.ndarray, sigma: np.ndarray,
                 jitter: float = DEFAULT_JITTER) -> float:
    """Spectral-fit objective wᴴ(Ψ⁻¹ ∘ Σ)w with Ψ = |Σ|."""
    psi_inv = pd_inverse(abs_entrywise(sigma), jitter)
    return quad_form(w, hadamard(psi_inv, sigma))


def frob_cost_full(w: np.ndarray, sigma: np.ndarray) -> float:
    """Least-squares objective -2 wᴴ(Ψ ∘ Σ)w; no inversion involved."""
    return -2.0 * quad_form(w, hadamard(abs_entrywise(sigma), sigma))


def kl_cost_block(
    w_past: np.ndarray,
    w_new: np.ndarray,
    blocks: BlockCov,
    factors: SchurFactors,
) -> float:
    """Block form of the spectral-fit objective.

    wᴴ(F⁻¹∘Σ_p)w  +  2Re(w̄ᴴ(A∘Σ_pn)w)  +  w̄ᴴ(D⁻¹∘Σ_n)w̄ ;
    the two cross terms of the expansion are conjugates, hence the 2Re.
    """
    w_past = np.asarray(w_past)
    w_new = np.asarray(w_new)
    past_term = quad_form(w_past, hadamard(factors.f_inv(), blocks.past))
    cross = hadamard(factors.a_mat, blocks.cross)
    cross_term = 2.0 * float(np.real(w_new.conj() @ (cross @ w_past)))
    new_term = quad_form(w_new, hadamard(factors.d_inv, blocks.new))
    return past_term + cross_term + new_term


def frob_cost_block(w_past: np.ndarray, w_new: np.ndarray, blocks: BlockCov) -> float:
    """Block form of the least-squares objective.

    -2 [ wᴴ(|Σ_p|∘Σ_p)w + 2Re(w̄ᴴ(|Σ_pn|∘Σ_pn)w) + w̄ᴴ(|Σ_n|∘Σ_n)w̄ ].
    """
    w_past = np.asarray(w_past)
    w_new = np.asarray(w_new)
    past_term = quad_form(w_past, hadamard(abs_entrywise(blocks.past), blocks.past))
    cross = hadamard(abs_entrywise(blocks.cross), blocks.cross)
    cross_term = 2.0 * float(np.real(w_new.conj() @ (cross @ w_past)))
    new_term = quad_form(w_new, hadamard(abs_entrywise(blocks.new), blocks.new))
    return -2.0 * (past_term + cross_term + new_term)
