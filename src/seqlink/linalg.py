"""Dense Hermitian kernel: Hadamard products, entrywise modulus, Cholesky
with a jitter rescue, positive-definite inversion, block partitioning,
Schur-complement block inverse and the largest eigenvalue. The Schur factors
hold what a sequential fit reads, A and D⁻¹, from one solve with the past
block; the past corner F⁻¹ is built only when asked for.

Everything here operates on plain numpy arrays and is pure: no function
mutates its inputs, so values can be shared freely between pixel workers.
jittered_cholesky, pd_inverse, partition, schur_factors and
largest_eigenvalue also take a stack of matrices along leading axes; numpy's
stacked factorizations, solves and products treat each matrix as if it were
alone, so a stacked result is the same, bit for bit, as the matrix's own.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefinite

# Relative diagonal jitter used when a factorization needs rescuing.
DEFAULT_JITTER = 1e-9


def hadamard(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entrywise (Schur) product of two equally shaped matrices."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch for hadamard product: {a.shape} vs {b.shape}")
    return a * b


def abs_entrywise(sigma: np.ndarray) -> np.ndarray:
    """Entrywise modulus |Σ|, the real core / coherence part of a covariance."""
    return np.abs(np.asarray(sigma))


def hermitize(a: np.ndarray) -> np.ndarray:
    """Nearest Hermitian matrix (a + aᴴ)/2; makes conjugate symmetry exact."""
    a = np.asarray(a)
    return (a + a.conj().T) / 2


def jittered_cholesky(a: np.ndarray, jitter: float = DEFAULT_JITTER):
    """(L, a') with a' = LLᴴ: a itself when it is positive definite, else,
    if jitter > 0, a with jitter*(trace/dim) added to its diagonal.

    Raises NotPositiveDefinite if neither factors. A stack fails, or is
    rescued, as a whole.
    """
    a = np.asarray(a)
    dim = a.shape[-1]
    try:
        return np.linalg.cholesky(a), a
    except np.linalg.LinAlgError:
        pass
    if jitter > 0:
        bump = jitter * (np.trace(a, axis1=-2, axis2=-1).real / dim)
        a = a + np.multiply.outer(bump, np.eye(dim, dtype=a.dtype))
        try:
            return np.linalg.cholesky(a), a
        except np.linalg.LinAlgError:
            pass
    raise NotPositiveDefinite(
        f"{dim}x{dim} matrix is not positive definite (jitter={jitter})"
    )


def pd_inverse(a: np.ndarray, jitter: float = DEFAULT_JITTER) -> np.ndarray:
    """Invert a symmetric/Hermitian positive-definite matrix as L⁻ᴴL⁻¹ from
    its Cholesky factor, with jittered_cholesky's rescue."""
    l_inv = np.linalg.inv(jittered_cholesky(a, jitter)[0])
    return l_inv.conj().mT @ l_inv


@dataclass
class BlockCov:
    """Past/cross/new partition of an l x l matrix (or a stack of them).

    past is p x p, cross is k x p (new rows against past columns) and new is
    k x k, so the source matrix is [[past, crossᴴ], [cross, new]]. past is
    None when only the last k rows, [cross, new], were given.
    """

    past: np.ndarray
    cross: np.ndarray
    new: np.ndarray

    @property
    def p(self) -> int:
        return self.cross.shape[-1]

    @property
    def k(self) -> int:
        return self.new.shape[-1]


def partition(m: np.ndarray, p: int) -> BlockCov:
    """Split an l x l matrix into past (p x p), cross (k x p), new (k x k);
    at p = 0 the past is empty and new is all of m. Given only the matrix's
    last k = l - p rows, a k x l array, past is None."""
    m = np.asarray(m)
    rows, l = m.shape[-2:]
    if not 0 <= p < l:
        raise ValueError(f"past length p={p} must satisfy 0 <= p < l={l}")
    if rows == l:
        return BlockCov(past=m[..., :p, :p], cross=m[..., p:, :p],
                        new=m[..., p:, p:])
    if rows != l - p:
        raise ValueError(f"a {rows} x {l} array is neither a square matrix "
                         f"nor its last {l - p} rows")
    return BlockCov(past=None, cross=m[..., :p], new=m[..., p:])


def reassemble(blocks: BlockCov) -> np.ndarray:
    """Inverse of partition: rebuild the full matrix from its blocks."""
    top = np.hstack([blocks.past, blocks.cross.conj().T])
    bottom = np.hstack([blocks.cross, blocks.new])
    return np.vstack([top, bottom])


@dataclass
class SchurFactors:
    """Blockwise inverse data of a real coherence matrix split at p.

    With psi = [[P, Qᵀ], [Q, N]] (P = past coherence, Q = cross, N = new)
    and X = P⁻¹Qᵀ, D = N - QX and the full inverse assembles as
    [[F⁻¹, Aᵀ], [A, D⁻¹]] where A = -D⁻¹Xᵀ and F⁻¹ = P⁻¹ + XD⁻¹Xᵀ.

    A sequential fit reads only A and D⁻¹. F⁻¹ feeds the constant past term
    of the block objective, which the fit leaves out; the cost oracles and
    traces that report the whole objective build it on each f_inv call, from
    the past block (jittered, if it was rescued) and X.
    """

    d_inv: np.ndarray
    a_mat: np.ndarray
    past: np.ndarray
    x: np.ndarray

    def f_inv(self) -> np.ndarray:
        return pd_inverse(self.past, 0.0) + self.x @ self.d_inv @ self.x.mT


def schur_factors(psi: np.ndarray, p: int,
                  jitter: float = DEFAULT_JITTER) -> SchurFactors:
    """Blockwise inverse of a real SPD coherence matrix split at column p,
    from one Cholesky check of the past block and one solve with it; no
    p x p inverse is formed. At p = 0, d_inv is pd_inverse(psi), bit for bit
    when psi is exactly symmetric."""
    blocks = partition(np.asarray(psi), p)
    past = jittered_cholesky(blocks.past, jitter)[1]
    x = np.linalg.solve(past, blocks.cross.mT)
    d = blocks.new - blocks.cross @ x
    d += d.mT  # in place: at p = 0, d is as large as psi
    d /= 2
    d_inv = pd_inverse(d, jitter)
    return SchurFactors(d_inv=d_inv, a_mat=-d_inv @ x.mT, past=past, x=x)


def assemble_block_inverse(factors: SchurFactors) -> np.ndarray:
    """Full inverse [[F⁻¹, Aᵀ], [A, D⁻¹]] reconstructed from the factors."""
    top = np.hstack([factors.f_inv(), factors.a_mat.T])
    bottom = np.hstack([factors.a_mat, factors.d_inv])
    return np.vstack([top, bottom])


def largest_eigenvalue(h: np.ndarray):
    """Largest (algebraic) eigenvalue of a Hermitian matrix: a float, or an
    array of one per matrix of a stack.

    A dense eigvalsh: the matrices here are at most a few hundred on a side,
    where it is exact to rounding and costs less than iterating. Returns 0.0
    for a zero matrix; raises ValueError for an empty one.
    """
    h = np.asarray(h)
    if h.shape[-1] == 0:
        raise ValueError("empty matrix")
    top = np.linalg.eigvalsh(h)[..., -1]
    return float(top) if h.ndim == 2 else top
