"""Dense Hermitian kernel: Hadamard products, entrywise modulus,
positive-definite inversion, block partitioning, Schur-complement block
inverse and the largest eigenvalue. The Schur factors hold what a sequential
fit reads, A and D⁻¹; the past corner F⁻¹ is built only when asked for.

Everything here operates on plain numpy arrays and is pure: no function
mutates its inputs, so values can be shared freely between pixel workers.
pd_inverse, partition, schur_factors and largest_eigenvalue also take a
stack of matrices along leading axes; numpy's stacked factorizations and
products treat each matrix as if it were alone, so a stacked result is the
same, bit for bit, as the matrix's own.
"""
from __future__ import annotations

from dataclasses import dataclass, field

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


def _cholesky_inverse(a: np.ndarray) -> np.ndarray:
    """A⁻¹ = L⁻ᴴL⁻¹ from the Cholesky factor A = LLᴴ; raises LinAlgError
    unless every matrix of the stack is positive definite."""
    l_inv = np.linalg.inv(np.linalg.cholesky(a))
    return l_inv.conj().mT @ l_inv


def pd_inverse(a: np.ndarray, jitter: float = DEFAULT_JITTER) -> np.ndarray:
    """Invert a symmetric/Hermitian positive-definite matrix via Cholesky.

    If the factorization fails and jitter > 0, retries once after adding
    jitter*(trace/dim) to the diagonal; raises NotPositiveDefinite if that
    also fails. A stack fails, or is rescued, as a whole.
    """
    a = np.asarray(a)
    dim = a.shape[-1]
    try:
        return _cholesky_inverse(a)
    except np.linalg.LinAlgError:
        pass
    if jitter > 0:
        bump = jitter * (np.trace(a, axis1=-2, axis2=-1).real / dim)
        try:
            return _cholesky_inverse(
                a + np.multiply.outer(bump, np.eye(dim, dtype=a.dtype)))
        except np.linalg.LinAlgError:
            pass
    raise NotPositiveDefinite(
        f"{dim}x{dim} matrix is not positive definite (jitter={jitter})"
    )


@dataclass
class BlockCov:
    """Past/cross/new partition of an l x l matrix (or a stack of them).

    past is p x p, cross is k x p (new rows against past columns) and new is
    k x k, so the source matrix is [[past, crossᴴ], [cross, new]].
    """

    past: np.ndarray
    cross: np.ndarray
    new: np.ndarray

    @property
    def p(self) -> int:
        return self.past.shape[-1]

    @property
    def k(self) -> int:
        return self.new.shape[-1]


def partition(m: np.ndarray, p: int) -> BlockCov:
    """Split an l x l matrix into past (p x p), cross (k x p), new (k x k)."""
    m = np.asarray(m)
    l = m.shape[-1]
    if not 1 <= p < l:
        raise ValueError(f"past length p={p} must satisfy 1 <= p < l={l}")
    return BlockCov(past=m[..., :p, :p], cross=m[..., p:, :p],
                    new=m[..., p:, p:])


def reassemble(blocks: BlockCov) -> np.ndarray:
    """Inverse of partition: rebuild the full matrix from its blocks."""
    top = np.hstack([blocks.past, blocks.cross.conj().T])
    bottom = np.hstack([blocks.cross, blocks.new])
    return np.vstack([top, bottom])


@dataclass
class SchurFactors:
    """Blockwise inverse data of a real coherence matrix split at p.

    With psi = [[P, Qᵀ], [Q, N]] (P = past coherence, Q = cross, N = new),
    D = N - Q P⁻¹ Qᵀ and the full inverse assembles as [[F⁻¹, Aᵀ], [A, D⁻¹]]
    where A = -D⁻¹ Q P⁻¹ and F⁻¹ = P⁻¹ + P⁻¹ Qᵀ D⁻¹ Q P⁻¹.

    F⁻¹ only feeds the constant past term of the block objective, which a
    sequential fit leaves out; the cost oracles and traces that report the
    whole objective build it lazily on first use, and it is cached.
    """

    psi_p_inv: np.ndarray
    d_inv: np.ndarray
    a_mat: np.ndarray
    _cross: np.ndarray | None = None
    _f_inv: np.ndarray | None = field(default=None, repr=False)

    def f_inv(self) -> np.ndarray:
        if self._f_inv is None:
            if self._cross is None:
                raise ValueError("factors were built without the cross block")
            qp = self._cross @ self.psi_p_inv  # k x p
            self._f_inv = self.psi_p_inv + qp.mT @ self.d_inv @ qp
        return self._f_inv


def schur_factors(psi: np.ndarray, p: int,
                  jitter: float = DEFAULT_JITTER) -> SchurFactors:
    """Blockwise inverse of a real SPD coherence matrix split at column p."""
    psi = np.asarray(psi)
    blocks = partition(psi, p)
    psi_p_inv = pd_inverse(blocks.past, jitter)
    d = blocks.new - blocks.cross @ psi_p_inv @ blocks.cross.mT
    d = (d + d.mT) / 2
    d_inv = pd_inverse(d, jitter)
    a_mat = -d_inv @ blocks.cross @ psi_p_inv
    return SchurFactors(psi_p_inv=psi_p_inv, d_inv=d_inv, a_mat=a_mat,
                        _cross=blocks.cross)


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
