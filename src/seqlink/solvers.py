"""Majorization-minimization solvers on the unit-modulus torus.

Offline solvers estimate all l phases of a stack at once; sequential solvers
estimate only the k newest phases given p fixed past phases, touching only
k-sized (and k x p) objects per iteration.

Each surrogate is linear in w, so its torus minimizer is the entrywise phase
projection (a zero coefficient leaves that coordinate's value free; we keep
the previous iterate there, which preserves monotone descent and makes fully
decoupled coordinates honest fixed points).

The spectral-fit (KL) solvers shift by the exact largest eigenvalue and add
restarted momentum to the MM map (see _mm_loop), which cuts their iteration
counts from thousands to about a hundred at l=40. The offline KL solver also
starts from the EMI estimate, the phase of the smallest eigenvector of
Ψ⁻¹∘Σ (Ansari, De Zan & Bamler, IEEE TGRS 2018). The least-squares solvers
converge in tens of plain MM steps and take neither.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import quad_form
from .linalg import (
    DEFAULT_JITTER,
    BlockCov,
    SchurFactors,
    abs_entrywise,
    hadamard,
    largest_eigenvalue,
    pd_inverse,
)


@dataclass(frozen=True)
class MMConfig:
    """Iteration budget and stopping rule for the MM loops.

    Stops when |cost_t - cost_{t-1}| <= tol * max(1, |cost_t|), or at
    max_iters. init=None starts the offline spectral-fit solver from the EMI
    estimate and every other solver from the all-ones (zero phase) vector.
    """

    max_iters: int = 100
    tol: float = 1e-8
    init: np.ndarray | None = None

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.tol < 0:
            raise ValueError("tol must be >= 0")

    def start_vector(self, dim: int) -> np.ndarray:
        if self.init is None:
            return np.ones(dim, dtype=complex)
        w0 = np.asarray(self.init, dtype=complex)
        if w0.shape != (dim,):
            raise ValueError(f"init has shape {w0.shape}, expected ({dim},)")
        mod = np.abs(w0)
        if np.max(np.abs(mod - 1.0)) > 1e-12:
            raise ValueError("init entries must have unit modulus")
        return w0.copy()


@dataclass
class SolveReport:
    """Solver output: phases plus the per-iteration objective trace."""

    phases: np.ndarray
    cost_trace: np.ndarray
    iterations: int
    converged: bool


def phase_project(v: np.ndarray) -> np.ndarray:
    """Entrywise v/|v| (zero entries map to 1): the torus minimizer of
    -Re(wᴴv)."""
    v = np.asarray(v, dtype=complex)
    mod = np.abs(v)
    out = np.ones_like(v)
    np.divide(v, mod, out=out, where=mod > 0)
    return out


def _project_keep(v: np.ndarray, previous: np.ndarray) -> np.ndarray:
    """phase_project, but zero coefficients keep the previous iterate."""
    mod = np.abs(v)
    out = previous.copy()
    np.divide(v, mod, out=out, where=mod > 0)
    return out


def anchor_reference(w: np.ndarray) -> np.ndarray:
    """Rotate a torus vector so the first entry is exactly 1 (reference
    date has phase zero); pairwise phase differences are unchanged."""
    w = np.asarray(w, dtype=complex)
    if w.size < 1:
        raise ValueError("empty phase vector")
    out = w * np.conj(w[0])
    out[0] = 1.0
    return out


def _stopped(cost_now: float, cost_prev: float, tol: float) -> bool:
    return abs(cost_now - cost_prev) <= tol * max(1.0, abs(cost_now))


def _next_t(t: float) -> float:
    return (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0


def _mm_loop(w0, cost_of, next_of, cfg: MMConfig,
             momentum: bool = False) -> SolveReport:
    """Iterate w⁺ = Φ(next_of(w)) until the cost settles (see MMConfig).

    With momentum, each step first extrapolates y = Φ(w + β(w - w_prev)),
    with the FISTA sequence t⁺ = (1 + √(1 + 4t²))/2 from t = 1 and
    β = (t - 1)/t⁺, and applies the MM map at y. That candidate is accepted
    only if its cost is no higher than the cost at w; otherwise t restarts
    at 1 and the plain MM step from w is taken instead (Sun, Babu & Palomar,
    IEEE TSP 2017). So descent stays monotone, and since β = 0 at t = 1 the
    first step is always the plain one.
    """
    w = w_prev = w0
    cost = cost_of(w)
    trace = [cost]
    t = 1.0
    iterations = 0
    converged = False
    for _ in range(cfg.max_iters):
        candidate = None
        if momentum:
            t_next = _next_t(t)
            beta = (t - 1.0) / t_next
            t = t_next
            if beta > 0.0:
                y = _project_keep(w + beta * (w - w_prev), w)
                candidate = _project_keep(next_of(y), y)
                candidate_cost = cost_of(candidate)
                if candidate_cost > cost:
                    # restart: the plain step below is the step at t = 1
                    candidate = None
                    t = _next_t(1.0)
        if candidate is None:
            candidate = _project_keep(next_of(w), w)
            candidate_cost = cost_of(candidate)
        w_prev, w, cost = w, candidate, candidate_cost
        iterations += 1
        trace.append(cost)
        if _stopped(trace[-1], trace[-2], cfg.tol):
            converged = True
            break
    return SolveReport(
        phases=w,
        cost_trace=np.array(trace),
        iterations=iterations,
        converged=converged,
    )


def solve_offline_kl(
    sigma: np.ndarray,
    cfg: MMConfig = MMConfig(),
    jitter: float = DEFAULT_JITTER,
) -> SolveReport:
    """Full-stack MM under the spectral-fit objective wᴴ(Ψ⁻¹∘Σ)w.

    The convex quadratic form is majorized by its linearization shifted by
    the largest eigenvalue, giving the update w⁺ = Φ((λ_max I - H) w), run
    with restarted momentum. One eigendecomposition of H gives both λ_max
    and, unless cfg.init is set, the EMI start: the phase of the eigenvector
    of the smallest eigenvalue. Output is anchored to the first date.
    """
    sigma = np.asarray(sigma)
    psi_inv = pd_inverse(abs_entrywise(sigma), jitter)
    h = hadamard(psi_inv, sigma)
    vals, vecs = np.linalg.eigh(h)
    lam = float(vals[-1])
    if cfg.init is None:
        w0 = phase_project(vecs[:, 0])
    else:
        w0 = cfg.start_vector(sigma.shape[0])
    report = _mm_loop(
        w0,
        cost_of=lambda w: quad_form(w, h),
        next_of=lambda w: lam * w - h @ w,
        cfg=cfg,
        momentum=True,
    )
    report.phases = anchor_reference(report.phases)
    return report


def solve_offline_frob(sigma: np.ndarray, cfg: MMConfig = MMConfig()) -> SolveReport:
    """Full-stack MM under the least-squares objective -2wᴴ(Ψ∘Σ)w.

    The concave quadratic form is majorized by its linearization, giving
    w⁺ = Φ(H w) with H = 2(Ψ∘Σ). Output is anchored to the first date.
    """
    sigma = np.asarray(sigma)
    h = 2.0 * hadamard(abs_entrywise(sigma), sigma)
    w0 = cfg.start_vector(sigma.shape[0])
    report = _mm_loop(
        w0,
        cost_of=lambda w: -quad_form(w, h),
        next_of=lambda w: h @ w,
        cfg=cfg,
    )
    report.phases = anchor_reference(report.phases)
    return report


def solve_seq_kl(
    blocks: BlockCov,
    factors: SchurFactors,
    w_past: np.ndarray,
    cfg: MMConfig = MMConfig(),
) -> SolveReport:
    """Estimate the k new phases under the spectral-fit objective, holding
    the p past phases fixed.

    Iterates w̄⁺ = Φ( ((-A)∘Σ_pn) w_past - (M - λ_max I) w̄ ) with
    M = D⁻¹∘Σ_n, with restarted momentum; only k x k and k x p products
    appear per solve. The reported cost is the block objective including its
    constant past term (computed once), so traces are comparable with
    offline runs. The output is not re-anchored: the phase reference lives
    in w_past.
    """
    w_past = np.asarray(w_past, dtype=complex)
    m_mat = factors.m_mat
    if m_mat is None:
        m_mat = hadamard(factors.d_inv, blocks.new)
    lam = largest_eigenvalue(m_mat)
    n_vec = hadamard(-factors.a_mat, blocks.cross) @ w_past
    const_past = quad_form(w_past, hadamard(factors.f_inv(), blocks.past))

    def cost_of(w_new):
        # same terms as kl_cost_block, with the past term precomputed and
        # (A∘Σ_pn)w_past = -n_vec reused
        cross_term = -2.0 * float(np.real(w_new.conj() @ n_vec))
        return const_past + cross_term + quad_form(w_new, m_mat)

    w0 = cfg.start_vector(blocks.k)
    return _mm_loop(
        w0,
        cost_of=cost_of,
        next_of=lambda w: n_vec - (m_mat @ w - lam * w),
        cfg=cfg,
        momentum=True,
    )


def solve_seq_frob(
    blocks: BlockCov,
    w_past: np.ndarray,
    cfg: MMConfig = MMConfig(),
) -> SolveReport:
    """Estimate the k new phases under the least-squares objective, holding
    the p past phases fixed.

    Iterates w̄⁺ = Φ( (|Σ_pn|∘Σ_pn) w_past + (|Σ_n|∘Σ_n) w̄ ); no matrix
    inversion or eigenvalue is needed. The output is not re-anchored.
    """
    w_past = np.asarray(w_past, dtype=complex)
    cross_mat = hadamard(abs_entrywise(blocks.cross), blocks.cross)
    new_mat = hadamard(abs_entrywise(blocks.new), blocks.new)
    b_vec = cross_mat @ w_past
    const_past = quad_form(w_past, hadamard(abs_entrywise(blocks.past), blocks.past))

    def cost_of(w_new):
        cross_term = 2.0 * float(np.real(w_new.conj() @ b_vec))
        return -2.0 * (const_past + cross_term + quad_form(w_new, new_mat))

    w0 = cfg.start_vector(blocks.k)
    return _mm_loop(
        w0,
        cost_of=cost_of,
        next_of=lambda w: b_vec + new_mat @ w,
        cfg=cfg,
    )
