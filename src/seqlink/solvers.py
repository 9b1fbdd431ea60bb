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
converge in tens of plain MM steps and take neither; they share one kernel,
frob_mm, that runs a whole stack of problems (say, every pixel of a raster
row) at once. fit runs either objective, offline or sequential, on a stack
of plug-ins; the raster and the Monte Carlo bench solve through it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import quad_form
from .errors import SeqlinkError
from .linalg import (
    DEFAULT_JITTER,
    BlockCov,
    SchurFactors,
    abs_entrywise,
    hadamard,
    largest_eigenvalue,
    partition,
    pd_inverse,
    schur_factors,
)
from .plugins import unit_phasors

# the two covariance-fitting objectives: spectral fit and least squares
DISTANCES = ("kl", "frob")


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


# the torus minimizer of -Re(wᴴv) is v's entrywise unit phasor
phase_project = unit_phasors


def _project_keep(v: np.ndarray, previous: np.ndarray) -> np.ndarray:
    """phase_project, but zero coefficients keep the previous iterate (the
    monotone-descent rule of the module docstring)."""
    mod = np.abs(v)
    out = previous.copy()
    np.divide(v, mod, out=out, where=mod > 0)
    return out


def anchor_reference(w: np.ndarray) -> np.ndarray:
    """Rotate a torus vector so the first entry is exactly 1 (reference
    date has phase zero); pairwise phase differences are unchanged. A
    (..., l) stack is anchored vector by vector."""
    w = np.asarray(w, dtype=complex)
    if w.size < 1:
        raise ValueError("empty phase vector")
    out = w * np.conj(w[..., :1])
    out[..., 0] = 1.0
    return out


def _stopped(cost_now: float, cost_prev: float, tol: float) -> bool:
    return abs(cost_now - cost_prev) <= tol * max(1.0, abs(cost_now))


def _next_t(t: float) -> float:
    return (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0


def _mm_loop(w0, cost_of, next_of, cfg: MMConfig) -> SolveReport:
    """Iterate w⁺ = Φ(next_of(w)) with restarted momentum until the cost
    settles (see MMConfig).

    Each step first extrapolates y = Φ(w + β(w - w_prev)), with the FISTA
    sequence t⁺ = (1 + √(1 + 4t²))/2 from t = 1 and β = (t - 1)/t⁺, and
    applies the MM map at y. That candidate is accepted only if its cost is
    no higher than the cost at w; otherwise t restarts at 1 and the plain MM
    step from w is taken instead (Sun, Babu & Palomar, IEEE TSP 2017). So
    descent stays monotone, and since β = 0 at t = 1 the first step is always
    the plain one.
    """
    w = w_prev = w0
    cost = cost_of(w)
    trace = [cost]
    t = 1.0
    iterations = 0
    converged = False
    for _ in range(cfg.max_iters):
        candidate = None
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


@dataclass
class BatchReport:
    """frob_mm and fit output, one entry per problem of the stack.

    cost_trace, when asked for, is (steps + 1, B): row t holds each
    problem's cost after t steps, NaN once that problem has stopped.
    """

    phases: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    cost_trace: np.ndarray | None = None


def _stopped_each(gain, prev, tol: float):
    """Mask of the problems whose cost settled (_stopped on each), or None
    if none did. A single problem is tested on Python floats: the same rule
    without numpy's per-call overhead, which dominates one small solve.
    """
    if gain.size == 1:
        settled = _stopped(gain.item(), prev.item(), tol)
        return np.ones(1, dtype=bool) if settled else None
    done = np.abs(gain - prev) <= tol * np.maximum(1.0, np.abs(gain))
    return done if np.count_nonzero(done) else None


def frob_mm(h, b, const, cfg: MMConfig = MMConfig(),
            trace: bool = False) -> BatchReport:
    """Least-squares MM on a stack of B problems at once.

    Problem i minimizes const_i - Re(wᴴ(H_i w + 2 b_i)) over the torus,
    with h (B, k, k) Hermitian, b (B, k) and const (B,) (b and const may
    be anything that broadcasts, such as 0). The concave form is majorized
    by its linearization, so each step is w⁺ = Φ(H w + b), where a zero
    coefficient keeps the previous iterate. Every problem starts from cfg's
    start vector and stops under MMConfig's rule on its own cost; stopped
    problems leave the active stack, so each result is the same whatever
    else is in the batch.
    """
    count, dim = len(h), h.shape[-1]
    # bordered matrices [[H, b], [bᴴ, -const]]: with w̃ = (w, 1), the one
    # product H̃w̃ per step holds the next step's H w + b, and w̃ᴴH̃w̃ is the
    # negated cost
    mat = np.empty((count, dim + 1, dim + 1), dtype=complex)
    mat[:, :dim, :dim] = h
    mat[:, :dim, dim] = b
    mat[:, dim, :dim] = np.conj(b)
    mat[:, dim, dim] = np.negative(const)
    w = np.ones((count, dim + 1), dtype=complex)
    if cfg.init is not None:
        w[:, :dim] = cfg.start_vector(dim)
    phases = np.empty((count, dim), dtype=complex)
    iterations = np.full(count, cfg.max_iters)
    converged = np.zeros(count, dtype=bool)
    active = np.arange(count)
    u = np.matvec(mat, w)
    gain = np.vecdot(w, u).real
    costs = [-gain] if trace else None
    for step in range(1, cfg.max_iters + 1):
        v = u[:, :dim]
        mod = np.abs(v)
        np.divide(v, mod, out=w[:, :dim], where=mod > 0)
        u = np.matvec(mat, w)
        prev, gain = gain, np.vecdot(w, u).real
        if trace:
            row = -gain
            if active.size < count:  # NaN for problems that have stopped
                row = np.full(count, np.nan)
                row[active] = -gain
            costs.append(row)
        done = _stopped_each(gain, prev, cfg.tol)
        if done is not None:
            finished = active[done]
            phases[finished] = w[done, :dim]
            iterations[finished] = step
            converged[finished] = True
            keep = ~done
            active, mat, w, u, gain = (
                x[keep] for x in (active, mat, w, u, gain))
            if not active.size:
                break
    phases[active] = w[:, :dim]
    return BatchReport(phases, iterations, converged,
                       None if costs is None else np.array(costs))


def _single(batch: BatchReport) -> SolveReport:
    """The SolveReport of a one-problem frob_mm run."""
    iterations = int(batch.iterations[0])
    return SolveReport(
        phases=batch.phases[0],
        cost_trace=batch.cost_trace[:iterations + 1, 0],
        iterations=iterations,
        converged=bool(batch.converged[0]),
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
    )
    report.phases = anchor_reference(report.phases)
    return report


def solve_offline_frob(sigma: np.ndarray, cfg: MMConfig = MMConfig()) -> SolveReport:
    """Full-stack MM under the least-squares objective -2wᴴ(Ψ∘Σ)w.

    The concave quadratic form is majorized by its linearization, giving
    w⁺ = Φ(H w) with H = 2(Ψ∘Σ); this is frob_mm on one problem. Output is
    anchored to the first date.
    """
    sigma = np.asarray(sigma)
    h = 2.0 * hadamard(abs_entrywise(sigma), sigma)
    report = _single(frob_mm(h[None], 0.0, 0.0, cfg, trace=True))
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
    )


def frob_seq_terms(past, cross, new, w_past):
    """frob_mm's (h, b, const) for the sequential least-squares problem.

    The block objective -2[wᴴ(|Σ_p|∘Σ_p)w + 2Re(w̄ᴴ(|Σ_pn|∘Σ_pn)w)
    + w̄ᴴ(|Σ_n|∘Σ_n)w̄] in frob_mm's form: h = 2(|Σ_n|∘Σ_n),
    b = 2(|Σ_pn|∘Σ_pn) w_past and const = -2 wᴴ(|Σ_p|∘Σ_p)w. Blocks may
    carry a leading stack axis (with w_past (B, p)).
    """
    w_past = np.asarray(w_past, dtype=complex)
    h = 2.0 * hadamard(abs_entrywise(new), new)
    b = 2.0 * np.matvec(hadamard(abs_entrywise(cross), cross), w_past)
    past_form = np.matvec(hadamard(abs_entrywise(past), past), w_past)
    return h, b, -2.0 * np.vecdot(w_past, past_form).real


def solve_seq_frob(
    blocks: BlockCov,
    w_past: np.ndarray,
    cfg: MMConfig = MMConfig(),
) -> SolveReport:
    """Estimate the k new phases under the least-squares objective, holding
    the p past phases fixed.

    Iterates w̄⁺ = Φ( (|Σ_pn|∘Σ_pn) w_past + (|Σ_n|∘Σ_n) w̄ ) through
    frob_mm; no matrix inversion or eigenvalue is needed. The reported cost
    is the block objective including its constant past term. The output is
    not re-anchored.
    """
    h, b, const = frob_seq_terms(blocks.past, blocks.cross, blocks.new, w_past)
    return _single(frob_mm(h[None], b[None], np.atleast_1d(const), cfg,
                           trace=True))


def fit(sigma, cfg: MMConfig, distance: str, w_past=None) -> BatchReport:
    """The phases of a (B, l, l) stack of plug-ins under one objective.

    With w_past None the fit is offline: phases are (B, l), anchored to the
    first date. With w_past (B, p) it is sequential over the last k = l - p
    dates given those past phases: phases are (B, k), not re-anchored.
    Least-squares problems run together in one frob_mm call; spectral-fit
    problems run solve_offline_kl, or the Schur factors of |Σ| and
    solve_seq_kl, one by one. A problem whose solve raises a solver or
    linear-algebra error gets NaN phases, 0 iterations and converged False;
    the others are unaffected. May overwrite sigma.
    """
    if distance not in DISTANCES:
        raise ValueError(f"unknown distance {distance!r}; choose from {DISTANCES}")
    p = 0 if w_past is None else np.shape(w_past)[-1]
    if distance == "frob":
        if w_past is not None:
            return frob_mm(*frob_seq_terms(sigma[:, :p, :p], sigma[:, p:, :p],
                                           sigma[:, p:, p:], w_past), cfg)
        # H = 2(|Σ|∘Σ) as in solve_offline_frob, built in place
        sigma *= abs_entrywise(sigma)
        sigma *= 2.0
        batch = frob_mm(sigma, 0.0, 0.0, cfg)
        batch.phases = anchor_reference(batch.phases)
        return batch
    count = len(sigma)
    batch = BatchReport(np.full((count, sigma.shape[-1] - p), np.nan, dtype=complex),
                        np.zeros(count, dtype=int), np.zeros(count, dtype=bool))
    for i in range(count):
        try:
            if w_past is not None:
                blocks = partition(sigma[i], p)
                factors = schur_factors(abs_entrywise(sigma[i]), p,
                                        sigma_new=blocks.new)
                report = solve_seq_kl(blocks, factors, w_past[i], cfg)
            else:
                report = solve_offline_kl(sigma[i], cfg)
        except (SeqlinkError, np.linalg.LinAlgError):
            continue
        batch.phases[i] = report.phases
        batch.iterations[i] = report.iterations
        batch.converged[i] = report.converged
    return batch
