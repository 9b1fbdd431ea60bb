"""Majorization-minimization solvers on the unit-modulus torus.

A fit estimates the k newest phases of a stack given p fixed past phases,
through the Schur complement of the coherence, touching only k-sized (and
k x p) objects per iteration. An offline fit is the same fit with an empty
past (p = 0), where that complement is all of |Σ|. The past block enters the
objective only as a constant, which the fit leaves out, so a spectral-fit
update never forms F⁻¹ and a least-squares one never reads the past block;
only solve_seq_* add it back, to their cost traces.

Both objectives are Hermitian quadratics on the torus, and one kernel,
torus_mm, minimizes a whole stack of them at once (say, every pixel of a
raster row, or every trial of a Monte Carlo stage). Each step minimizes a
linear majorizer, whose torus minimizer is the entrywise phase projection (a
zero coefficient leaves that coordinate's value free; we keep the previous
iterate there, which preserves monotone descent and makes fully decoupled
coordinates honest fixed points).

The least-squares form converges in tens of plain MM steps. The spectral-fit
(KL) form shifts its steps by the exact largest eigenvalue and adds
restarted momentum, which cuts its iteration counts from thousands to
about 65 at l=40. With an empty past it starts from the EMI estimate, the
phase of the smallest eigenvector of Ψ⁻¹∘Σ (Ansari, De Zan & Bamler, IEEE
TGRS 2018); that start and anchoring to the first date are all an empty past
changes. fit runs either objective on a stack of plug-ins; the raster and
the Monte Carlo bench solve through it, and the solve_* functions are its
one-problem forms, with cost traces.

Every fit stops once its cost change reaches the rounding scale of its own
terms: the sum S of the moduli of its bordered matrix, which the term
builders return beside it (see MMConfig).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import quad_form
from .errors import ConfigError, SeqlinkError
from .linalg import (
    DEFAULT_JITTER,
    BlockCov,
    SchurFactors,
    abs_entrywise,
    hadamard,
    largest_eigenvalue,
    partition,
    pd_inverse,  # noqa: F401  (not called here; perfbench/spans.py wraps it)
    schur_factors,
)
from .plugins import unit_phasors

# the two covariance-fitting objectives: spectral fit and least squares
DISTANCES = ("kl", "frob")


def check_distance(distance: str) -> None:
    """Raise ConfigError unless distance is one of DISTANCES."""
    if distance not in DISTANCES:
        raise ConfigError("distance",
                          f"unknown distance {distance!r}; choose from {DISTANCES}")


def first_fitted_row(distance: str, p: int) -> int:
    """The first plug-in row that a fit given p past phases reads: p for the
    least-squares fit, whose terms read only the new rows, and 0 for the
    spectral fit, which reads the past block through its Schur factors."""
    return p if distance == "frob" else 0


@dataclass(frozen=True)
class MMConfig:
    """Iteration budget and stopping rule for the MM loops.

    Stops when |cost_t - cost_{t-1}| <= tol * max(1, S), or at max_iters;
    cost_t leaves out a sequential problem's constant past term. S is the
    sum of the moduli of the problem's bordered matrix [[H, b], [bᴴ, 0]]
    (see torus_mm), Σ|H_ij| + 2Σ|b_i|. The cost is a sum of those terms
    times unit-modulus factors, so S bounds |cost| at every torus point,
    and its rounding error is of order (k+1)·ε·S (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, §3.1). A rule relative to
    |cost| asks an offline spectral fit at forty dates, whose cost is about
    40 against an S of about 1.3e4, for changes some 300 times below what
    the arithmetic resolves; a least-squares fit's |cost| is about S. Any
    tol stops no later than the same tol relative to max(1, |cost_t|), and
    tol = 0 runs to a literal fixed point. init=None starts a spectral fit
    with an empty past from the EMI estimate and every other fit from the
    all-ones (zero phase) vector.

    The default budget, which `solve` and the bench fit with, is headroom:
    an offline spectral fit takes about 65 iterations on average, and at
    most about 90, at rho = 0.98 and forty dates, and results should
    measure the estimator, not early stopping.
    """

    max_iters: int = 10000
    tol: float = 1e-14
    init: np.ndarray | None = None

    def __post_init__(self):
        if self.max_iters < 1:
            raise ConfigError("max_iters", "max_iters must be >= 1")
        if self.tol < 0:
            raise ConfigError("tol", "tol must be >= 0")

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


def _next_t(t):
    return (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0


# the momentum sequence after a plain step from t = 1, as after a restart
_T_PLAIN = _next_t(1.0)


@dataclass
class BatchReport:
    """torus_mm and fit output, one entry per problem of the stack.

    cost_trace, when asked for, is (steps + 1, B): row t holds each
    problem's cost after t steps, NaN once that problem has stopped.
    """

    phases: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    cost_trace: np.ndarray | None = None


def _stopped_each(gain, prev, bound, live):
    """Mask of the live problems whose cost changed by at most their bound,
    tol * max(1, S) under MMConfig's rule, or None if none did."""
    done = np.abs(gain - prev) <= bound
    done &= live
    return done if np.count_nonzero(done) else None


def _shifted_step(mat, shift, w, u):
    """The step from each bordered iterate w̃ = (w, 1), given u = H̃w̃:
    Φ(s w + H w + b), keeping w on zero coefficients; returns the new
    bordered iterate, its product and its gain (the negated cost)."""
    dim = w.shape[-1] - 1
    nxt = w.copy()
    v = shift * w[:, :dim] + u[:, :dim]
    mod = np.abs(v)
    np.divide(v, mod, out=nxt[:, :dim], where=mod > 0)
    product = np.matvec(mat, nxt)
    return nxt, product, np.vecdot(nxt, product).real


def torus_mm(mat, cfg: MMConfig = MMConfig(), trace: bool = False,
             *, scale, shift=None, w0=None) -> BatchReport:
    """MM on a stack of B problems at once.

    Problem i minimizes -Re(wᴴ(H_i w + 2 b_i)) over the torus, given as the
    bordered matrix mat_i = [[H_i, b_i], [b_iᴴ, 0]] of a (B, k+1, k+1)
    stack, with H_i Hermitian: with w̃ = (w, 1), the one product mat w̃ per
    iterate holds the next step's H w + b, and w̃ᴴ mat w̃ is the negated
    cost. frob_seq_terms and kl_seq_terms build such stacks and, with them,
    scale (B,): each problem's S = Σ|mat_i| of MMConfig's rule. mat is
    read, never written. Each step minimizes the linearization at the
    iterate, w⁺ = Φ(s w + H w + b), which majorizes the cost whenever
    sI + H is positive semidefinite; a zero coefficient keeps the previous
    iterate.

    shift None is the least-squares form (H positive semidefinite, s = 0),
    run as plain steps. With shift (B,), s_i = shift_i, and each step first
    extrapolates y = Φ(w + β(w - w_prev)), with the FISTA sequence
    t⁺ = (1 + √(1 + 4t²))/2 from t = 1 and β = (t - 1)/t⁺, and steps from
    y. That candidate is kept only if its cost is no higher than the cost
    at w; otherwise t restarts at 1 and the plain step from w is taken
    instead (Sun, Babu & Palomar, IEEE TSP 2017). So descent stays
    monotone, and since β = 0 at t = 1 the first step is always the plain
    one.

    Problems start from w0 (B, k) when given, else from cfg's start vector.
    Each stops under MMConfig's rule once its cost changes by at most its
    bound tol * max(1, S), formed before the first step, and its result is
    recorded at its stopping step. Stopped problems stay in the stack,
    masked, until at least half of the rows it carries have stopped; then
    the stack is compacted to the running ones, so it is copied a few times
    per solve rather than at every step where a problem stops. Each result
    is the same whatever else is in the batch.
    """
    count, dim = len(mat), mat.shape[-1] - 1
    w = np.ones((count, dim + 1), dtype=complex)
    if w0 is not None:
        w[:, :dim] = w0
    elif cfg.init is not None:
        w[:, :dim] = cfg.start_vector(dim)
    phases = np.empty((count, dim), dtype=complex)
    iterations = np.full(count, cfg.max_iters)
    converged = np.zeros(count, dtype=bool)
    active = np.arange(count)  # the problem each stack row holds
    live = np.ones(count, dtype=bool)  # stack rows not yet stopped
    bound = cfg.tol * np.maximum(1.0, scale)
    u = np.matvec(mat, w)
    gain = np.vecdot(w, u).real
    costs = [-gain] if trace else None
    if shift is not None:
        shift = np.asarray(shift, dtype=float)[:, None]
    for step in range(1, cfg.max_iters + 1):
        prev = gain
        if shift is None:
            v = u[:, :dim]
            mod = np.abs(v)
            np.divide(v, mod, out=w[:, :dim], where=mod > 0)
            u = np.matvec(mat, w)
            gain = np.vecdot(w, u).real
        elif step == 1:
            w_prev = w
            w, u, gain = _shifted_step(mat, shift, w, u)
            t = np.full(len(active), _T_PLAIN)
        else:
            t_next = _next_t(t)
            beta = ((t - 1.0) / t_next)[:, None]
            t = t_next
            y = w.copy()
            z = w[:, :dim] + beta * (w[:, :dim] - w_prev[:, :dim])
            mod = np.abs(z)
            np.divide(z, mod, out=y[:, :dim], where=mod > 0)
            nxt, product, nxt_gain = _shifted_step(mat, shift, y,
                                                   np.matvec(mat, y))
            rise = (nxt_gain < gain) & live
            if rise.any():
                # restart: the plain step from w is the step at t = 1
                nxt[rise], product[rise], nxt_gain[rise] = _shifted_step(
                    mat[rise], shift[rise], w[rise], u[rise])
                t[rise] = _T_PLAIN
            w_prev, w, u, gain = w, nxt, product, nxt_gain
        if trace:
            row = np.full(count, np.nan)  # NaN for problems that have stopped
            row[active[live]] = -gain[live]
            costs.append(row)
        done = _stopped_each(gain, prev, bound, live)
        if done is not None:
            finished = active[done]
            phases[finished] = w[done, :dim]
            iterations[finished] = step
            converged[finished] = True
            live &= ~done
            if 2 * np.count_nonzero(live) <= live.size:
                active, mat, w, u, gain, bound = (
                    x[live] for x in (active, mat, w, u, gain, bound))
                if shift is not None:
                    shift, t, w_prev = shift[live], t[live], w_prev[live]
                live = live[live]
                if not active.size:
                    break
    phases[active[live]] = w[live, :dim]
    return BatchReport(phases, iterations, converged,
                       None if costs is None else np.array(costs))


def _single(batch: BatchReport, const: float = 0.0) -> SolveReport:
    """The SolveReport of a one-problem torus_mm run, with const added to
    its cost trace."""
    iterations = int(batch.iterations[0])
    return SolveReport(
        phases=batch.phases[0],
        cost_trace=batch.cost_trace[:iterations + 1, 0] + const,
        iterations=iterations,
        converged=bool(batch.converged[0]),
    )


def _one(parts):
    """A copy of a BlockCov or SchurFactors with a stack axis of one."""
    return type(parts)(**{k: np.array(x)[None] for k, x in vars(parts).items()})


def _bordered(b) -> np.ndarray:
    """torus_mm's stack for a (..., k) b, with b already written into its
    border; the caller writes H into its top-left block."""
    k = b.shape[-1]
    mat = np.empty(b.shape[:-1] + (k + 1, k + 1), dtype=complex)
    mat[..., :k, k] = b
    mat[..., k, :k] = np.conj(b)
    mat[..., k, k] = 0.0
    return mat


def kl_seq_terms(blocks: BlockCov, factors: SchurFactors, w_past):
    """torus_mm's bordered stack for the sequential spectral-fit problem,
    which is torus_mm(mat) shifted by λ_max(M), M itself, and each
    problem's scale S = Σ|M_ij| + 2Σ|n_i|.

    The block objective w_pastᴴ(F⁻¹∘Σ_p)w_past + 2Re(w̄ᴴ(A∘Σ_pn)w_past)
    + w̄ᴴ(D⁻¹∘Σ_n)w̄ is c - 2Re(w̄ᴴn) + w̄ᴴMw̄ with M = D⁻¹∘Σ_n and
    n = ((-A)∘Σ_pn) w_past, so mat holds H = -M and b = n. The past term c
    does not depend on w̄, so it is left out: only k x k and k x p objects
    enter the fit, and F⁻¹ is never formed. With an empty past (p = 0),
    M = |Σ|⁻¹∘Σ and n = 0. Blocks and factors may carry a leading stack
    axis (with w_past (B, p)); neither is written.
    """
    m_mat = hadamard(factors.d_inv, blocks.new)
    n_vec = np.matvec(hadamard(-factors.a_mat, blocks.cross), w_past)
    mat = _bordered(n_vec)
    np.negative(m_mat, out=mat[..., :-1, :-1])
    scale = (np.abs(m_mat).sum(axis=(-2, -1))
             + 2.0 * np.abs(n_vec).sum(axis=-1))
    return mat, m_mat, scale


def frob_seq_terms(cross, new, w_past):
    """torus_mm's bordered stack for the sequential least-squares problem,
    and each problem's scale S = 2Σ|Σ_n,ij|² + 2Σ|b_i|.

    The block objective -2[wᴴ(|Σ_p|∘Σ_p)w + 2Re(w̄ᴴ(|Σ_pn|∘Σ_pn)w)
    + w̄ᴴ(|Σ_n|∘Σ_n)w̄] is a constant past term plus torus_mm's form with
    H = 2(|Σ_n|∘Σ_n) and b = 2(|Σ_pn|∘Σ_pn) w_past; the past block Σ_p
    enters only the constant, so it is not read. H is built straight into
    the stack's top-left block, so cross and new are not written. With an
    empty past (p = 0), H = 2(|Σ|∘Σ) and b = 0. Blocks may carry a leading
    stack axis (with w_past (B, p)). S sums |H_ij| = 2|Σ_n,ij|² from the
    moduli H is built from, as one dot product per problem.
    """
    w_past = np.asarray(w_past, dtype=complex)
    b = 2.0 * np.matvec(hadamard(abs_entrywise(cross), cross), w_past)
    mat = _bordered(b)
    h = mat[..., :-1, :-1]
    mod = abs_entrywise(new)
    np.multiply(new, mod, out=h)
    h *= 2.0
    mod = mod.reshape(mod.shape[:-2] + (-1,))
    scale = 2.0 * (np.vecdot(mod, mod) + np.abs(b).sum(axis=-1))
    return mat, scale


def _solve(distance, blocks: BlockCov, factors, w_past, cfg,
           trace=False) -> BatchReport:
    """torus_mm on one objective over a stack split at p >= 0: what fit runs
    once the partition and, for the spectral fit, the Schur factors exist.
    Neither blocks nor factors are written.

    The spectral fit is torus_mm on H = -M and b = n, shifted by λ_max(M)
    (see kl_seq_terms). With an empty past, one stacked eigendecomposition
    of M = Ψ⁻¹∘Σ gives both the shift and, unless cfg.init is set, the EMI
    start: the phase of the eigenvector of the smallest eigenvalue; and,
    with no past to hold the phase reference, the phases are anchored to
    the first date.
    """
    if distance == "frob":
        mat, scale = frob_seq_terms(blocks.cross, blocks.new, w_past)
        shift = w0 = None
    else:
        mat, m_mat, scale = kl_seq_terms(blocks, factors, w_past)
        del factors  # lets D⁻¹ and |Σ| go before the MM if no caller keeps them
        if blocks.p:
            shift, w0 = largest_eigenvalue(m_mat), None
        else:
            vals, vecs = np.linalg.eigh(m_mat)
            shift = vals[:, -1]
            w0 = phase_project(vecs[..., 0]) if cfg.init is None else None
            del vecs
        del m_mat  # mat holds -M: M and its eigenvectors go before the MM
    batch = torus_mm(mat, cfg, trace, scale=scale, shift=shift, w0=w0)
    if not blocks.p:
        batch.phases = anchor_reference(batch.phases)
    return batch


def _fit(sigma, cfg, distance, w_past, jitter=DEFAULT_JITTER,
         trace=False) -> BatchReport:
    """_solve over a (B, l, l) stack, or a least-squares fit over its
    (B, k, l) last rows, given (B, p) past phases; raises a solver or
    linear-algebra error if a spectral fit's |Σ| factors fail."""
    blocks = partition(sigma, w_past.shape[-1])
    return _solve(distance, blocks,
                  schur_factors(abs_entrywise(sigma), blocks.p, jitter)
                  if distance == "kl" else None, w_past, cfg, trace)


def solve_offline_kl(sigma: np.ndarray, cfg: MMConfig = MMConfig()) -> SolveReport:
    """Full-stack MM under the spectral-fit objective wᴴ(Ψ⁻¹∘Σ)w, the
    sequential fit from an empty past: w⁺ = Φ((λ_max I - H) w) with
    restarted momentum, from the EMI start unless cfg.init is set (see
    _solve). Output is anchored to the first date.
    """
    return _single(_fit(np.asarray(sigma)[None], cfg, "kl", np.ones((1, 0)),
                        trace=True))


def solve_offline_frob(sigma: np.ndarray, cfg: MMConfig = MMConfig()) -> SolveReport:
    """Full-stack MM under the least-squares objective -2wᴴ(Ψ∘Σ)w, the
    sequential fit from an empty past: w⁺ = Φ(H w) with H = 2(Ψ∘Σ). Output
    is anchored to the first date; sigma is not modified.
    """
    return _single(_fit(np.asarray(sigma)[None], cfg, "frob", np.ones((1, 0)),
                        trace=True))


def solve_seq_kl(
    blocks: BlockCov,
    factors: SchurFactors,
    w_past: np.ndarray,
    cfg: MMConfig = MMConfig(),
) -> SolveReport:
    """Estimate the k new phases under the spectral-fit objective, holding
    the p past phases fixed.

    Iterates w̄⁺ = Φ( ((-A)∘Σ_pn) w_past - (M - λ_max I) w̄ ) with
    M = D⁻¹∘Σ_n, with restarted momentum (see kl_seq_terms and torus_mm);
    it stops at the same step as fit. The reported cost adds the constant
    past term w_pastᴴ(F⁻¹∘Σ_p)w_past, so it is the block objective and
    traces are comparable with offline runs. The output is not re-anchored
    unless the past is empty: the phase reference lives in w_past.
    """
    const = quad_form(w_past, hadamard(factors.f_inv(), blocks.past))
    return _single(_solve("kl", _one(blocks), _one(factors),
                          np.asarray(w_past)[None], cfg, trace=True), const)


def solve_seq_frob(
    blocks: BlockCov,
    w_past: np.ndarray,
    cfg: MMConfig = MMConfig(),
) -> SolveReport:
    """Estimate the k new phases under the least-squares objective, holding
    the p past phases fixed.

    Iterates w̄⁺ = Φ( (|Σ_pn|∘Σ_pn) w_past + (|Σ_n|∘Σ_n) w̄ ) through
    torus_mm, stopping at the same step as fit; no matrix inversion or
    eigenvalue is needed. The reported cost adds the constant past term
    -2 w_pastᴴ(|Σ_p|∘Σ_p)w_past, so it is the block objective. The output
    is not re-anchored unless the past is empty; blocks are not modified.
    """
    const = -2.0 * quad_form(
        w_past, hadamard(abs_entrywise(blocks.past), blocks.past))
    return _single(_solve("frob", _one(blocks), None,
                          np.asarray(w_past)[None], cfg, trace=True), const)


def fit(sigma, cfg: MMConfig, distance: str, w_past=None) -> BatchReport:
    """The (B, k) phases of the last k = l - p dates of a (B, l, l) stack of
    plug-ins under one objective, given (B, p) past phases; None is the
    empty past, p = 0, an offline fit. Either objective runs as one torus_mm
    call over the whole stack (see _solve).

    The least-squares terms read only the plug-ins' last k rows, so a
    least-squares fit also takes just those, a (B, k, l) stack (as a
    Frobenius raster update builds them). A spectral fit reads the past
    block through its Schur factors and raises ValueError if given rows.

    A problem whose past holds a non-finite phase fails at entry, before
    any factor or step. numpy's stacked Cholesky fails for the whole stack
    when one |Σ| is not positive definite, so such a spectral-fit stack is
    fit again in halves, down to single problems with jittered_cholesky's
    rescue: only failing problems are fit alone, and a problem that still
    raises a solver or linear-algebra error fails too. A failed problem
    gets NaN phases, 0 iterations and converged False; the others are
    unaffected, since no problem's result depends on the rest of its stack.
    sigma is read, never written, so it may be a view (say, of a larger
    stack) or read-only.
    """
    check_distance(distance)
    if distance == "kl" and sigma.shape[-2] != sigma.shape[-1]:
        raise ValueError(f"a spectral fit needs whole l x l plug-ins, got "
                         f"{sigma.shape[-2]} x {sigma.shape[-1]} rows")
    w_past = np.asarray(np.ones((len(sigma), 0)) if w_past is None else w_past,
                        dtype=complex)
    lost = ~np.isfinite(w_past).all(axis=1)
    if lost.any():
        parts = [] if lost.all() else [~lost]
    else:
        try:
            # a rescue would jitter every problem of a stack, so only a
            # single problem gets one. Only the spectral fit inverts
            # anything, so only it can raise
            return _fit(sigma, cfg, distance, w_past,
                        jitter=DEFAULT_JITTER if len(sigma) == 1 else 0.0)
        except (SeqlinkError, np.linalg.LinAlgError):
            half = len(sigma) // 2
            parts = [slice(half), slice(half, None)] if half else []
    count = len(sigma)
    out = BatchReport(
        np.full((count, sigma.shape[-1] - w_past.shape[-1]), np.nan,
                dtype=complex),
        np.zeros(count, dtype=int), np.zeros(count, dtype=bool))
    for part in parts:
        batch = fit(sigma[part], cfg, distance, w_past[part])
        out.phases[part] = batch.phases
        out.iterations[part] = batch.iterations
        out.converged[part] = batch.converged
    return out
