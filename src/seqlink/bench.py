"""Monte Carlo benchmarking: MSE-vs-sample-size curves for offline vs
sequential fitting, multi-block error propagation, and wall-clock timing of
one solve at large stack depths.

Every trial owns a seed derived from (master_seed, n, trial index), so curves
for different modes, distances, and plug-ins are paired draw-for-draw. Each
mode is a set of arms, and each arm a chain of date bounds, each fitted given
the fit before it, the first from an empty past (offline). Each trial
draws its samples once and builds one unregularized plug-in over all dates;
the plug-in of date bound d is plugins.regularize of its leading d x d block,
so a trial's past fit and its update read the same past block. One worker
fits each link of each chain as one solvers.fit call over all its trials; a
trial that fails in any arm is excluded from every arm, and one vectorized
scorer measures the kept trials' errors against date 0. Since no problem's
result depends on the rest of its stack, results do not depend on worker
count or scheduling order either.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from itertools import accumulate

import numpy as np

from .blas import single_blas_thread
from .errors import ConfigError
from .linalg import abs_entrywise, partition, schur_factors
from .plugins import PluginSpec, estimate, regularize, scm, window_estimates
from .raster import _run_rows
from .simulate import (SimulationConfig, ground_truth, matrix_sqrt,
                       sample_stack)
# the four solve_* functions are not called here; they stay importable
# from this module because perfbench/spans.py wraps them here
from .solvers import (  # noqa: F401
    MMConfig,
    _solve,
    check_distance,
    first_fitted_row,
    fit,
    solve_offline_frob,
    solve_offline_kl,
    solve_seq_frob,
    solve_seq_kl,
)

MODES = ("offline", "sequential", "multiblock")
MULTIBLOCK_ARMS = ("offline", "sequential", "chained")

CSV_HEADER = "mode,distance,estimator,regularizer,n,trials,excluded,mse,stderr"

# (window, width) of the row band whose plug-in timing_experiment times: a
# raster window's rows over a few of its columns, small enough that the
# spectral fit's l x l plug-ins stay well under 100 MB at l = 405
PLUGIN_BAND = (11, 4)

TIMING_SOLVER = MMConfig(max_iters=30, tol=0.0)  # timing_experiment's budget


@dataclass(frozen=True)
class ExperimentConfig:
    """One Monte Carlo experiment: scenario, plug-in, objective, and mode."""

    sim: SimulationConfig = SimulationConfig()
    plugin: PluginSpec = PluginSpec()
    distance: str = "kl"
    mode: str = "offline"
    sizes: tuple[int, ...] | None = None
    n_grid: tuple[int, ...] = (20, 30, 40, 50, 64, 80, 110)
    trials: int = 200
    master_seed: int = 0

    def __post_init__(self):
        check_distance(self.distance)
        if self.mode not in MODES:
            raise ConfigError("mode", f"unknown mode {self.mode!r}")
        if self.trials < 1:
            raise ConfigError("trials", "trials must be >= 1")
        if len(self.n_grid) == 0:
            raise ConfigError("n_grid", "n_grid must be non-empty")
        if any(n < 1 for n in self.n_grid):
            raise ConfigError("n_grid", "sample sizes must be >= 1")
        if self.mode == "multiblock":
            if self.sizes is None or len(self.sizes) < 2:
                raise ConfigError("sizes", "multiblock mode needs at least two block sizes")
            if any(s < 1 for s in self.sizes):
                raise ConfigError("sizes", "block sizes must be >= 1")
            if sum(self.sizes) != self.sim.l:
                raise ConfigError("sizes", f"block sizes {self.sizes} sum to "
                                           f"{sum(self.sizes)}, expected l = {self.sim.l}")
        elif self.sizes is not None:
            raise ConfigError("sizes", "sizes only applies to multiblock mode")


@dataclass(frozen=True)
class MseRow:
    """One aggregated CSV row of an MSE experiment. Not in the CSV:
    nonconverged counts its kept trials with a fit that hit the iteration
    budget, and iterations holds the iteration counts of their fits, every
    link of the arm's chain, trial by trial."""

    mode: str
    distance: str
    estimator: str
    regularizer: str
    n: int
    trials: int
    excluded: int
    mse: float
    stderr: float
    nonconverged: int = 0
    iterations: tuple[int, ...] = field(default=(), repr=False)

    def __post_init__(self):
        if self.mse < 0 or self.stderr < 0:
            raise ValueError("mse and stderr must be nonnegative")
        if self.excluded < 0 or self.excluded > self.trials:
            raise ValueError("excluded count out of range")

    def csv_line(self) -> str:
        return (f"{self.mode},{self.distance},{self.estimator},"
                f"{self.regularizer},{self.n},{self.trials},{self.excluded},"
                f"{self.mse!r},{self.stderr!r}")


def rows_to_csv(rows) -> str:
    return "\n".join([CSV_HEADER] + [row.csv_line() for row in rows]) + "\n"


def phase_diff_error(
    theta_hat: np.ndarray, theta_true: np.ndarray, i: int, j: int
) -> float:
    """Squared wrapped error of the phase difference between dates i and j.

    Both arguments are unit-modulus phasor vectors; the difference of
    differences is wrapped to (-pi, pi] before squaring, so the metric is
    invariant to a global phase rotation of either vector.
    """
    theta_hat = np.asarray(theta_hat)
    theta_true = np.asarray(theta_true)
    if theta_hat.shape != theta_true.shape:
        raise ValueError("estimate and truth must have matching length")
    dim = theta_hat.size
    if not (0 <= i < dim and 0 <= j < dim):
        raise IndexError(f"dates ({i}, {j}) out of range for {dim} phases")
    hat = theta_hat[i] * np.conj(theta_hat[j])
    true = theta_true[i] * np.conj(theta_true[j])
    return float(np.angle(hat * np.conj(true)) ** 2)


def _raw_plugins(cfg, sigma_true, root, sim, trials):
    """The (T, l, l) stack of the trials' unregularized plug-ins over all
    dates, which callers only read; trial t draws its samples from
    SeedSequence([master_seed, n, t]), given root = matrix_sqrt(sigma_true)."""
    raw = replace(cfg.plugin, regularizer="none")
    out = np.empty((len(trials), sim.l, sim.l), dtype=complex)
    for i, t in enumerate(trials):
        seed = np.random.SeedSequence([cfg.master_seed, sim.n, t])
        out[i] = estimate(sample_stack(sigma_true, sim, seed, root), raw)
    return out


def _fit(cfg, sigma, w_past):
    """Each row of a (T, d, d) plug-in stack fitted given its (T, p) past
    phases (see solvers.fit): its past phases then the new ones, or NaN where
    a solve failed or the past holds NaN; a (T,) mask of the rows whose fit
    ran without converging; and the (T,) iterations of each row's fit, 0
    where none ran. fit never writes sigma, so it reads sigma
    itself (say, a view of the trials' whole plug-ins) when every past is
    usable, and a copy of the usable rows otherwise."""
    p = w_past.shape[-1]
    out = np.full((len(sigma), sigma.shape[-1]), np.nan, dtype=complex)
    out[:, :p] = w_past
    stalled = np.zeros(len(sigma), dtype=bool)
    iterations = np.zeros(len(sigma), dtype=int)
    ok = ~np.isnan(w_past).any(axis=1)
    if ok.any():
        batch = fit(sigma if ok.all() else sigma[ok], MMConfig(),
                    cfg.distance, w_past[ok])
        out[ok, p:], stalled[ok] = batch.phases, ~batch.converged
        iterations[ok] = batch.iterations
    return out, stalled, iterations


def _arms(cfg: ExperimentConfig):
    """The mode's arms, each a chain of date bounds, and the first scored
    date: every date from it to the last is scored against date 0.

    Offline and sequential modes score the last date. Multiblock mode scores
    the final block, estimated three ways: "offline" fits all dates at once,
    "sequential" fits the final block given an offline fit of everything
    before it, and "chained" bootstraps from an offline fit of the first
    block, then adds the blocks one by one.
    """
    l = cfg.sim.l
    if cfg.mode == "offline":
        return {"offline": (l,)}, l - 1
    if cfg.mode == "sequential":
        # the past fit only ever sees the past dates' samples
        return {"sequential": (cfg.sim.p, l)}, l - 1
    p_last = l - cfg.sizes[-1]
    chains = ((l,), (p_last, l), tuple(accumulate(cfg.sizes)))
    return dict(zip(MULTIBLOCK_ARMS, chains)), p_last


def _scored_errors(theta_hat: np.ndarray, w_true: np.ndarray,
                   first: int) -> np.ndarray:
    """Per row of a (T, l) phase stack, the mean over dates first..l-1 of
    phase_diff_error against date 0.

    The complex products are spelled out in real arithmetic: numpy's complex
    multiply rounds differently in its vector loops, and which entries those
    reach depends on the stack's shape, so the errors would depend on how
    the trials are chunked over threads. The order is that of numpy's scalar
    multiply, which phase_diff_error uses.
    """
    def times_conj(ar, ai, br, bi):  # a·conj(b) as (real, imag)
        return ar * br + ai * bi, ai * br - ar * bi

    hat, hat0 = theta_hat[:, first:], theta_hat[:, :1]
    true, true0 = w_true[first:], w_true[:1]
    hat_re, hat_im = times_conj(hat.real, hat.imag, hat0.real, hat0.imag)
    true_re, true_im = times_conj(true.real, true.imag, true0.real, true0.imag)
    re, im = times_conj(hat_re, hat_im, true_re, true_im)
    return np.mean(np.arctan2(im, re) ** 2, axis=1)


def _arm_errors(cfg: ExperimentConfig, n: int, threads: int) -> dict:
    """Per arm of the mode, the per-trial errors at one sample size, the
    mask of kept trials with a fit in the arm's chain that did not converge,
    and the (trials, links) iterations of each kept trial's fits (0 for an
    excluded trial). All arms share each trial's draw, and a trial that
    fails in any arm is excluded (NaN) from every arm."""
    arms, first = _arms(cfg)
    sim = replace(cfg.sim, n=n)
    _, w_true, sigma_true = ground_truth(cfg.sim)
    # one factorization serves every trial's draw
    root = matrix_sqrt(sigma_true)
    errors = {arm: np.full(cfg.trials, np.nan) for arm in arms}
    stalled = {arm: np.zeros(cfg.trials, dtype=bool) for arm in arms}
    iterations = {arm: np.zeros((cfg.trials, len(chain)), dtype=int)
                  for arm, chain in arms.items()}
    # contiguous chunks of the trial indices, one per worker thread
    chunks = [chunk for chunk in np.array_split(np.arange(cfg.trials), threads)
              if chunk.size]

    def worker(index: int) -> None:
        trials = chunks[index]
        full = _raw_plugins(cfg, sigma_true, root, sim, trials)
        fits = {}
        for arm, chain in arms.items():
            phases, any_stalled = np.ones((len(trials), 0)), False  # offline
            links = []
            for bound in chain:
                sigma = full[:, :bound, :bound]
                phases, link_stalled, link_iterations = _fit(
                    cfg, regularize(sigma, cfg.plugin), phases)
                any_stalled = any_stalled | link_stalled
                links.append(link_iterations)
            fits[arm] = phases, any_stalled, np.stack(links, axis=1)
        kept = ~np.any([np.isnan(rows).any(axis=1)
                        for rows, _, _ in fits.values()], axis=0)
        for arm, (rows, any_stalled, link_iterations) in fits.items():
            errors[arm][trials[kept]] = _scored_errors(rows[kept], w_true,
                                                       first)
            stalled[arm][trials[kept]] = any_stalled[kept]
            iterations[arm][trials[kept]] = link_iterations[kept]

    _run_rows(len(chunks), worker, threads)
    return {arm: (errors[arm], stalled[arm], iterations[arm]) for arm in arms}


def trial_errors(cfg: ExperimentConfig, n: int, threads: int = 1) -> np.ndarray:
    """Per-trial squared errors at one sample size (NaN marks excluded
    trials); offline/sequential measure the first-to-last phase difference."""
    if cfg.mode == "multiblock":
        raise ValueError("use mc_mse_experiment for multiblock configs")
    ((errors, _, _),) = _arm_errors(cfg, n, threads).values()
    return errors


def _aggregate(cfg: ExperimentConfig, mode_label: str, n: int,
               errors: np.ndarray, nonconverged: int = 0,
               iterations: tuple[int, ...] = ()) -> MseRow:
    kept = errors[~np.isnan(errors)]
    excluded = int(cfg.trials - kept.size)
    if kept.size == 0:
        mse, stderr = float("nan"), 0.0
    else:
        mse = float(np.mean(kept))
        stderr = (float(np.std(kept, ddof=1) / np.sqrt(kept.size))
                  if kept.size > 1 else 0.0)
    estimator, regularizer = cfg.plugin.label()
    return MseRow(mode=mode_label, distance=cfg.distance, estimator=estimator,
                  regularizer=regularizer, n=n, trials=cfg.trials,
                  excluded=excluded, mse=mse, stderr=stderr,
                  nonconverged=nonconverged, iterations=iterations)


def mc_mse_experiment(cfg: ExperimentConfig, threads: int = 1) -> list[MseRow]:
    """MSE rows over cfg.n_grid (sorted ascending): one per sample size and
    arm of the mode (see _arms), the arms in order within each size."""
    return [_aggregate(cfg, arm, n, errors, int(stalled.sum()),
                       tuple(iterations[~np.isnan(errors)].ravel().tolist()))
            for n in sorted(cfg.n_grid)
            for arm, (errors, stalled, iterations)
            in _arm_errors(cfg, n, threads).items()]


def timing_experiment(
    p: int,
    k: int,
    distance: str = "kl",
    reps: int = 7,
) -> dict:
    """Median wall time (ms) of one sequential vs one offline solve.

    Identical plug-in input for both arms; both run a fixed iteration count
    so the comparison reflects per-solve work, not stopping behavior. The
    sequential arm (seq_ms) runs what fit runs once the partition and Schur
    factors exist (solvers._solve, the helper fit calls, with no trace),
    matching its operating regime where past-block quantities persist
    between acquisitions; seq_fit_ms times the same update as one fit call,
    which builds the partition and, for the spectral fit, the Schur factors
    of the full plug-in first. The plug-in is the SCM of n = 2l samples
    shrunk with β = 0.9, positive definite at any depth (the raw |SCM| is
    not, from about p = 300); its estimation is excluded from those three.
    plugin_ms times the plug-in an update pays for apart: the same
    estimator built by plugins.window_estimates over one simulated row band
    of PLUGIN_BAND (window, width) pixels, for the rows the update fit reads
    (the k new ones for the least-squares fit, all l for the spectral fit).
    Every run reads the same arrays, uncopied, since neither fit nor _solve
    writes its input. The warm-up and the timed runs hold
    blas.single_blas_thread, as the raster and bench workers do: unpinned,
    OpenBLAS's own threads make single small solves slow now and then.
    """
    if not (p >= k >= 1):
        raise ValueError("need p >= k >= 1")
    check_distance(distance)
    if reps < 5:
        raise ValueError("need at least 5 repetitions")
    l = p + k
    sim = SimulationConfig(l=l, p=p, k=k, n=2 * l)
    _, w_true, sigma_true = ground_truth(sim)
    stack = sample_stack(sigma_true, sim)
    spec = PluginSpec(regularizer="shrink")
    sigma_hat = regularize(scm(stack), spec)
    win, width = PLUGIN_BAND
    band = sample_stack(sigma_true, replace(sim, n=win * width)).T
    band = band.reshape(l, win, width)
    first = first_fitted_row(distance, p)
    w_past = w_true[None, :p]

    blocks = partition(sigma_hat[None], p)
    factors = (schur_factors(abs_entrywise(sigma_hat[None]), p)
               if distance == "kl" else None)

    def run_seq():
        return _solve(distance, blocks, factors, w_past, TIMING_SOLVER)

    def run_seq_fit():
        return fit(sigma_hat[None], TIMING_SOLVER, distance, w_past)

    def run_offline():
        return fit(sigma_hat[None], TIMING_SOLVER, distance)

    # the middle row's window covers the whole band
    def run_plugin():
        return window_estimates(band, win // 2, win, spec, first)

    def median_ms(fn):
        times = []
        for _ in range(reps):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return float(np.median(times) * 1000.0)

    with single_blas_thread():
        # warm caches (BLAS paths)
        for run in (run_seq, run_seq_fit, run_offline, run_plugin):
            run()
        return {"seq_ms": median_ms(run_seq),
                "offline_ms": median_ms(run_offline),
                "seq_fit_ms": median_ms(run_seq_fit),
                "plugin_ms": median_ms(run_plugin)}
