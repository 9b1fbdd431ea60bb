"""Monte Carlo benchmarking: MSE-vs-sample-size curves for offline vs
sequential fitting, multi-block error propagation, and wall-clock timing of
one solve at large stack depths.

Every trial owns a seed derived from (master_seed, n, trial index), so curves
for different modes, distances, and plug-ins are paired draw-for-draw and
results do not depend on worker count or scheduling order.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import SeqlinkError
from .linalg import abs_entrywise, partition, schur_factors
from .plugins import PluginSpec, estimate, scm
from .raster import _run_rows
from .simulate import SimulationConfig, ground_truth, sample_stack
# solve_offline_frob and solve_offline_kl are not called here; they stay
# importable from this module because perfbench/spans.py wraps them here
from .solvers import (  # noqa: F401
    DISTANCES,
    MMConfig,
    fit,
    solve_offline_frob,
    solve_offline_kl,
    solve_seq_frob,
    solve_seq_kl,
)

MODES = ("offline", "sequential", "multiblock")
MULTIBLOCK_ARMS = ("offline", "sequential", "chained")

CSV_HEADER = "mode,distance,estimator,regularizer,n,trials,excluded,mse,stderr"

# far more iteration budget than the interactive default: Monte Carlo
# aggregates should measure estimator error, not early stopping. The
# spectral-fit solvers take about a hundred iterations at rho = 0.98 and
# forty dates; the budget is headroom for badly conditioned coherences
BENCH_SOLVER = MMConfig(max_iters=10000, tol=1e-14)


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
    inject_truth: bool = False
    solver: MMConfig = BENCH_SOLVER

    def __post_init__(self):
        if self.distance not in DISTANCES:
            raise ValueError(f"unknown distance {self.distance!r}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if len(self.n_grid) == 0:
            raise ValueError("n_grid must be non-empty")
        if any(n < 1 for n in self.n_grid):
            raise ValueError("sample sizes must be >= 1")
        if self.mode == "multiblock":
            if self.sizes is None or len(self.sizes) < 2:
                raise ValueError("multiblock mode needs at least two block sizes")
            if any(s < 1 for s in self.sizes):
                raise ValueError("block sizes must be >= 1")
            if sum(self.sizes) != self.sim.l:
                raise ValueError(
                    f"block sizes {self.sizes} sum to {sum(self.sizes)}, "
                    f"expected l = {self.sim.l}")
        elif self.sizes is not None:
            raise ValueError("sizes only applies to multiblock mode")


@dataclass(frozen=True)
class MseRow:
    """One aggregated CSV row of an MSE experiment."""

    mode: str
    distance: str
    estimator: str
    regularizer: str
    n: int
    trials: int
    excluded: int
    mse: float
    stderr: float

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


def _fit(cfg, sigma, w_past=None):
    """The phases of one plug-in (see solvers.fit); raises SeqlinkError if
    its solve failed, so the trial is excluded. sigma is copied, since fit
    may overwrite it and injected truth blocks are views of the truth."""
    batch = fit(np.array(sigma)[None], cfg.solver, cfg.distance,
                None if w_past is None else w_past[None])
    if np.isnan(batch.phases).any():
        raise SeqlinkError("solve failed")
    return batch.phases[0]


def _plugin_or_truth(cfg, stack, sigma_true, dates):
    """Plug-in over the first `dates` dates (or the injected truth block)."""
    if cfg.inject_truth:
        return sigma_true[:dates, :dates]
    return estimate(stack[:, :dates], cfg.plugin)


def _estimate_full_trial(cfg, sigma_true, n, trial):
    """theta_hat over all l dates for one trial of the offline or
    sequential pipeline."""
    seed = np.random.SeedSequence([cfg.master_seed, n, trial])
    stack = None
    if not cfg.inject_truth:
        stack = sample_stack(sigma_true, replace(cfg.sim, n=n), seed)
    l = cfg.sim.l
    if cfg.mode == "offline":
        return _fit(cfg, _plugin_or_truth(cfg, stack, sigma_true, l))
    # the past fit only ever saw the past dates' samples
    w_past = _fit(cfg, _plugin_or_truth(cfg, stack, sigma_true, cfg.sim.p))
    sigma_hat = _plugin_or_truth(cfg, stack, sigma_true, l)
    return np.concatenate([w_past, _fit(cfg, sigma_hat, w_past)])


def trial_errors(cfg: ExperimentConfig, n: int, threads: int = 1) -> np.ndarray:
    """Per-trial squared errors at one sample size (NaN marks excluded
    trials); offline/sequential measure the first-to-last phase difference."""
    if cfg.mode == "multiblock":
        raise ValueError("use multiblock_experiment for multiblock configs")
    _, w_true, sigma_true = ground_truth(cfg.sim)
    errors = np.full(cfg.trials, np.nan)

    def worker(trial: int) -> None:
        try:
            theta_hat = _estimate_full_trial(cfg, sigma_true, n, trial)
        except (SeqlinkError, np.linalg.LinAlgError):
            return
        errors[trial] = phase_diff_error(theta_hat, w_true, 0, cfg.sim.l - 1)

    _run_rows(cfg.trials, worker, threads)
    return errors


def _aggregate(cfg: ExperimentConfig, mode_label: str, n: int,
               errors: np.ndarray) -> MseRow:
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
                  excluded=excluded, mse=mse, stderr=stderr)


def mc_mse_experiment(cfg: ExperimentConfig, threads: int = 1) -> list[MseRow]:
    """MSE rows over cfg.n_grid (sorted ascending), one per sample size."""
    if cfg.mode == "multiblock":
        return multiblock_experiment(cfg, threads)
    rows = []
    for n in sorted(cfg.n_grid):
        errors = trial_errors(cfg, n, threads)
        rows.append(_aggregate(cfg, cfg.mode, n, errors))
    return rows


def _chain_blocks(cfg, sigma_true, stack, sizes):
    """Offline fit of the first block, then sequential fits block by block."""
    bound = sizes[0]
    w_acc = _fit(cfg, _plugin_or_truth(cfg, stack, sigma_true, bound))
    for k in sizes[1:]:
        sigma_hat = _plugin_or_truth(cfg, stack, sigma_true, bound + k)
        w_acc = np.concatenate([w_acc, _fit(cfg, sigma_hat, w_acc)])
        bound += k
    return w_acc


def _final_block_error(theta_hat, w_true, first_final: int) -> float:
    """Mean squared wrapped error of the final block's phases vs date 1."""
    l = w_true.size
    errs = [phase_diff_error(theta_hat, w_true, i, 0)
            for i in range(first_final, l)]
    return float(np.mean(errs))


def multiblock_experiment(cfg: ExperimentConfig, threads: int = 1) -> list[MseRow]:
    """Growing-archive study: the final block estimated three ways.

    Arms: "offline" fits all dates at once; "sequential" fits the final block
    given an offline fit of everything before it; "chained" bootstraps from an
    offline fit of the first block only, then applies the sequential solver
    block by block. All arms share each trial's draw.
    """
    if cfg.mode != "multiblock":
        raise ValueError("config mode must be 'multiblock'")
    sizes = cfg.sizes
    l = cfg.sim.l
    p_last = l - sizes[-1]
    first_final = p_last
    _, w_true, sigma_true = ground_truth(cfg.sim)
    rows = []
    for n in sorted(cfg.n_grid):
        errors = {arm: np.full(cfg.trials, np.nan) for arm in MULTIBLOCK_ARMS}

        def worker(trial: int) -> None:
            seed = np.random.SeedSequence([cfg.master_seed, n, trial])
            stack = None
            if not cfg.inject_truth:
                stack = sample_stack(sigma_true, replace(cfg.sim, n=n), seed)
            try:
                sigma_hat = _plugin_or_truth(cfg, stack, sigma_true, l)
                errors["offline"][trial] = _final_block_error(
                    _fit(cfg, sigma_hat), w_true, first_final)

                w_past = _fit(cfg, _plugin_or_truth(cfg, stack, sigma_true,
                                                    p_last))
                errors["sequential"][trial] = _final_block_error(
                    np.concatenate([w_past, _fit(cfg, sigma_hat, w_past)]),
                    w_true, first_final)

                chained = _chain_blocks(cfg, sigma_true, stack, sizes)
                errors["chained"][trial] = _final_block_error(
                    chained, w_true, first_final)
            except (SeqlinkError, np.linalg.LinAlgError):
                for arm in MULTIBLOCK_ARMS:
                    errors[arm][trial] = np.nan

        _run_rows(cfg.trials, worker, threads)
        for arm in MULTIBLOCK_ARMS:
            rows.append(_aggregate(cfg, arm, n, errors[arm]))
    return rows


def timing_experiment(
    p: int,
    k: int,
    distance: str = "kl",
    reps: int = 7,
    iters: int = 30,
    seed: int = 0,
) -> dict:
    """Median wall time (ms) of one sequential vs one offline solve.

    Identical plug-in input for both arms; both run a fixed iteration count
    so the comparison reflects per-solve work, not stopping behavior. The
    sequential arm starts from already-available past factors, matching its
    operating regime where past-block quantities persist between
    acquisitions; plug-in estimation is excluded for both.
    """
    if not (p >= k >= 1):
        raise ValueError("need p >= k >= 1")
    if distance not in DISTANCES:
        raise ValueError(f"unknown distance {distance!r}")
    if reps < 5:
        raise ValueError("need at least 5 repetitions")
    l = p + k
    sim = SimulationConfig(l=l, p=p, k=k, n=2 * l, seed=seed)
    _, w_true, sigma_true = ground_truth(sim)
    stack = sample_stack(sigma_true, sim)
    sigma_hat = scm(stack)
    cfg = MMConfig(max_iters=iters, tol=0.0)
    w_past = w_true[:p]

    blocks = partition(sigma_hat, p)
    if distance == "kl":
        factors = schur_factors(abs_entrywise(sigma_hat), p,
                                sigma_new=blocks.new)

        def run_seq():
            return solve_seq_kl(blocks, factors, w_past, cfg)
    else:
        def run_seq():
            return solve_seq_frob(blocks, w_past, cfg)

    def run_offline():
        # fit may overwrite its input
        return fit(sigma_hat[None].copy(), cfg, distance)

    run_seq()  # warm caches (lazy factor products, BLAS paths)
    run_offline()

    def median_ms(fn):
        times = []
        for _ in range(reps):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return float(np.median(times) * 1000.0)

    return {"seq_ms": median_ms(run_seq), "offline_ms": median_ms(run_offline)}
