"""Benchmark harness tests: error metric oracles, deterministic seeding,
truth-injection exactness, multiblock arms, and CSV emission."""
import numpy as np
import pytest

import seqlink.bench
from seqlink import (
    CSV_HEADER,
    ExperimentConfig,
    MseRow,
    MULTIBLOCK_ARMS,
    PluginSpec,
    SimulationConfig,
    mc_mse_experiment,
    multiblock_experiment,
    phase_diff_error,
    rows_to_csv,
    timing_experiment,
    trial_errors,
)
from seqlink.bench import _aggregate


def small_cfg(**overrides):
    defaults = dict(
        sim=SimulationConfig(l=6, p=4, k=2, rho=0.9, n=24),
        plugin=PluginSpec(),
        distance="kl",
        mode="offline",
        n_grid=(12, 24),
        trials=8,
        master_seed=7,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


# ---------------------------------------------------------------------------
# phase_diff_error


def test_phase_diff_error_zero_at_truth():
    w = np.exp(1j * np.array([0.0, 0.4, -1.1, 2.0]))
    assert phase_diff_error(w, w, 0, 3) == 0.0


def test_phase_diff_error_at_wrap_boundary():
    hat = np.array([1.0 + 0.0j, -1.0 + 0.0j])
    true = np.array([1.0 + 0.0j, 1.0 + 0.0j])
    assert np.isclose(phase_diff_error(hat, true, 0, 1), np.pi**2, atol=1e-12)


def test_phase_diff_error_ignores_global_rotation():
    rng = np.random.default_rng(100)
    true = np.exp(1j * rng.uniform(-np.pi, np.pi, 5))
    hat = np.exp(1j * rng.uniform(-np.pi, np.pi, 5))
    base = phase_diff_error(hat, true, 0, 4)
    spin = np.exp(1j * rng.uniform(-np.pi, np.pi))
    assert abs(phase_diff_error(spin * hat, true, 0, 4) - base) < 1e-12
    assert abs(phase_diff_error(hat, spin * true, 0, 4) - base) < 1e-12


def test_phase_diff_error_validates_inputs():
    w = np.ones(3, dtype=complex)
    with pytest.raises(IndexError):
        phase_diff_error(w, w, 0, 3)
    with pytest.raises(ValueError):
        phase_diff_error(w, np.ones(4, dtype=complex), 0, 1)


# ---------------------------------------------------------------------------
# config validation and aggregation


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        small_cfg(distance="l1")
    with pytest.raises(ValueError):
        small_cfg(mode="batch")
    with pytest.raises(ValueError):
        small_cfg(trials=0)
    with pytest.raises(ValueError):
        small_cfg(n_grid=())
    with pytest.raises(ValueError):
        small_cfg(sizes=(4, 2))  # sizes outside multiblock mode
    with pytest.raises(ValueError):
        small_cfg(mode="multiblock", sizes=(4, 1))  # sums to 5, not 6
    with pytest.raises(ValueError):
        small_cfg(mode="multiblock", sizes=(6,))
    cfg = small_cfg(mode="multiblock", sizes=(3, 2, 1))
    assert cfg.sizes == (3, 2, 1)


def test_aggregate_counts_exclusions_and_uses_sample_stderr():
    cfg = small_cfg(trials=5)
    errors = np.array([0.1, np.nan, 0.3, 0.2, np.nan])
    row = _aggregate(cfg, "offline", 24, errors)
    kept = np.array([0.1, 0.3, 0.2])
    assert row.excluded == 2
    assert np.isclose(row.mse, kept.mean())
    assert np.isclose(row.stderr, kept.std(ddof=1) / np.sqrt(3))
    all_bad = _aggregate(cfg, "offline", 24, np.full(5, np.nan))
    assert all_bad.excluded == 5
    assert np.isnan(all_bad.mse)
    assert all_bad.stderr == 0.0
    single = _aggregate(small_cfg(trials=1), "offline", 24, np.array([0.4]))
    assert single.stderr == 0.0


def test_mse_row_csv_line_and_header():
    row = MseRow(mode="offline", distance="kl", estimator="scm",
                 regularizer="none", n=64, trials=200, excluded=1,
                 mse=0.015625, stderr=0.001)
    assert row.csv_line() == "offline,kl,scm,none,64,200,1,0.015625,0.001"
    text = rows_to_csv([row])
    assert text.splitlines()[0] == CSV_HEADER
    assert text.endswith("0.001\n")
    with pytest.raises(ValueError):
        MseRow(mode="offline", distance="kl", estimator="scm",
               regularizer="none", n=64, trials=200, excluded=1,
               mse=-0.1, stderr=0.0)
    with pytest.raises(ValueError):
        MseRow(mode="offline", distance="kl", estimator="scm",
               regularizer="none", n=64, trials=2, excluded=3,
               mse=0.1, stderr=0.0)


# ---------------------------------------------------------------------------
# Monte Carlo pipelines


@pytest.mark.parametrize("mode", ["offline", "sequential"])
@pytest.mark.parametrize("distance", ["kl", "frob"])
def test_truth_injection_gives_zero_mse(mode, distance):
    cfg = small_cfg(mode=mode, distance=distance, inject_truth=True,
                    trials=3, n_grid=(16,))
    for row in mc_mse_experiment(cfg):
        assert row.excluded == 0
        assert row.mse <= 1e-10


def test_trial_errors_deterministic_and_seed_sensitive():
    cfg = small_cfg()
    a = trial_errors(cfg, 24)
    b = trial_errors(cfg, 24)
    c = trial_errors(small_cfg(master_seed=8), 24)
    assert np.array_equal(a, b, equal_nan=True)
    assert not np.array_equal(a, c, equal_nan=True)


def test_csv_output_identical_across_thread_counts():
    cfg = small_cfg(mode="sequential")
    one = rows_to_csv(mc_mse_experiment(cfg, threads=1))
    four = rows_to_csv(mc_mse_experiment(cfg, threads=4))
    assert one == four


def test_offline_and_sequential_trials_share_draws():
    # identical derived seeds mean the offline arm of a sequential config and
    # a pure offline config are fed the same stacks; with truth injection the
    # distinction vanishes entirely, so check seed pairing via the sampler
    from seqlink import ground_truth, sample_stack
    from dataclasses import replace

    cfg_a = small_cfg(mode="offline")
    cfg_b = small_cfg(mode="sequential")
    _, _, sigma = ground_truth(cfg_a.sim)
    for trial in (0, 3):
        seed_a = np.random.SeedSequence([cfg_a.master_seed, 24, trial])
        seed_b = np.random.SeedSequence([cfg_b.master_seed, 24, trial])
        stack_a = sample_stack(sigma, replace(cfg_a.sim, n=24), seed_a)
        stack_b = sample_stack(sigma, replace(cfg_b.sim, n=24), seed_b)
        assert np.array_equal(stack_a, stack_b)


def test_mse_improves_with_sample_support():
    cfg = small_cfg(sim=SimulationConfig(l=8, p=6, k=2, rho=0.9, n=64),
                    trials=40, n_grid=(8, 64))
    rows = mc_mse_experiment(cfg)
    assert rows[0].n == 8 and rows[1].n == 64
    assert rows[1].mse < rows[0].mse


def test_rows_sorted_by_sample_size():
    cfg = small_cfg(n_grid=(24, 12), trials=3)
    rows = mc_mse_experiment(cfg)
    assert [row.n for row in rows] == [12, 24]


# ---------------------------------------------------------------------------
# multiblock


def test_multiblock_truth_injection_arms_agree():
    cfg = small_cfg(sim=SimulationConfig(l=8, p=6, k=2, rho=0.9, n=32),
                    mode="multiblock", sizes=(4, 2, 2), inject_truth=True,
                    trials=2, n_grid=(16,))
    rows = multiblock_experiment(cfg)
    assert [row.mode for row in rows] == list(MULTIBLOCK_ARMS)
    mses = [row.mse for row in rows]
    assert max(mses) <= 1e-8
    assert max(mses) - min(mses) <= 1e-8


def test_multiblock_runs_with_swapped_sizes():
    cfg = small_cfg(sim=SimulationConfig(l=8, p=6, k=2, rho=0.9, n=32),
                    mode="multiblock", sizes=(2, 4, 2), trials=4,
                    n_grid=(32,), distance="frob",
                    plugin=PluginSpec(estimator="po"))
    rows = multiblock_experiment(cfg)
    assert len(rows) == len(MULTIBLOCK_ARMS)
    for row in rows:
        assert np.isfinite(row.mse)
        assert row.mse >= 0.0


def test_multiblock_failed_chained_step_excludes_the_trial_from_every_arm(
        monkeypatch):
    cfg = small_cfg(sim=SimulationConfig(l=8, p=6, k=2, rho=0.9, n=32),
                    mode="multiblock", sizes=(4, 2, 2), trials=4,
                    n_grid=(32,), distance="frob")
    assert all(row.excluded == 0 for row in multiblock_experiment(cfg))
    fit = seqlink.bench.fit
    chained_steps = []

    def failing_fit(sigma, solver, distance, w_past=None):
        batch = fit(sigma, solver, distance, w_past)
        # only the chained arm fits new dates given the first block's 4
        if w_past is not None and w_past.shape[-1] == 4:
            chained_steps.append(len(chained_steps))
            if len(chained_steps) == 3:  # trial 2, as trials run in order
                batch.phases[:] = np.nan
                batch.iterations[:] = 0
                batch.converged[:] = False
        return batch

    monkeypatch.setattr(seqlink.bench, "fit", failing_fit)
    rows = multiblock_experiment(cfg)
    assert len(chained_steps) == cfg.trials
    assert [(row.mode, row.excluded) for row in rows] == [
        (arm, 1) for arm in MULTIBLOCK_ARMS]


def test_multiblock_dispatch_through_mc_mse_experiment():
    cfg = small_cfg(sim=SimulationConfig(l=6, p=4, k=2, rho=0.9, n=32),
                    mode="multiblock", sizes=(3, 2, 1), inject_truth=True,
                    trials=2, n_grid=(12,))
    assert len(mc_mse_experiment(cfg)) == 3
    with pytest.raises(ValueError):
        trial_errors(cfg, 12)
    with pytest.raises(ValueError):
        multiblock_experiment(small_cfg())


# ---------------------------------------------------------------------------
# timing


def test_timing_experiment_small_problem_is_finite():
    out = timing_experiment(p=2, k=2, distance="kl", reps=5, iters=5)
    assert out["seq_ms"] > 0.0
    assert out["offline_ms"] > 0.0


def test_timing_experiment_validates_inputs():
    with pytest.raises(ValueError):
        timing_experiment(p=2, k=3)
    with pytest.raises(ValueError):
        timing_experiment(p=4, k=1, distance="cosine")
    with pytest.raises(ValueError):
        timing_experiment(p=4, k=1, reps=3)
