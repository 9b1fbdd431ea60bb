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
    phase_diff_error,
    rows_to_csv,
    timing_experiment,
    trial_errors,
)
from seqlink.bench import _aggregate, _scored_errors
from seqlink.cli import main
from seqlink.solvers import MMConfig
from seqlink.stackio import read_manifest


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


def test_scored_errors_match_phase_diff_error_loops():
    rng = np.random.default_rng(5)
    l, k = 9, 3
    true = np.exp(1j * rng.uniform(-np.pi, np.pi, l))
    hat = np.exp(1j * rng.uniform(-np.pi, np.pi, (40, l)))
    # rows 0 and 1: the last date's error sits at the +-pi wrap boundary
    hat[:2] = true
    hat[0, -1] = -true[-1]
    hat[1, -1] = true[-1] * np.exp(1j * (np.pi + 1e-9))
    for first in (l - 1, l - k):  # the last date; a final block of k dates
        scored = _scored_errors(hat, true, first)
        loops = [np.mean([phase_diff_error(row, true, i, 0)
                          for i in range(first, l)]) for row in hat]
        assert np.allclose(scored, loops, rtol=0.0, atol=1e-12)
        # a row's error must not depend on the stack it is scored in, or
        # bench results would depend on the thread count
        singles = [_scored_errors(row[None], true, first)[0] for row in hat]
        assert np.array_equal(singles, scored)
    assert np.allclose(_scored_errors(hat[:2], true, l - 1), np.pi**2,
                       rtol=0.0, atol=1e-8)


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


def test_fits_that_hit_their_budget_are_counted(monkeypatch, tmp_path,
                                                capsys):
    """A kept trial whose fit in any link of the arm's chain stopped at its
    iteration budget counts in the row's nonconverged, which the CSV leaves
    out; the bench command's manifest and stderr report the sum."""
    cfg = small_cfg(mode="sequential", n_grid=(24,))
    assert all(row.nonconverged == 0 for row in mc_mse_experiment(cfg))
    config = tmp_path / "bench.cfg"
    config.write_text("l=6\np=4\nk=2\nrho=0.9\ntrials=8\nn_grid=24\n"
                      "mode=sequential\n")
    out = tmp_path / "bench.csv"
    assert main(["bench", str(config), "--out", str(out)]) == 0
    assert read_manifest(f"{out}.manifest.txt")["fits.nonconverged"] == "0"

    monkeypatch.setattr(seqlink.bench, "MMConfig",
                        lambda: MMConfig(max_iters=1))
    rows = mc_mse_experiment(cfg)
    assert all(0 < row.nonconverged <= row.trials - row.excluded
               for row in rows)
    assert all(row.csv_line().count(",") == CSV_HEADER.count(",")
               for row in rows)
    capsys.readouterr()
    assert main(["bench", str(config), "--out", str(out)]) == 0
    count = read_manifest(f"{out}.manifest.txt")["fits.nonconverged"]
    assert int(count) > 0
    assert f"{count} kept trials had a fit" in capsys.readouterr().err


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
    for mode in ("offline", "sequential"):
        cfg = small_cfg(mode=mode)
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


@pytest.mark.parametrize("regularizer", [
    dict(regularizer="none"), dict(regularizer="taper", bandwidth=2),
    dict(regularizer="shrink", beta=0.7)])
@pytest.mark.parametrize("estimator", ["scm", "po"])
def test_every_bound_fits_a_leading_block_of_one_plugin_per_trial(
        monkeypatch, estimator, regularizer):
    """Each trial estimates one raw plug-in over all dates; the plug-in every
    link fits at date bound d is regularize of its leading d x d block, and
    at d = l that is estimate() of the trial's stack, bit for bit."""
    from dataclasses import replace

    from seqlink import estimate, ground_truth, sample_stack
    from seqlink.plugins import regularize

    spec = PluginSpec(estimator=estimator, **regularizer)
    cfg = small_cfg(sim=SimulationConfig(l=8, p=6, k=2, rho=0.9), plugin=spec,
                    mode="multiblock", sizes=(3, 3, 2), trials=5,
                    n_grid=(20,), distance="frob")
    _, _, sigma_true = ground_truth(cfg.sim)
    stacks = [sample_stack(sigma_true, replace(cfg.sim, n=20),
                           np.random.SeedSequence([cfg.master_seed, 20, t]))
              for t in range(cfg.trials)]
    raw = np.array([estimate(s, replace(spec, regularizer="none"))
                    for s in stacks])
    fitted, estimates = [], []
    fit, plugin = seqlink.bench.fit, seqlink.bench.estimate

    def recording_fit(sigma, solver, distance, w_past=None):
        fitted.append(sigma)
        return fit(sigma, solver, distance, w_past)

    def counting_estimate(stack, spec):
        estimates.append(stack.shape)
        return plugin(stack, spec)

    monkeypatch.setattr(seqlink.bench, "fit", recording_fit)
    monkeypatch.setattr(seqlink.bench, "estimate", counting_estimate)
    rows = mc_mse_experiment(cfg)
    assert all(row.excluded == 0 for row in rows)
    assert estimates == [(20, 8)] * cfg.trials
    # offline (8,); sequential (6, 8); chained (3, 6, 8)
    assert [sigma.shape[-1] for sigma in fitted] == [8, 6, 8, 3, 6, 8]
    for sigma in fitted:
        d = sigma.shape[-1]
        assert np.array_equal(sigma, regularize(raw[:, :d, :d], spec))
        if d == cfg.sim.l:
            for t, stack in enumerate(stacks):
                assert np.array_equal(sigma[t], estimate(stack, spec))


@pytest.mark.parametrize("distance", ["kl", "frob"])
def test_fit_reads_the_trial_stack_in_place_when_no_trial_fails(monkeypatch,
                                                                distance):
    """Without a regularizer, every link fits a view of the trials' one
    plug-in stack: no trial's past failed, so nothing is copied."""
    cfg = small_cfg(sim=SimulationConfig(l=8, p=6, k=2, rho=0.9),
                    mode="multiblock", sizes=(3, 3, 2), trials=5,
                    n_grid=(20,), distance=distance)
    plugins, fitted = [], []
    raw_plugins, fit = seqlink.bench._raw_plugins, seqlink.bench.fit

    def recording_raw_plugins(*args):
        plugins.append(raw_plugins(*args))
        return plugins[-1]

    def recording_fit(sigma, solver, distance, w_past=None):
        fitted.append(sigma)
        return fit(sigma, solver, distance, w_past)

    monkeypatch.setattr(seqlink.bench, "_raw_plugins", recording_raw_plugins)
    monkeypatch.setattr(seqlink.bench, "fit", recording_fit)
    rows = mc_mse_experiment(cfg)
    assert all(row.excluded == 0 for row in rows)
    (full,) = plugins
    assert len(fitted) == 6
    assert all(np.shares_memory(sigma, full) for sigma in fitted)


@pytest.mark.parametrize("distribution", ["gaussian", "scaled_gaussian"])
def test_each_stage_factors_the_true_covariance_once(monkeypatch,
                                                     distribution):
    """Every trial's draw shares one matrix square root per sample size,
    whatever the thread count (a draw from a shared root is the draw
    sample_stack makes alone: see test_simulate)."""
    import seqlink.simulate

    cfg = small_cfg(sim=SimulationConfig(l=6, p=4, k=2, rho=0.9,
                                         distribution=distribution),
                    trials=6, mode="sequential")
    factored = []
    cholesky = seqlink.simulate.jittered_cholesky

    def counting_cholesky(a, *args):
        factored.append(np.shape(a))
        return cholesky(a, *args)

    monkeypatch.setattr(seqlink.simulate, "jittered_cholesky",
                        counting_cholesky)
    assert np.isfinite(trial_errors(cfg, 24, threads=2)).all()
    assert factored == [(6, 6)]


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
    rows = mc_mse_experiment(cfg)
    assert [row.mode for row in rows] == list(MULTIBLOCK_ARMS)
    mses = [row.mse for row in rows]
    assert max(mses) <= 1e-8
    assert max(mses) - min(mses) <= 1e-8


def test_multiblock_runs_with_swapped_sizes():
    cfg = small_cfg(sim=SimulationConfig(l=8, p=6, k=2, rho=0.9, n=32),
                    mode="multiblock", sizes=(2, 4, 2), trials=4,
                    n_grid=(32,), distance="frob",
                    plugin=PluginSpec(estimator="po"))
    rows = mc_mse_experiment(cfg)
    assert len(rows) == len(MULTIBLOCK_ARMS)
    for row in rows:
        assert np.isfinite(row.mse)
        assert row.mse >= 0.0


def test_multiblock_failed_chained_step_excludes_the_trial_from_every_arm(
        monkeypatch):
    cfg = small_cfg(sim=SimulationConfig(l=8, p=6, k=2, rho=0.9, n=32),
                    mode="multiblock", sizes=(4, 2, 2), trials=4,
                    n_grid=(32,), distance="frob")
    assert all(row.excluded == 0 for row in mc_mse_experiment(cfg))
    fit = seqlink.bench.fit
    chained_rows = []

    def failing_fit(sigma, solver, distance, w_past=None):
        batch = fit(sigma, solver, distance, w_past)
        # only the chained arm fits new dates given the first block's 4
        if w_past is not None and w_past.shape[-1] == 4:
            first = len(chained_rows)
            chained_rows.extend(range(first, first + len(sigma)))
            if first <= 2 < first + len(sigma):  # trial 2: trials stack in order
                batch.phases[2 - first] = np.nan
                batch.iterations[2 - first] = 0
                batch.converged[2 - first] = False
        return batch

    monkeypatch.setattr(seqlink.bench, "fit", failing_fit)
    rows = mc_mse_experiment(cfg)
    assert chained_rows == list(range(cfg.trials))
    assert [(row.mode, row.excluded) for row in rows] == [
        (arm, 1) for arm in MULTIBLOCK_ARMS]


def test_failed_past_fit_excludes_only_its_trial_and_is_never_continued(
        monkeypatch):
    cfg = small_cfg(mode="sequential", trials=5, n_grid=(24,))
    clean = trial_errors(cfg, 24)
    assert not np.isnan(clean).any()
    fit = seqlink.bench.fit
    sequential_calls = []

    def failing_fit(sigma, solver, distance, w_past=None):
        batch = fit(sigma, solver, distance, w_past)
        if w_past.shape[-1]:
            sequential_calls.append(w_past.copy())
        elif sigma.shape[-1] == cfg.sim.p:  # the past fit: fail trial 3
            batch.phases[3] = np.nan
            batch.iterations[3] = 0
            batch.converged[3] = False
        return batch

    monkeypatch.setattr(seqlink.bench, "fit", failing_fit)
    errors = trial_errors(cfg, 24)
    assert len(sequential_calls) == 1
    assert sequential_calls[0].shape == (cfg.trials - 1, cfg.sim.p)
    assert not np.isnan(sequential_calls[0]).any()
    assert np.isnan(errors[3])
    kept = np.arange(cfg.trials) != 3
    assert np.array_equal(errors[kept], clean[kept])


def test_kl_multiblock_csv_identical_across_thread_counts():
    cfg = small_cfg(sim=SimulationConfig(l=8, p=6, k=2, rho=0.9, n=32),
                    mode="multiblock", sizes=(4, 2, 2), trials=7,
                    n_grid=(12, 32))
    one = rows_to_csv(mc_mse_experiment(cfg, threads=1))
    assert "nan" not in one
    for threads in (2, 3):
        assert rows_to_csv(mc_mse_experiment(cfg, threads=threads)) == one


def test_multiblock_dispatch_through_mc_mse_experiment():
    cfg = small_cfg(sim=SimulationConfig(l=6, p=4, k=2, rho=0.9, n=32),
                    mode="multiblock", sizes=(3, 2, 1), inject_truth=True,
                    trials=2, n_grid=(12,))
    assert len(mc_mse_experiment(cfg)) == 3
    with pytest.raises(ValueError):
        trial_errors(cfg, 12)


# ---------------------------------------------------------------------------
# timing


def test_timing_experiment_small_problem_is_finite():
    out = timing_experiment(p=2, k=2, distance="kl", reps=5, iters=5)
    assert out["seq_ms"] > 0.0
    assert out["offline_ms"] > 0.0


def test_timing_experiment_is_finite_where_raw_scm_coherence_is_indefinite():
    # |SCM| of n = 2l samples has a negative eigenvalue at p = 300
    out = timing_experiment(300, 5, "kl", reps=5)
    assert all(np.isfinite(v) and v > 0.0 for v in out.values())


def test_timing_experiment_validates_inputs():
    with pytest.raises(ValueError):
        timing_experiment(p=2, k=3)
    with pytest.raises(ValueError):
        timing_experiment(p=4, k=1, distance="cosine")
    with pytest.raises(ValueError):
        timing_experiment(p=4, k=1, reps=3)
