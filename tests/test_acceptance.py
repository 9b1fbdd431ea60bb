"""Acceptance gate: the eleven headline checks, one test per criterion.

Each test prints a single PASS/FAIL line (visible with `pytest -s` or in the
captured output), and the assertions enforce the stated tolerances. Each
runs in seconds; the slowest, the Monte Carlo criteria 7 and 8 and the
descent check of criterion 3, take about 3-4 s each on two cores.
"""
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

from seqlink import (
    ExperimentConfig,
    MMConfig,
    PluginSpec,
    SimulationConfig,
    abs_entrywise,
    anchor_reference,
    assemble_block_inverse,
    estimate,
    frob_cost_block,
    frob_cost_full,
    kl_cost_block,
    kl_cost_full,
    mc_mse_experiment,
    partition,
    phase_project,
    quad_form,
    schur_factors,
    solve_offline_frob,
    solve_offline_kl,
    solve_seq_frob,
    solve_seq_kl,
    timing_experiment,
)

THREADS = 1  # the Monte Carlo helpers are deterministic for any thread count

PLUGINS = (
    PluginSpec(estimator="scm"),
    PluginSpec(estimator="po"),
    PluginSpec(estimator="scm", regularizer="shrink", beta=0.9),
    PluginSpec(estimator="scm", regularizer="taper", bandwidth=9),
)


def report(ok: bool, label: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {label}")
    assert ok, label


def random_torus(rng, dim):
    return np.exp(1j * rng.uniform(-np.pi, np.pi, dim))


def random_stack(rng, n, l):
    return (rng.standard_normal((n, l))
            + 1j * rng.standard_normal((n, l))) / np.sqrt(2)


def noiseless_cov(l, rho=0.98, total=2.0):
    psi = scipy.linalg.toeplitz(rho ** np.arange(l))
    w0 = np.exp(1j * np.arange(l) * (total / l))
    return psi * np.outer(w0, w0.conj()), w0


def max_angle_error(w_hat, w_true):
    return float(np.max(np.abs(np.angle(w_hat * np.conj(w_true)))))


def seq_inputs(sigma, p):
    blocks = partition(sigma, p)
    factors = schur_factors(abs_entrywise(sigma), p)
    return blocks, factors


def bands_overlap(row_a, row_b) -> bool:
    gap = abs(row_a.mse - row_b.mse)
    return gap <= 2.0 * row_a.stderr + 2.0 * row_b.stderr


# ---------------------------------------------------------------------------


def test_criterion_01_block_costs_equal_full_costs():
    rng = np.random.default_rng(1001)
    worst = 0.0
    for trial in range(200):
        l = int(rng.integers(3, 17))
        spec = PLUGINS[trial % len(PLUGINS)]
        sigma = estimate(random_stack(rng, 3 * l, l), spec)
        w = random_torus(rng, l)
        kl_full = kl_cost_full(w, sigma)
        frob_full = frob_cost_full(w, sigma)
        for p in range(1, l):
            blocks, factors = seq_inputs(sigma, p)
            kl_block = kl_cost_block(w[:p], w[p:], blocks, factors)
            frob_block = frob_cost_block(w[:p], w[p:], blocks)
            worst = max(worst,
                        abs(kl_block - kl_full) / abs(kl_full),
                        abs(frob_block - frob_full) / abs(frob_full))
    report(worst < 1e-9,
           f"1/11 block cost == full cost, both distances "
           f"(200 plug-ins, every split; max rel err {worst:.2e} < 1e-9)")


def test_criterion_02_blockwise_inverse_matches_direct_inverse():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(200):
        l = int(rng.integers(3, 17))
        p = int(rng.integers(1, l))
        x = rng.standard_normal((3 * l, l))
        spd = x.T @ x / (3 * l) + 0.1 * np.eye(l)
        direct = np.linalg.inv(spd)
        assembled = assemble_block_inverse(schur_factors(spd, p))
        scale = np.max(np.abs(direct))
        worst = max(worst, float(np.max(np.abs(assembled - direct)) / scale))
    report(worst < 1e-8,
           f"2/11 assembled block inverse == direct inverse "
           f"(200 SPD matrices; max rel err {worst:.2e} < 1e-8)")


def test_criterion_03_mm_iterations_never_increase_cost():
    rng = np.random.default_rng(1003)
    worst = -np.inf
    for spec in PLUGINS:
        for _ in range(100):
            l = int(rng.integers(6, 14))
            p = int(rng.integers(2, l - 1))
            sigma = estimate(random_stack(rng, 3 * l, l), spec)
            blocks, factors = seq_inputs(sigma, p)
            w_past = random_torus(rng, p)
            cfg = MMConfig(max_iters=40, tol=0.0, init=random_torus(rng, l))
            cfg_seq = MMConfig(max_iters=40, tol=0.0,
                               init=random_torus(rng, l - p))
            for rep in (
                solve_offline_kl(sigma, cfg),
                solve_offline_frob(sigma, cfg),
                solve_seq_kl(blocks, factors, w_past, cfg_seq),
                solve_seq_frob(blocks, w_past, cfg_seq),
            ):
                trace = np.asarray(rep.cost_trace)
                rises = np.diff(trace) / abs(trace[0])
                worst = max(worst, float(rises.max()))
    report(worst <= 1e-9,
           f"3/11 MM cost traces non-increasing, 4 solvers x 4 plug-ins x "
           f"100 instances (worst rise {worst:.2e} <= 1e-9*|cost0|)")


def test_criterion_04_surrogates_majorize_and_touch():
    rng = np.random.default_rng(1004)
    worst_slack = np.inf
    worst_touch = 0.0
    for trial in range(1000):
        k = int(rng.integers(2, 9))
        w = random_torus(rng, k)
        wt = random_torus(rng, k)
        if trial % 2 == 0:
            # any Hermitian quadratic f = w'Hw: shifting by the top
            # eigenvalue and linearizing the concave remainder majorizes it
            g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            h = (g + g.conj().T) / 2
            lam = float(np.max(np.linalg.eigvalsh(h)))
            shifted = h - lam * np.eye(k)

            def maj(at):
                return (lam * np.real(at.conj() @ at)
                        + 2 * np.real(at.conj() @ shifted @ wt)
                        - np.real(wt.conj() @ shifted @ wt))

            cost_w, cost_wt = quad_form(w, h), quad_form(wt, h)
        else:
            # concave quadratic f = -w'Hw (H PSD): its tangent majorizes it
            x = random_stack(rng, 3 * k, k)
            h = x.T @ x.conj() / (3 * k)
            h = (h + h.conj().T) / 2

            def maj(at):
                return (-2 * np.real(at.conj() @ h @ wt)
                        + np.real(wt.conj() @ h @ wt))

            cost_w, cost_wt = -quad_form(w, h), -quad_form(wt, h)
        worst_slack = min(worst_slack, float(maj(w) - cost_w))
        worst_touch = max(worst_touch, abs(float(maj(wt) - cost_wt)))
    report(worst_slack >= -1e-9 and worst_touch < 1e-10,
           f"4/11 surrogate inequalities on 1000 triples "
           f"(min slack {worst_slack:.2e} >= -1e-9, equality gap at w=wt "
           f"{worst_touch:.2e} < 1e-10)")


def test_criterion_05_torus_projection_is_optimal():
    rng = np.random.default_rng(1005)
    worst_attain = 0.0
    beaten = True
    for _ in range(100):
        dim = int(rng.integers(2, 10))
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        w = phase_project(v)
        attained = -np.real(w.conj() @ v)
        bound = -np.sum(np.abs(v))
        worst_attain = max(worst_attain,
                           abs(attained - bound) / max(1.0, abs(bound)))
        samples = np.exp(1j * rng.uniform(-np.pi, np.pi, (10_000, dim)))
        beaten &= bool(attained <= np.min(-np.real(samples.conj() @ v)) + 1e-12)
    report(worst_attain < 1e-12 and beaten,
           f"5/11 entrywise phase projection attains the analytic optimum "
           f"(gap {worst_attain:.2e} < 1e-12) and beats 10^4 random torus "
           f"points on 100 draws")


def test_criterion_06_noiseless_generative_recovery():
    rng = np.random.default_rng(1006)
    worst = 0.0
    for l, k in ((8, 2), (40, 5)):
        sigma, w0 = noiseless_cov(l)
        p = l - k
        blocks, factors = seq_inputs(sigma, p)
        anchored = anchor_reference(w0)
        for _ in range(10):
            # tol=0 runs each solver to a literal fixed point of its update;
            # the ill-conditioned l=40 coherence needs the headroom
            cfg = MMConfig(max_iters=30000, tol=0.0,
                           init=random_torus(rng, l))
            cfg_new = MMConfig(max_iters=30000, tol=0.0,
                               init=random_torus(rng, k))
            worst = max(
                worst,
                max_angle_error(solve_offline_kl(sigma, cfg).phases, anchored),
                max_angle_error(solve_offline_frob(sigma, cfg).phases,
                                anchored),
                max_angle_error(solve_seq_kl(blocks, factors, w0[:p],
                                             cfg_new).phases, w0[p:]),
                max_angle_error(solve_seq_frob(blocks, w0[:p],
                                               cfg_new).phases, w0[p:]),
            )
    report(worst < 1e-5,
           f"6/11 noiseless recovery, l in (8, 40), both distances, offline "
           f"and sequential, 10 random inits (max wrapped error "
           f"{worst:.2e} < 1e-5)")


SCENARIO = SimulationConfig(l=40, p=35, k=5, rho=0.98, nu=1.0,
                            distribution="gaussian")


def test_criterion_07_sequential_matches_offline_accuracy_bands():
    n_grid = (45, 64, 90, 128)
    rows = {}
    for distance in ("kl", "frob"):
        for mode in ("offline", "sequential"):
            cfg = ExperimentConfig(sim=SCENARIO, plugin=PluginSpec(),
                                   distance=distance, mode=mode,
                                   n_grid=n_grid, trials=200, master_seed=11)
            rows[distance, mode] = mc_mse_experiment(cfg, THREADS)
    ok = True
    detail = []
    for distance in ("kl", "frob"):
        for off, seq in zip(rows[distance, "offline"],
                            rows[distance, "sequential"]):
            assert off.n == seq.n
            ok &= bands_overlap(off, seq)
            detail.append(f"{distance}@n={off.n}:"
                          f"{'ok' if bands_overlap(off, seq) else 'APART'}")
    report(ok,
           "7/11 sequential vs offline MSE bands (+/-2 stderr) overlap at "
           f"every n for KL and Frobenius with the SCM plug-in "
           f"[{' '.join(detail)}]")


def test_criterion_08_phase_only_wins_under_heavy_tails():
    heavy = SimulationConfig(l=40, p=35, k=5, rho=0.98, nu=1.0,
                             distribution="scaled_gaussian")
    ok = True
    detail = []
    for distance in ("kl", "frob"):
        for mode in ("offline", "sequential"):
            results = {}
            for estimator in ("scm", "po"):
                cfg = ExperimentConfig(sim=heavy,
                                       plugin=PluginSpec(estimator=estimator),
                                       distance=distance, mode=mode,
                                       n_grid=(64,), trials=200,
                                       master_seed=13)
                results[estimator] = mc_mse_experiment(cfg, THREADS)[0]
            scm_row, po_row = results["scm"], results["po"]
            separated = (po_row.mse + 2 * po_row.stderr
                         < scm_row.mse - 2 * scm_row.stderr)
            ok &= po_row.mse < scm_row.mse and separated
            detail.append(
                f"{distance}/{mode}: po={po_row.mse:.3e} "
                f"scm={scm_row.mse:.3e} {'sep' if separated else 'OVERLAP'}")
    report(ok,
           "8/11 phase-only beats SCM under scaled-Gaussian amplitudes "
           f"(nu=1, n=64) with non-overlapping bands [{'; '.join(detail)}]")


def test_criterion_09_chained_blocks_match_offline_bands():
    cfg = ExperimentConfig(
        sim=SCENARIO, plugin=PluginSpec(estimator="po"), distance="frob",
        mode="multiblock", sizes=(30, 5, 5), n_grid=(64,), trials=200,
        master_seed=17)
    rows = mc_mse_experiment(cfg, THREADS)
    by_arm = {row.mode: row for row in rows}
    pairs = (("offline", "sequential"), ("offline", "chained"),
             ("sequential", "chained"))
    ok = all(bands_overlap(by_arm[a], by_arm[b]) for a, b in pairs)
    detail = " ".join(f"{arm}={row.mse:.3e}+/-{2 * row.stderr:.1e}"
                      for arm, row in by_arm.items())
    report(ok,
           "9/11 one-shot and cascaded sequential match offline on the last "
           f"block (PO + Frobenius, split 30/5/5) [{detail}]")


def test_criterion_10_sequential_solve_is_faster():
    ok = True
    detail = []
    for distance in ("kl", "frob"):
        result = timing_experiment(200, 5, distance, reps=5)
        ok &= result["seq_ms"] < result["offline_ms"]
        detail.append(f"{distance}: seq={result['seq_ms']:.2f}ms "
                      f"offline={result['offline_ms']:.2f}ms")
    report(ok,
           f"10/11 sequential solve faster than offline at p=200, k=5 "
           f"(median of 5 runs) [{'; '.join(detail)}]")


BENCH_CFG = """
l = 8
p = 6
k = 2
rho = 0.9
trials = 20
n_grid = 16, 32
master_seed = 23
out = {out}

[experiment]
distance = kl

[experiment]
distance = frob
mode = sequential
"""


def test_criterion_11_bench_csv_identical_across_thread_counts(tmp_path):
    outputs = {}
    for threads in (1, 4, 8):
        out = tmp_path / f"bench{threads}.csv"
        cfg = tmp_path / f"bench{threads}.cfg"
        cfg.write_text(BENCH_CFG.format(out=out))
        proc = subprocess.run(
            [sys.executable, "-m", "seqlink", "bench", str(cfg),
             "--threads", str(threads)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs[threads] = out.read_bytes()
    ok = outputs[1] == outputs[4] == outputs[8]
    report(ok,
           "11/11 bench CSV byte-identical across 1, 4, and 8 worker threads")
