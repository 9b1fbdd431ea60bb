"""MM solver tests: projection and anchoring lemmas, generative fixed points,
grid-search oracles, monotone descent and majorization inequalities."""
import numpy as np
import pytest
import scipy.linalg

from seqlink import (
    MMConfig,
    PluginSpec,
    SimulationConfig,
    abs_entrywise,
    anchor_reference,
    SeqlinkError,
    estimate,
    fit,
    frob_cost_block,
    frob_mm,
    ground_truth,
    kl_cost_block,
    kl_cost_full,
    partition,
    phase_project,
    pd_inverse,
    quad_form,
    sample_stack,
    schur_factors,
    scm,
    solve_offline_frob,
    solve_offline_kl,
    solve_seq_frob,
    solve_seq_kl,
)
from seqlink.bench import BENCH_SOLVER
from seqlink.solvers import frob_seq_terms


def random_torus(rng, dim):
    return np.exp(1j * rng.uniform(-np.pi, np.pi, dim))


def ramp_phasors(l, total=2.0):
    return np.exp(1j * np.arange(l) * (total / l))


def noiseless_cov(l, rho=0.98, total=2.0):
    psi = scipy.linalg.toeplitz(rho ** np.arange(l))
    w0 = ramp_phasors(l, total)
    return psi * np.outer(w0, w0.conj()), w0


def max_angle_error(w_hat, w_true):
    return float(np.max(np.abs(np.angle(w_hat * np.conj(w_true)))))


def random_stack(rng, n, l):
    return (rng.standard_normal((n, l)) + 1j * rng.standard_normal((n, l))) / np.sqrt(2)


TIGHT = MMConfig(max_iters=1000, tol=1e-15)


# ---------------------------------------------------------------------------
# phase_project / anchor_reference


def test_phase_project_keeps_phase_and_maps_zero_to_one():
    v = np.array([3 * np.exp(1j * np.pi / 4), 0.0])
    out = phase_project(v)
    assert np.isclose(out[0], np.exp(1j * np.pi / 4), atol=1e-15)
    assert out[1] == 1.0


def test_phase_project_negative_real():
    assert np.isclose(phase_project(np.array([-2.0]))[0], -1.0, atol=1e-15)


def test_phase_project_attains_analytic_minimum():
    rng = np.random.default_rng(60)
    for _ in range(25):
        v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        w = phase_project(v)
        attained = -np.real(w.conj() @ v)
        assert abs(attained - (-np.sum(np.abs(v)))) < 1e-12 * max(1.0, np.sum(np.abs(v)))


def test_phase_project_beats_random_torus_points():
    rng = np.random.default_rng(61)
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    best = -np.real(phase_project(v).conj() @ v)
    samples = np.exp(1j * rng.uniform(-np.pi, np.pi, (10_000, 2)))
    values = -np.real(samples.conj() @ v)
    assert best <= np.min(values) + 1e-12


def test_anchor_reference_rotates_first_entry_to_one():
    a, b = 0.7, -1.9
    out = anchor_reference(np.exp(1j * np.array([a, b])))
    assert out[0] == 1.0
    assert np.isclose(out[1], np.exp(1j * (b - a)), atol=1e-14)


def test_anchor_reference_idempotent_on_anchored_input():
    rng = np.random.default_rng(62)
    w = random_torus(rng, 5)
    w[0] = 1.0
    assert np.array_equal(anchor_reference(w), w)


def test_anchor_reference_preserves_pairwise_ratios():
    rng = np.random.default_rng(63)
    w = random_torus(rng, 8)
    out = anchor_reference(w)
    for i in range(8):
        for j in range(8):
            assert abs(out[i] / out[j] - w[i] / w[j]) < 1e-12


# ---------------------------------------------------------------------------
# offline solvers


def test_offline_kl_recovers_noiseless_phases():
    sigma, w0 = noiseless_cov(8)
    report = solve_offline_kl(sigma, TIGHT)
    assert max_angle_error(report.phases, anchor_reference(w0)) < 1e-6


def test_offline_kl_identity_cov_keeps_any_anchored_init():
    rng = np.random.default_rng(64)
    w_init = anchor_reference(random_torus(rng, 5))
    report = solve_offline_kl(np.eye(5, dtype=complex),
                              MMConfig(max_iters=50, tol=1e-12, init=w_init))
    assert np.max(np.abs(report.phases - w_init)) < 1e-14
    assert np.allclose(report.cost_trace, 5.0, atol=1e-12)


def test_offline_kl_matches_grid_search_at_l_two():
    rng = np.random.default_rng(65)
    sigma = scm(random_stack(rng, 30, 2))
    report = solve_offline_kl(sigma, TIGHT)
    h = np.linalg.inv(abs_entrywise(sigma)) * sigma
    thetas = np.linspace(-np.pi, np.pi, 100_000, endpoint=False)
    ws = np.stack([np.ones_like(thetas), np.exp(1j * thetas)], axis=1)
    costs = np.einsum("ti,ij,tj->t", ws.conj(), h, ws).real
    best_theta = thetas[np.argmin(costs)]
    got_theta = np.angle(report.phases[1])
    diff = np.angle(np.exp(1j * (got_theta - best_theta)))
    assert abs(diff) < 2 * np.pi / 100_000 * 1.5


def test_offline_frob_recovers_noiseless_phases():
    sigma, w0 = noiseless_cov(8)
    report = solve_offline_frob(sigma, TIGHT)
    assert max_angle_error(report.phases, anchor_reference(w0)) < 1e-6


def test_offline_frob_diagonal_cov_is_fixed_point():
    rng = np.random.default_rng(66)
    w_init = anchor_reference(random_torus(rng, 4))
    sigma = np.diag([2.0, 1.0, 0.5, 0.0]).astype(complex)
    report = solve_offline_frob(sigma, MMConfig(max_iters=50, tol=1e-12, init=w_init))
    assert np.max(np.abs(report.phases - w_init)) < 1e-14
    assert np.allclose(report.cost_trace, report.cost_trace[0], atol=1e-12)


def test_offline_frob_matches_grid_search_at_l_two():
    rng = np.random.default_rng(67)
    sigma = scm(random_stack(rng, 30, 2))
    report = solve_offline_frob(sigma, TIGHT)
    m = abs_entrywise(sigma) * sigma
    thetas = np.linspace(-np.pi, np.pi, 100_000, endpoint=False)
    ws = np.stack([np.ones_like(thetas), np.exp(1j * thetas)], axis=1)
    costs = -2 * np.einsum("ti,ij,tj->t", ws.conj(), m, ws).real
    best_theta = thetas[np.argmin(costs)]
    diff = np.angle(np.exp(1j * (np.angle(report.phases[1]) - best_theta)))
    assert abs(diff) < 2 * np.pi / 100_000 * 1.5


# ---------------------------------------------------------------------------
# sequential solvers


def seq_inputs(sigma, p):
    blocks = partition(sigma, p)
    factors = schur_factors(abs_entrywise(sigma), p, sigma_new=blocks.new)
    return blocks, factors


def test_seq_kl_recovers_noiseless_new_phases():
    sigma, w0 = noiseless_cov(8)
    blocks, factors = seq_inputs(sigma, 6)
    report = solve_seq_kl(blocks, factors, w0[:6], TIGHT)
    assert max_angle_error(report.phases, w0[6:]) < 1e-6


def test_seq_kl_matches_grid_search_at_k_one():
    rng = np.random.default_rng(68)
    sigma = scm(random_stack(rng, 40, 6))
    blocks, factors = seq_inputs(sigma, 5)
    w_past = random_torus(rng, 5)
    report = solve_seq_kl(blocks, factors, w_past, TIGHT)
    thetas = np.linspace(-np.pi, np.pi, 100_000, endpoint=False)
    costs = np.array([
        kl_cost_block(w_past, np.array([np.exp(1j * t)]), blocks, factors)
        for t in thetas[::100]
    ])
    # refine around the coarse best to keep runtime low
    coarse = thetas[::100][np.argmin(costs)]
    fine = coarse + np.linspace(-0.01, 0.01, 2000)
    fine_costs = np.array([
        kl_cost_block(w_past, np.array([np.exp(1j * t)]), blocks, factors)
        for t in fine
    ])
    best_theta = fine[np.argmin(fine_costs)]
    diff = np.angle(np.exp(1j * (np.angle(report.phases[0]) - best_theta)))
    assert abs(diff) < 2e-5 * 1.5


def test_seq_kl_decoupled_block_keeps_init():
    rng = np.random.default_rng(69)
    sigma_p = scm(random_stack(rng, 20, 5))
    sigma = np.zeros((8, 8), dtype=complex)
    sigma[:5, :5] = sigma_p
    sigma[5:, 5:] = np.eye(3)
    blocks, factors = seq_inputs(sigma, 5)
    w_init = random_torus(rng, 3)
    w_past = random_torus(rng, 5)
    report = solve_seq_kl(blocks, factors, w_past,
                          MMConfig(max_iters=50, tol=1e-12, init=w_init))
    assert np.max(np.abs(report.phases - w_init)) < 1e-14
    assert np.allclose(report.cost_trace, report.cost_trace[0], atol=1e-10)


def test_seq_frob_recovers_noiseless_new_phases():
    sigma, w0 = noiseless_cov(8)
    blocks, _ = seq_inputs(sigma, 6)
    report = solve_seq_frob(blocks, w0[:6], TIGHT)
    assert max_angle_error(report.phases, w0[6:]) < 1e-6


def test_seq_frob_matches_grid_search_at_k_one():
    rng = np.random.default_rng(70)
    sigma = scm(random_stack(rng, 40, 6))
    blocks = partition(sigma, 5)
    w_past = random_torus(rng, 5)
    report = solve_seq_frob(blocks, w_past, TIGHT)
    thetas = np.linspace(-np.pi, np.pi, 100_000, endpoint=False)
    coarse_costs = np.array([
        frob_cost_block(w_past, np.array([np.exp(1j * t)]), blocks)
        for t in thetas[::100]
    ])
    coarse = thetas[::100][np.argmin(coarse_costs)]
    fine = coarse + np.linspace(-0.01, 0.01, 2000)
    fine_costs = np.array([
        frob_cost_block(w_past, np.array([np.exp(1j * t)]), blocks)
        for t in fine
    ])
    best_theta = fine[np.argmin(fine_costs)]
    diff = np.angle(np.exp(1j * (np.angle(report.phases[0]) - best_theta)))
    assert abs(diff) < 2e-5 * 1.5


def test_seq_frob_identity_cov_converges_immediately():
    rng = np.random.default_rng(71)
    blocks = partition(np.eye(9, dtype=complex), 6)
    w_init = random_torus(rng, 3)
    report = solve_seq_frob(blocks, random_torus(rng, 6),
                            MMConfig(max_iters=50, tol=1e-12, init=w_init))
    assert report.iterations == 1
    assert np.max(np.abs(report.phases - w_init)) < 1e-14


# ---------------------------------------------------------------------------
# descent, majorization, init invariance, offline/sequential consistency


def test_all_solvers_descend_monotonically():
    rng = np.random.default_rng(72)
    for _ in range(10):
        l = int(rng.integers(4, 12))
        p = int(rng.integers(2, l - 1))
        sigma = scm(random_stack(rng, 3 * l, l))
        blocks, factors = seq_inputs(sigma, p)
        w_past = random_torus(rng, p)
        cfg = MMConfig(max_iters=60, tol=0.0, init=random_torus(rng, l))
        cfg_seq = MMConfig(max_iters=60, tol=0.0, init=random_torus(rng, l - p))
        for report in (
            solve_offline_kl(sigma, cfg),
            solve_offline_frob(sigma, cfg),
            solve_seq_kl(blocks, factors, w_past, cfg_seq),
            solve_seq_frob(blocks, w_past, cfg_seq),
        ):
            trace = report.cost_trace
            slack = 1e-9 * abs(trace[0])
            assert np.all(np.diff(trace) <= slack)


def test_convex_form_majorization_inequality():
    rng = np.random.default_rng(73)
    for _ in range(50):
        k = int(rng.integers(2, 7))
        g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        h = (g + g.conj().T) / 2
        lam = float(np.max(np.linalg.eigvalsh(h)))
        w = random_torus(rng, k)
        wt = random_torus(rng, k)
        shifted = h - lam * np.eye(k)
        lhs = 2 * np.real(w.conj() @ shifted @ wt) - 2 * np.real(wt.conj() @ shifted @ wt)
        rhs = quad_form(w, h) - quad_form(wt, h)
        assert lhs >= rhs - 1e-9
        lhs_eq = 2 * np.real(wt.conj() @ shifted @ wt) - 2 * np.real(wt.conj() @ shifted @ wt)
        assert abs(lhs_eq - 0.0) < 1e-10


def test_concave_form_majorization_inequality():
    rng = np.random.default_rng(74)
    for _ in range(50):
        k = int(rng.integers(2, 7))
        x = rng.standard_normal((3 * k, k)) + 1j * rng.standard_normal((3 * k, k))
        h = x.T @ x.conj() / (3 * k)
        h = (h + h.conj().T) / 2
        w = random_torus(rng, k)
        wt = random_torus(rng, k)
        g_w = -2 * np.real(w.conj() @ h @ wt)
        g_wt = -2 * np.real(wt.conj() @ h @ wt)
        f_w = -quad_form(w, h)
        f_wt = -quad_form(wt, h)
        assert g_w - g_wt >= f_w - f_wt - 1e-9


def test_noiseless_recovery_from_random_inits():
    rng = np.random.default_rng(75)
    sigma, w0 = noiseless_cov(8)
    blocks, factors = seq_inputs(sigma, 6)
    for _ in range(10):
        init_full = random_torus(rng, 8)
        init_new = random_torus(rng, 2)
        cfg_full = MMConfig(max_iters=2000, tol=1e-15, init=init_full)
        cfg_new = MMConfig(max_iters=2000, tol=1e-15, init=init_new)
        assert max_angle_error(
            solve_offline_kl(sigma, cfg_full).phases, anchor_reference(w0)) < 1e-5
        assert max_angle_error(
            solve_offline_frob(sigma, cfg_full).phases, anchor_reference(w0)) < 1e-5
        assert max_angle_error(
            solve_seq_kl(blocks, factors, w0[:6], cfg_new).phases, w0[6:]) < 1e-5
        assert max_angle_error(
            solve_seq_frob(blocks, w0[:6], cfg_new).phases, w0[6:]) < 1e-5


def test_sequential_concatenation_matches_offline_on_noiseless_cov():
    sigma, w0 = noiseless_cov(8)
    p = 6
    past_cov = sigma[:p, :p]
    w_past = solve_offline_kl(past_cov, TIGHT).phases
    blocks, factors = seq_inputs(sigma, p)
    for solver, offline in (
        (lambda: solve_seq_kl(blocks, factors, w_past, TIGHT),
         lambda: solve_offline_kl(sigma, TIGHT)),
        (lambda: solve_seq_frob(blocks, w_past, TIGHT),
         lambda: solve_offline_frob(sigma, TIGHT)),
    ):
        combined = np.concatenate([w_past, solver().phases])
        reference = offline().phases
        aligned = combined * np.conj(combined[0]) * reference[0]
        assert max_angle_error(aligned, reference) < 1e-5


# ---------------------------------------------------------------------------
# fast spectral-fit path: exact shift, EMI start, restarted momentum

# the acceptance scenario: l = 40 dates split 35 + 5, rho = 0.98, n = 64
SCENARIO = SimulationConfig(l=40, p=35, k=5, rho=0.98, n=64)


def scenario_plugins(spec, draws):
    """(past plug-in, full plug-in) for the first `draws` scenario draws."""
    _, _, sigma_true = ground_truth(SCENARIO)
    out = []
    for trial in range(draws):
        stack = sample_stack(sigma_true, SCENARIO,
                             np.random.SeedSequence([11, SCENARIO.n, trial]))
        out.append((estimate(stack[:, :SCENARIO.p], spec),
                    estimate(stack, spec)))
    return out


def plain_mm_kl(sigma, w_past=None, iters=20_000):
    """Reference plain MM on the spectral-fit objective, written from the
    full matrix H = Ψ⁻¹∘Σ: all-ones start, no momentum, a dense λ_max of the
    free block. With w_past, only the trailing dates move. Returns the final
    full-stack cost."""
    h = pd_inverse(abs_entrywise(sigma)) * sigma
    p = 0 if w_past is None else w_past.size
    h_free = h[p:, p:]
    fixed = h[p:, :p] @ w_past if p else 0.0
    lam = np.linalg.eigvalsh(h_free)[-1]
    w = np.ones(h.shape[0] - p, dtype=complex)
    for _ in range(iters):
        w = phase_project(lam * w - h_free @ w - fixed)
    full = w if w_past is None else np.concatenate([w_past, w])
    return quad_form(full, h)


@pytest.mark.parametrize("spec", [PluginSpec(),
                                  PluginSpec(regularizer="shrink", beta=0.5)],
                         ids=["scm", "shrink0.5"])
def test_accelerated_kl_descends_over_long_runs(spec):
    rng = np.random.default_rng(76)
    l, p = SCENARIO.l, SCENARIO.p
    # tol = 0 runs until the cost repeats exactly; the all-ones and random
    # starts take the long way, through many momentum restarts
    runs = [MMConfig(max_iters=3000, tol=0.0, init=init)
            for init in (None, np.ones(l, dtype=complex), random_torus(rng, l))]
    seq_runs = [MMConfig(max_iters=3000, tol=0.0, init=init)
                for init in (None, random_torus(rng, l - p))]
    for past_sigma, sigma in scenario_plugins(spec, 2):
        w_past = solve_offline_kl(past_sigma, BENCH_SOLVER).phases
        blocks, factors = seq_inputs(sigma, p)
        reports = ([solve_offline_kl(sigma, cfg) for cfg in runs]
                   + [solve_seq_kl(blocks, factors, w_past, cfg)
                      for cfg in seq_runs])
        for report in reports:
            trace = report.cost_trace
            rises = np.diff(trace) / np.abs(trace[:-1])
            assert np.max(rises) <= 1e-9


@pytest.mark.parametrize("spec", [PluginSpec(),
                                  PluginSpec(regularizer="shrink", beta=0.5)],
                         ids=["scm", "shrink0.5"])
def test_fast_kl_reaches_plain_mm_cost(spec):
    for past_sigma, sigma in scenario_plugins(spec, 2):
        offline = solve_offline_kl(sigma, BENCH_SOLVER)
        got = kl_cost_full(offline.phases, sigma)
        want = plain_mm_kl(sigma)
        assert got <= want + 1e-8 * abs(want)

        w_past = solve_offline_kl(past_sigma, BENCH_SOLVER).phases
        blocks, factors = seq_inputs(sigma, SCENARIO.p)
        seq = solve_seq_kl(blocks, factors, w_past, BENCH_SOLVER)
        got = kl_cost_full(np.concatenate([w_past, seq.phases]), sigma)
        want = plain_mm_kl(sigma, w_past)
        assert got <= want + 1e-8 * abs(want)


def test_fast_kl_iteration_counts_stay_low():
    offline_iters, seq_iters = [], []
    for past_sigma, sigma in scenario_plugins(PluginSpec(), 20):
        past = solve_offline_kl(past_sigma, BENCH_SOLVER)
        full = solve_offline_kl(sigma, BENCH_SOLVER)
        blocks, factors = seq_inputs(sigma, SCENARIO.p)
        seq = solve_seq_kl(blocks, factors, past.phases, BENCH_SOLVER)
        assert past.converged and full.converged and seq.converged
        offline_iters += [past.iterations, full.iterations]
        seq_iters.append(seq.iterations)
    # plain MM from all-ones takes medians of about 4700 and 650 here
    assert np.median(offline_iters) <= 300
    assert np.median(seq_iters) <= 200


# ---------------------------------------------------------------------------
# frob_mm: the stacked least-squares kernel


def frob_problems(rng, count, k=6, p=5):
    """A mix of offline (b = 0) and sequential least-squares problems with
    one shared size, including a decoupled (all-zero) coordinate."""
    hs, bs, consts = [], [], []
    for i in range(count):
        sigma = estimate(random_stack(rng, 3 * (k + p), k + p),
                         PluginSpec("po" if i % 2 else "scm"))
        if i % 3 == 0:
            sigma = sigma[:k, :k].copy()
            if i == 3:
                sigma[2, :] = sigma[:, 2] = 0.0
            hs.append(2.0 * abs_entrywise(sigma) * sigma)
            bs.append(np.zeros(k))
            consts.append(0.0)
        else:
            blocks = partition(sigma, p)
            h, b, const = frob_seq_terms(blocks.past, blocks.cross, blocks.new,
                                         random_torus(rng, p))
            hs.append(h)
            bs.append(b)
            consts.append(const)
    return np.array(hs), np.array(bs), np.array(consts)


def test_frob_mm_result_does_not_depend_on_the_batch():
    rng = np.random.default_rng(80)
    h, b, const = frob_problems(rng, 12)
    # a budget that some problems exhaust and others do not
    cfg = MMConfig(max_iters=300, tol=1e-8)
    alone = [frob_mm(h[i:i + 1], b[i:i + 1], const[i:i + 1], cfg, trace=True)
             for i in range(12)]
    assert len({int(a.iterations[0]) for a in alone}) > 3
    assert {bool(a.converged[0]) for a in alone} == {True, False}
    batches = [np.arange(12), np.arange(12)[::-1], rng.permutation(12)[:5],
               np.array([3, 3, 7]), rng.permutation(12)[:2]]
    for members in batches:
        batch = frob_mm(h[members], b[members], const[members], cfg,
                        trace=True)
        for j, i in enumerate(members):
            assert np.array_equal(batch.phases[j], alone[i].phases[0])
            assert batch.iterations[j] == alone[i].iterations[0]
            assert batch.converged[j] == alone[i].converged[0]
            steps = alone[i].iterations[0] + 1
            assert np.array_equal(batch.cost_trace[:steps, j],
                                  alone[i].cost_trace[:, 0])
            assert np.isnan(batch.cost_trace[steps:, j]).all()


def test_frob_mm_cost_trace_never_rises_and_is_the_objective():
    rng = np.random.default_rng(81)
    worst = -np.inf
    for _ in range(20):
        k, p = int(rng.integers(2, 8)), int(rng.integers(2, 8))
        sigmas = [scm(random_stack(rng, 2 * (k + p), k + p)) for _ in range(6)]
        w_past = np.array([random_torus(rng, p) for _ in sigmas])
        blocks = [partition(s, p) for s in sigmas]
        h, b, const = frob_seq_terms(
            np.array([bl.past for bl in blocks]),
            np.array([bl.cross for bl in blocks]),
            np.array([bl.new for bl in blocks]), w_past)
        cfg = MMConfig(max_iters=40, tol=0.0, init=random_torus(rng, k))
        batch = frob_mm(h, b, const, cfg, trace=True)
        for j, bl in enumerate(blocks):
            trace = batch.cost_trace[:, j]
            worst = max(worst, float(np.max(np.diff(trace)) / abs(trace[0])))
            final = frob_cost_block(w_past[j], batch.phases[j], bl)
            assert abs(trace[-1] - final) <= 1e-12 * abs(final)
    assert worst <= 1e-9


def test_frob_mm_keeps_the_previous_iterate_on_zero_coefficients():
    h = np.zeros((2, 3, 3), dtype=complex)
    h[:, :2, :2] = [[2.0, 1.0], [1.0, 2.0]]
    start = np.exp(1j * np.array([0.3, -0.2, 1.1]))
    batch = frob_mm(h, 0.0, 0.0, MMConfig(max_iters=50, tol=1e-14, init=start))
    assert np.array_equal(batch.phases[:, 2], np.full(2, start[2]))
    assert batch.converged.all()


# ---------------------------------------------------------------------------
# fit: one kernel for both objectives and both modes


def single_solve(sigma, distance, w_past, cfg):
    if w_past is None:
        solve = solve_offline_kl if distance == "kl" else solve_offline_frob
        return solve(sigma, cfg)
    blocks = partition(sigma, w_past.size)
    if distance == "frob":
        return solve_seq_frob(blocks, w_past, cfg)
    factors = schur_factors(abs_entrywise(sigma), w_past.size,
                            sigma_new=blocks.new)
    return solve_seq_kl(blocks, factors, w_past, cfg)


@pytest.mark.parametrize("sequential", [False, True])
@pytest.mark.parametrize("distance", ["kl", "frob"])
def test_fit_rows_are_single_solves_and_a_failed_row_is_nan(distance,
                                                            sequential):
    rng = np.random.default_rng(90)
    l, p = 6, 4
    sigma = np.array([scm(random_stack(rng, 3 * l, l)) for _ in range(4)])
    # problem 1: |Σ| holds [[1, 2], [2, 1]], which is not positive definite
    sigma[1] = np.eye(l)
    sigma[1, :2, :2] = [[1.0, 2.0], [2.0, 1.0]]
    w_past = np.array([random_torus(rng, p) for _ in sigma]) if sequential else None
    cfg = MMConfig(max_iters=200, tol=1e-12)
    batch = fit(sigma.copy(), cfg, distance, w_past)
    assert batch.phases.shape == (4, l - p if sequential else l)
    failed = []
    for i in range(4):
        try:
            report = single_solve(sigma[i], distance,
                                  None if w_past is None else w_past[i], cfg)
        except SeqlinkError:
            failed.append(i)
            assert np.isnan(batch.phases[i]).all()
            assert batch.iterations[i] == 0 and not batch.converged[i]
            continue
        assert np.array_equal(batch.phases[i], report.phases)
        assert batch.iterations[i] == report.iterations
        assert batch.converged[i] == report.converged
    # least squares inverts nothing, so only the spectral fit fails
    assert failed == ([1] if distance == "kl" else [])


def test_fit_rejects_an_unknown_distance():
    with pytest.raises(ValueError, match="cosine"):
        fit(np.eye(3, dtype=complex)[None], MMConfig(), "cosine")
