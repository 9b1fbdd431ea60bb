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
    torus_mm,
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
import seqlink.solvers
from seqlink.solvers import frob_seq_terms, kl_seq_terms


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


def bordered(h, b):
    """torus_mm's (B, k+1, k+1) stack [[H, b], [bᴴ, 0]] of a (B, k, k) H
    and a (B, k) b (or anything that broadcasts, such as 0)."""
    count, dim = len(h), h.shape[-1]
    mat = np.empty((count, dim + 1, dim + 1), dtype=complex)
    mat[:, :dim, :dim] = h
    mat[:, :dim, dim] = b
    mat[:, dim, :dim] = np.conj(b)
    mat[:, dim, dim] = 0.0
    return mat


def moduli(mat):
    """Σ|mat_ij| of each bordered matrix of a stack: MMConfig's S."""
    return np.abs(mat).sum(axis=(-2, -1))


def run_mm(mat, cfg, trace=False, **kwargs):
    """torus_mm with each problem's S read off its bordered matrix."""
    return torus_mm(mat, cfg, trace, scale=moduli(mat), **kwargs)


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
    factors = schur_factors(abs_entrywise(sigma), p)
    return blocks, factors


def test_kl_seq_terms_read_only_d_inv_and_a():
    rng = np.random.default_rng(10)
    sigma = scm(random_stack(rng, 18, 6)) + 0.2 * np.eye(6)
    blocks, factors = seq_inputs(sigma, 4)
    w_past = random_torus(rng, 4)
    mat, m_mat, _ = kl_seq_terms(blocks, factors, w_past)
    assert np.array_equal(m_mat, factors.d_inv * blocks.new)
    assert np.array_equal(mat[:2, :2], -m_mat)
    n_vec = mat[:2, 2]
    assert np.allclose(n_vec, -(factors.a_mat * blocks.cross) @ w_past,
                       rtol=0.0, atol=1e-14)
    assert np.array_equal(mat[2, :2], np.conj(n_vec)) and mat[2, 2] == 0.0


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
        w_past = solve_offline_kl(past_sigma, MMConfig()).phases
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
        offline = solve_offline_kl(sigma, MMConfig())
        got = kl_cost_full(offline.phases, sigma)
        want = plain_mm_kl(sigma)
        assert got <= want + 1e-8 * abs(want)

        w_past = solve_offline_kl(past_sigma, MMConfig()).phases
        blocks, factors = seq_inputs(sigma, SCENARIO.p)
        seq = solve_seq_kl(blocks, factors, w_past, MMConfig())
        got = kl_cost_full(np.concatenate([w_past, seq.phases]), sigma)
        want = plain_mm_kl(sigma, w_past)
        assert got <= want + 1e-8 * abs(want)


def test_fast_kl_iteration_counts_stay_low():
    offline_iters, seq_iters = [], []
    for past_sigma, sigma in scenario_plugins(PluginSpec(), 20):
        past = solve_offline_kl(past_sigma, MMConfig())
        full = solve_offline_kl(sigma, MMConfig())
        blocks, factors = seq_inputs(sigma, SCENARIO.p)
        seq = solve_seq_kl(blocks, factors, past.phases, MMConfig())
        assert past.converged and full.converged and seq.converged
        offline_iters += [past.iterations, full.iterations]
        seq_iters.append(seq.iterations)
    # plain MM from all-ones takes medians of about 4700 and 650 here
    assert np.median(offline_iters) <= 300
    assert np.median(seq_iters) <= 200


# ---------------------------------------------------------------------------
# torus_mm on least-squares problems


def frob_problems(rng, count, k=6, p=5):
    """A mix of offline (b = 0) and sequential least-squares problems with
    one shared size, including a decoupled (all-zero) coordinate."""
    hs, bs = [], []
    for i in range(count):
        sigma = estimate(random_stack(rng, 3 * (k + p), k + p),
                         PluginSpec("po" if i % 2 else "scm"))
        if i % 3 == 0:
            sigma = sigma[:k, :k].copy()
            if i == 3:
                sigma[2, :] = sigma[:, 2] = 0.0
            hs.append(2.0 * abs_entrywise(sigma) * sigma)
            bs.append(np.zeros(k))
        else:
            blocks = partition(sigma, p)
            mat, _ = frob_seq_terms(blocks.cross, blocks.new,
                                    random_torus(rng, p))
            hs.append(mat[:k, :k])
            bs.append(mat[:k, k])
    return np.array(hs), np.array(bs)


def test_frob_mm_result_does_not_depend_on_the_batch():
    rng = np.random.default_rng(80)
    h, b = frob_problems(rng, 12)
    # a budget that some problems exhaust and others do not
    cfg = MMConfig(max_iters=300, tol=1e-8)
    alone = [run_mm(bordered(h[i:i + 1], b[i:i + 1]), cfg, trace=True)
             for i in range(12)]
    assert len({int(a.iterations[0]) for a in alone}) > 3
    assert {bool(a.converged[0]) for a in alone} == {True, False}
    batches = [np.arange(12), np.arange(12)[::-1], rng.permutation(12)[:5],
               np.array([3, 3, 7]), rng.permutation(12)[:2]]
    for members in batches:
        batch = run_mm(bordered(h[members], b[members]), cfg, trace=True)
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
        mat, scale = frob_seq_terms(np.array([bl.cross for bl in blocks]),
                                    np.array([bl.new for bl in blocks]),
                                    w_past)
        cfg = MMConfig(max_iters=40, tol=0.0, init=random_torus(rng, k))
        batch = torus_mm(mat, cfg, trace=True, scale=scale)
        for j, bl in enumerate(blocks):
            # torus_mm leaves out the constant past term; add it back
            const = -2.0 * quad_form(w_past[j],
                                     abs_entrywise(bl.past) * bl.past)
            trace = batch.cost_trace[:, j] + const
            worst = max(worst, float(np.max(np.diff(trace)) / abs(trace[0])))
            final = frob_cost_block(w_past[j], batch.phases[j], bl)
            assert abs(trace[-1] - final) <= 1e-12 * abs(final)
    assert worst <= 1e-9


def test_frob_mm_keeps_the_previous_iterate_on_zero_coefficients():
    h = np.zeros((2, 3, 3), dtype=complex)
    h[:, :2, :2] = [[2.0, 1.0], [1.0, 2.0]]
    start = np.exp(1j * np.array([0.3, -0.2, 1.1]))
    batch = run_mm(bordered(h, 0.0),
                   MMConfig(max_iters=50, tol=1e-14, init=start))
    assert np.array_equal(batch.phases[:, 2], np.full(2, start[2]))
    assert batch.converged.all()


def reference_plain_mm(h, b, cfg):
    """Plain least-squares MM on one problem, written out step by step:
    the bordered matrix [[H, b], [bᴴ, 0]], w⁺ = Φ(H w + b) keeping w on
    zero coefficients, and MMConfig's stopping rule, |Δcost| <= tol·max(1,
    S) with S the sum of the moduli of the bordered matrix. The arithmetic
    torus_mm must keep without a shift. Returns (phases, iterations,
    converged)."""
    dim = len(h)
    mat = np.empty((1, dim + 1, dim + 1), dtype=complex)
    mat[0, :dim, :dim] = h
    mat[0, :dim, dim] = b
    mat[0, dim, :dim] = np.conj(b)
    mat[0, dim, dim] = 0.0
    bound = cfg.tol * max(1.0, np.abs(mat).sum())
    w = np.ones((1, dim + 1), dtype=complex)
    if cfg.init is not None:
        w[0, :dim] = cfg.init
    u = np.matvec(mat, w)
    gain = np.vecdot(w, u).real[0]
    for step in range(1, cfg.max_iters + 1):
        v = u[:, :dim]
        mod = np.abs(v)
        np.divide(v, mod, out=w[:, :dim], where=mod > 0)
        u = np.matvec(mat, w)
        prev, gain = gain, np.vecdot(w, u).real[0]
        if abs(gain - prev) <= bound:
            return w[0, :dim], step, True
    return w[0, :dim], cfg.max_iters, False


def test_frob_mm_without_shift_is_the_reference_plain_mm():
    rng = np.random.default_rng(82)
    h, b = frob_problems(rng, 12)
    for cfg in (MMConfig(max_iters=300, tol=1e-8),
                MMConfig(max_iters=40, tol=0.0, init=random_torus(rng, 6))):
        batch = run_mm(bordered(h, b), cfg)
        for i in range(12):
            phases, iterations, converged = reference_plain_mm(h[i], b[i],
                                                               cfg)
            assert np.array_equal(batch.phases[i], phases)
            assert batch.iterations[i] == iterations
            assert batch.converged[i] == converged


# ---------------------------------------------------------------------------
# the stopping rule: |Δcost| <= tol·max(1, S), S = Σ|mat_ij|


@pytest.mark.parametrize("p", [0, 4])
def test_term_builders_return_the_moduli_of_their_stacks(p):
    """Each builder's S is the sum of the moduli of the bordered stack it
    builds, to rounding: the spectral fit's, and the least-squares fit's
    from whole plug-ins and from their last rows."""
    rng = np.random.default_rng(83)
    l, count = 9, 6
    sigma = np.array([scm(random_stack(rng, 3 * l, l)) for _ in range(count)])
    w_past = np.array([random_torus(rng, p) for _ in range(count)])
    blocks, rows = partition(sigma, p), partition(sigma[:, p:], p)
    mat, _, scale = kl_seq_terms(
        blocks, schur_factors(abs_entrywise(sigma), p), w_past)
    built = [(mat, scale)] + [frob_seq_terms(bl.cross, bl.new, w_past)
                              for bl in (blocks, rows)]
    for mat, scale in built:
        assert mat.shape == (count, l - p + 1, l - p + 1)
        assert np.allclose(scale, moduli(mat), rtol=1e-13, atol=0.0)


def cost_relative_stop(tol):
    """_stopped_each under the rule S replaced, |Δcost| <= tol·max(1,
    |cost|), which ignores the bound it is given."""
    def stopped(gain, prev, bound, live):
        done = np.abs(gain - prev) <= tol * np.maximum(1.0, np.abs(gain))
        done &= live
        return done if done.any() else None
    return stopped


def test_no_fit_takes_more_iterations_than_under_a_cost_relative_rule(
        monkeypatch):
    """S bounds |cost| on the torus, so no problem stops later than under a
    rule relative to its cost; the spectral fits, whose costs are far below
    their S, stop earlier."""
    rng = np.random.default_rng(84)
    l, p, count = 12, 8, 16
    sigma = np.array([estimate(random_stack(rng, 2 * l, l),
                               PluginSpec("po" if i % 2 else "scm"))
                      for i in range(count)])
    w_past = np.array([random_torus(rng, p) for _ in range(count)])
    cfg = MMConfig(tol=1e-14)
    cases = [(distance, past) for distance in ("kl", "frob")
             for past in (None, w_past)]
    new = [fit(sigma, cfg, distance, past) for distance, past in cases]
    monkeypatch.setattr(seqlink.solvers, "_stopped_each",
                        cost_relative_stop(cfg.tol))
    old = [fit(sigma, cfg, distance, past) for distance, past in cases]
    for (distance, _), ours, theirs in zip(cases, new, old):
        assert ours.converged.all() and theirs.converged.all()
        assert (ours.iterations <= theirs.iterations).all()
        if distance == "kl":
            assert ours.iterations.sum() < theirs.iterations.sum()


def test_a_kl_fit_whose_cost_is_far_below_its_scale_stops_at_its_bound():
    """An offline spectral fit at forty dates has |cost| well under one
    percent of S; it stops at the first step whose cost change is within
    tol·S, where a rule relative to |cost| would go on."""
    sim = SimulationConfig(l=40, p=35, k=5, rho=0.98, n=64, seed=5)
    _, _, sigma_true = ground_truth(sim)
    sigma = scm(sample_stack(sigma_true, sim))
    _, _, scale = kl_seq_terms(partition(sigma[None], 0),
                               schur_factors(abs_entrywise(sigma[None]), 0),
                               np.ones((1, 0)))
    cfg = MMConfig(tol=1e-14)
    report = solve_offline_kl(sigma, cfg)
    changes = np.abs(np.diff(report.cost_trace))
    assert report.converged
    assert scale[0] > 100.0 * abs(report.cost_trace[-1])
    assert np.flatnonzero(changes <= cfg.tol * scale[0])[0] == (
        report.iterations - 1)
    assert changes[-1] > cfg.tol * abs(report.cost_trace[-1])


# ---------------------------------------------------------------------------
# torus_mm on spectral-fit problems: shifted steps, restarted momentum


def test_momentum_traces_never_rise_with_restarts_at_different_steps(
        monkeypatch):
    rng = np.random.default_rng(92)
    l, count = 10, 8
    sigma = np.array([scm(random_stack(rng, 2 * l, l)) for _ in range(count)])
    h = pd_inverse(abs_entrywise(sigma)) * sigma
    lam = np.linalg.eigvalsh(h)[:, -1]
    starts = np.array([random_torus(rng, l) for _ in range(count)])
    cfg = MMConfig(max_iters=400, tol=0.0)
    calls = []
    step = seqlink.solvers._shifted_step

    def counted_step(mat, *args):
        calls.append(len(mat))
        return step(mat, *args)

    monkeypatch.setattr(seqlink.solvers, "_shifted_step", counted_step)
    restarts = []
    for i in range(count):
        calls.clear()
        one = run_mm(bordered(-h[i:i + 1], 0.0), cfg, shift=lam[i:i + 1],
                     w0=starts[i:i + 1])
        # one step per iteration, plus one plain step per restart
        restarts.append(len(calls) - int(one.iterations[0]))
    assert min(restarts) > 0 and len(set(restarts)) > 1
    batch = run_mm(bordered(-h, 0.0), cfg, trace=True, shift=lam,
                   w0=starts)
    for j in range(count):
        trace = batch.cost_trace[:, j]
        trace = trace[~np.isnan(trace)]
        assert np.max(np.diff(trace) / np.abs(trace[:-1])) <= 1e-9


def record_steps(monkeypatch):
    """Patch torus_mm's momentum steps to log, per MM step from step 2 on,
    the stack size of each shifted step: one entry, or two on a step whose
    momentum restarted. Returns finish(), which undoes the patches and
    returns the per-step lists."""
    events = []
    step, next_t = seqlink.solvers._shifted_step, seqlink.solvers._next_t

    def logged_step(mat, *args):
        events.append(len(mat))
        return step(mat, *args)

    def logged_t(t):
        events.append("t")
        return next_t(t)

    monkeypatch.setattr(seqlink.solvers, "_shifted_step", logged_step)
    monkeypatch.setattr(seqlink.solvers, "_next_t", logged_t)

    def finish():
        monkeypatch.undo()
        steps, current = [], None
        for event in events[1:]:  # events[0] is step 1, the plain step
            if event == "t":
                current = []
                steps.append(current)
            else:
                current.append(event)
        return steps

    return finish


def assert_rows_are_single_solves(batch, h, b, shift, cfg):
    for i in range(len(h)):
        one = run_mm(bordered(h[i:i + 1], b[i:i + 1]), cfg, trace=True,
                     shift=None if shift is None else shift[i:i + 1])
        steps = int(one.iterations[0]) + 1
        assert np.array_equal(batch.phases[i], one.phases[0])
        assert batch.iterations[i] == one.iterations[0]
        assert batch.converged[i] == one.converged[0]
        assert np.array_equal(batch.cost_trace[:steps, i],
                              one.cost_trace[:, 0])
        assert np.isnan(batch.cost_trace[steps:, i]).all()


def test_torus_mm_compaction_keeps_each_problem_its_single_solve(monkeypatch):
    """More than half of each stack stops at step 1 (a diagonal H leaves the
    all-ones start fixed), so the stack is compacted there; with a KL shift,
    it is compacted again at a step where a remaining problem's momentum
    restarts."""
    rng = np.random.default_rng(93)
    dim, fixed = 6, 3
    diagonal = np.array([np.diag(rng.uniform(1.0, 2.0, dim))
                         for _ in range(fixed)])

    # least squares, shift None
    h, b = frob_problems(rng, 4, k=dim)
    h = np.concatenate([diagonal, h[1:3]])
    b = np.concatenate([np.zeros((fixed, dim)), b[1:3]])
    cfg = MMConfig(max_iters=400, tol=1e-14)
    batch = run_mm(bordered(h, b), cfg, trace=True)
    assert (batch.iterations[:fixed] == 1).all()
    assert (batch.iterations[fixed:] > 10).all()
    assert_rows_are_single_solves(batch, h, b, None, cfg)

    # spectral fit: find a problem y whose momentum restarts at the step
    # where another problem z stops
    sigma = np.array([scm(random_stack(rng, 2 * dim, dim)) for _ in range(12)])
    kl_h = pd_inverse(abs_entrywise(sigma)) * sigma
    lam = np.linalg.eigvalsh(kl_h)[:, -1]
    cfg = MMConfig(max_iters=2000, tol=1e-13)
    stops, restarts = [], []
    for i in range(len(sigma)):
        finish = record_steps(monkeypatch)
        one = run_mm(bordered(-kl_h[i:i + 1], 0.0), cfg,
                     shift=lam[i:i + 1])
        stops.append(int(one.iterations[0]))
        restarts.append({n + 2 for n, sizes in enumerate(finish())
                         if len(sizes) == 2})
    y, z = next((y, z) for y in range(len(sigma)) for z in range(len(sigma))
                if stops[z] in restarts[y] and stops[y] > stops[z])
    h = -np.concatenate([diagonal, kl_h[[y, z]]])
    shift = np.concatenate([np.full(fixed, 2.0), lam[[y, z]]])
    b = np.zeros((len(h), dim))
    finish = record_steps(monkeypatch)
    batch = run_mm(bordered(h, 0.0), cfg, trace=True, shift=shift)
    steps = finish()
    # compacted to y and z after step 1, to y alone after z's stop, which is
    # a step where y's momentum restarts
    assert steps[0] == [2]
    assert steps[stops[z] - 2] == [2, 1]
    assert steps[stops[z] - 1] == [1]
    assert (batch.iterations[:fixed] == 1).all()
    assert_rows_are_single_solves(batch, h, b, shift, cfg)


@pytest.mark.parametrize("sequential", [False, True])
def test_kl_fit_rows_are_their_single_solves_in_any_batch(sequential):
    rng = np.random.default_rng(91)
    l, p, count = 7, 5, 10
    specs = (PluginSpec(), PluginSpec("po"),
             PluginSpec(regularizer="shrink", beta=0.5))
    sigma = np.array([estimate(random_stack(rng, 2 * l, l), specs[i % 3])
                      for i in range(count)])
    w_past = (np.array([random_torus(rng, p) for _ in range(count)])
              if sequential else None)
    # a budget that some problems exhaust and others do not
    cfg = MMConfig(max_iters=20 if sequential else 38, tol=1e-13)
    alone = [single_solve(sigma[i], "kl",
                          None if w_past is None else w_past[i], cfg)
             for i in range(count)]
    assert len({a.iterations for a in alone}) > 3
    assert {a.converged for a in alone} == {True, False}
    for members in (np.arange(count), np.arange(count)[::-1],
                    rng.permutation(count)[:4], np.array([2, 2, 7])):
        batch = fit(sigma[members], cfg, "kl",
                    None if w_past is None else w_past[members])
        for j, i in enumerate(members):
            assert np.array_equal(batch.phases[j], alone[i].phases)
            assert batch.iterations[j] == alone[i].iterations
            assert batch.converged[j] == alone[i].converged


# ---------------------------------------------------------------------------
# fit: one kernel for both objectives and both modes


def single_solve(sigma, distance, w_past, cfg):
    if w_past is None:
        solve = solve_offline_kl if distance == "kl" else solve_offline_frob
        return solve(sigma, cfg)
    blocks = partition(sigma, w_past.size)
    if distance == "frob":
        return solve_seq_frob(blocks, w_past, cfg)
    factors = schur_factors(abs_entrywise(sigma), w_past.size)
    return solve_seq_kl(blocks, factors, w_past, cfg)


@pytest.mark.parametrize("sequential", [False, True])
@pytest.mark.parametrize("distance", ["kl", "frob"])
def test_fit_rows_are_single_solves_and_a_failed_row_is_nan(distance,
                                                            sequential):
    rng = np.random.default_rng(90)
    l, p = 6, 4
    sigma = np.array([scm(random_stack(rng, 3 * l, l)) for _ in range(7)])
    # problems 1 and 5, in both halves of the stack: |Σ| holds
    # [[1, 2], [2, 1]], which is not positive definite
    sigma[[1, 5]] = np.eye(l)
    sigma[[1, 5], :2, :2] = [[1.0, 2.0], [2.0, 1.0]]
    w_past = np.array([random_torus(rng, p) for _ in sigma]) if sequential else None
    cfg = MMConfig(max_iters=200, tol=1e-12)
    batch = fit(sigma.copy(), cfg, distance, w_past)
    assert batch.phases.shape == (7, l - p if sequential else l)
    failed = []
    for i in range(7):
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
    assert failed == ([1, 5] if distance == "kl" else [])


@pytest.mark.parametrize("distance, past", [
    ("kl", "offline"), ("kl", "update"), ("frob", "offline"),
    ("frob", "update"), ("frob", "rows")])
def test_fit_reads_a_read_only_stack_and_leaves_it_unchanged(distance, past):
    """fit never writes its input: a read-only stack (one problem of which,
    under the spectral fit, fails and is rerun alone) fits as a writable
    copy does. "rows" is a least-squares update given only the new rows."""
    rng = np.random.default_rng(97)
    l, p = 7, 4
    sigma = np.array([scm(random_stack(rng, 3 * l, l)) for _ in range(4)])
    sigma[1] = np.eye(l)
    sigma[1, :2, :2] = [[1.0, 2.0], [2.0, 1.0]]  # |Σ| not positive definite
    if past == "rows":
        sigma = sigma[:, p:].copy()
    w_past = (None if past == "offline"
              else np.array([random_torus(rng, p) for _ in sigma]))
    cfg = MMConfig(max_iters=200, tol=1e-12)
    expected = fit(sigma.copy(), cfg, distance, w_past)
    frozen = sigma.copy()
    frozen.flags.writeable = False
    batch = fit(frozen, cfg, distance, w_past)
    assert np.array_equal(frozen, sigma)
    assert np.array_equal(batch.phases, expected.phases, equal_nan=True)
    assert np.array_equal(batch.iterations, expected.iterations)
    assert np.isnan(batch.phases[1]).all() == (distance == "kl")


def direct_offline(sigma, distance, cfg):
    """One offline problem written from the whole matrix: H = 2(|Σ|∘Σ) with
    plain steps, or H = Ψ⁻¹∘Σ shifted by its largest eigenvalue from the
    EMI start; the phases anchored to date 0."""
    if distance == "frob":
        batch = run_mm(bordered(2.0 * abs_entrywise(sigma) * sigma, 0.0),
                       cfg)
    else:
        h = pd_inverse(abs_entrywise(sigma)) * sigma
        vals, vecs = np.linalg.eigh(h)
        batch = run_mm(bordered(-h, 0.0), cfg, shift=vals[:, -1],
                       w0=phase_project(vecs[..., 0]))
    batch.phases = anchor_reference(batch.phases)
    return batch


@pytest.mark.parametrize("distance", ["kl", "frob"])
def test_fit_from_an_empty_past_is_the_offline_fit(distance):
    rng = np.random.default_rng(95)
    l, count = 7, 5
    sigma = np.array([scm(random_stack(rng, 3 * l, l)) for _ in range(count)])
    # problem 2: |Σ| is not positive definite, so its spectral fit fails
    sigma[2] = np.eye(l)
    sigma[2, :2, :2] = [[1.0, 2.0], [2.0, 1.0]]
    cfg = MMConfig(max_iters=300, tol=1e-12)
    empty = fit(sigma.copy(), cfg, distance, np.ones((count, 0)))
    offline = fit(sigma.copy(), cfg, distance)
    for name in ("phases", "iterations", "converged"):
        assert np.array_equal(getattr(empty, name), getattr(offline, name),
                              equal_nan=name == "phases")
    for i in range(count):
        if distance == "kl" and i == 2:
            # a failed row stays all-NaN: anchoring never writes into it
            assert np.isnan(empty.phases[i]).all()
            assert empty.iterations[i] == 0 and not empty.converged[i]
            continue
        direct = direct_offline(sigma[i:i + 1], distance, cfg)
        assert np.array_equal(empty.phases[i], direct.phases[0])
        assert empty.iterations[i] == direct.iterations[0]
        assert empty.phases[i, 0] == 1.0


def test_fit_rejects_an_unknown_distance():
    with pytest.raises(ValueError, match="cosine"):
        fit(np.eye(3, dtype=complex)[None], MMConfig(), "cosine")


def test_frob_update_reads_no_past_block():
    """Two stacks that differ only in their Hermitian past blocks, one with
    a constant past term a hundred times larger, fit to the same bits."""
    rng = np.random.default_rng(94)
    l, p, count = 9, 6, 8
    sigma = np.array([scm(random_stack(rng, 2 * l, l)) for _ in range(count)])
    other = sigma.copy()
    other[:, :p, :p] = [100.0 * scm(random_stack(rng, 2 * p, p))
                        for _ in range(count)]
    w_past = np.array([random_torus(rng, p) for _ in range(count)])
    cfg = MMConfig(max_iters=5000, tol=1e-10)
    first = fit(sigma, cfg, "frob", w_past)
    second = fit(other, cfg, "frob", w_past)
    assert first.converged.all()
    assert np.array_equal(first.phases, second.phases)
    assert np.array_equal(first.iterations, second.iterations)


def test_frob_fit_of_the_last_rows_is_the_fit_of_the_whole_plugins():
    """A least-squares fit given only the k new rows of its plug-ins fits
    them to the same bits; a spectral fit refuses rows."""
    rng = np.random.default_rng(97)
    l, p, count = 9, 6, 8
    sigma = np.array([scm(random_stack(rng, 2 * l, l)) for _ in range(count)])
    w_past = np.array([random_torus(rng, p) for _ in range(count)])
    cfg = MMConfig(max_iters=5000, tol=1e-10)
    whole = fit(sigma.copy(), cfg, "frob", w_past)
    rows = fit(sigma[:, p:].copy(), cfg, "frob", w_past)
    assert whole.converged.all()
    assert np.array_equal(rows.phases, whole.phases)
    assert np.array_equal(rows.iterations, whole.iterations)
    with pytest.raises(ValueError, match="spectral fit"):
        fit(sigma[:, p:].copy(), cfg, "kl", w_past)


def test_kl_update_inverts_nothing_wider_than_the_new_block(monkeypatch):
    rng = np.random.default_rng(96)
    l, p, count = 35, 30, 8
    sigma = np.array([scm(random_stack(rng, 3 * l, l)) for _ in range(count)])
    w_past = np.array([random_torus(rng, p) for _ in range(count)])
    widths = []
    inv = np.linalg.inv

    def spy(a):
        widths.append(np.shape(a)[-1])
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", spy)
    batch = fit(sigma, MMConfig(), "kl", w_past)
    assert batch.converged.all()
    assert widths and max(widths) <= l - p


def test_kl_update_never_forms_the_past_corner_of_the_inverse(monkeypatch):
    def refuse(self):
        raise AssertionError("a sequential fit formed F⁻¹")

    monkeypatch.setattr(seqlink.linalg.SchurFactors, "f_inv", refuse)
    rng = np.random.default_rng(95)
    l, p, count = 9, 6, 5
    sigma = np.array([scm(random_stack(rng, 3 * l, l)) for _ in range(count)])
    w_past = np.array([random_torus(rng, p) for _ in range(count)])
    batch = fit(sigma, MMConfig(), "kl", w_past)
    assert batch.phases.shape == (count, l - p)
    assert batch.converged.all()
