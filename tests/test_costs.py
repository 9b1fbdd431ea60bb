"""Objective-function tests: full vs block forms, scalar-loop oracles,
closed 2x2 forms, phase invariance and noiseless minimality."""
import numpy as np
import pytest

from seqlink import abs_entrywise, partition, schur_factors
from seqlink.costs import frob_cost_block, frob_cost_full, kl_cost_block, kl_cost_full
from seqlink.plugins import phase_only, scm, shrink_to_identity


def random_stack(rng, n, l):
    return (rng.standard_normal((n, l)) + 1j * rng.standard_normal((n, l))) / np.sqrt(2)


def random_plugin(rng, l):
    """A well-conditioned covariance plug-in of one of the solvable kinds."""
    stack = random_stack(rng, 4 * l, l)
    sigma = scm(stack) if rng.random() < 0.5 else phase_only(stack)
    if rng.random() < 0.5:
        sigma = shrink_to_identity(sigma, rng.uniform(0.7, 1.0))
    return sigma


def random_torus(rng, dim):
    return np.exp(1j * rng.uniform(-np.pi, np.pi, dim))


def quad_loop(w, m):
    """Scalar double-loop oracle for Re(wᴴ M w)."""
    total = 0.0 + 0.0j
    for i in range(len(w)):
        for j in range(len(w)):
            total += np.conj(w[i]) * m[i, j] * w[j]
    return total.real


# ---------------------------------------------------------------------------
# full forms


def test_kl_cost_full_identity_cov_counts_dates():
    rng = np.random.default_rng(40)
    w = random_torus(rng, 5)
    assert np.isclose(kl_cost_full(w, np.eye(5, dtype=complex), jitter=0.0), 5.0,
                      atol=1e-12)


def test_kl_cost_full_matches_double_loop_oracle():
    rng = np.random.default_rng(41)
    sigma = random_plugin(rng, 6)
    w = random_torus(rng, 6)
    psi_inv = np.linalg.inv(abs_entrywise(sigma))
    expected = quad_loop(w, psi_inv * sigma)
    assert np.isclose(kl_cost_full(w, sigma, jitter=0.0), expected, rtol=1e-10)


def test_frob_cost_full_at_generative_truth_is_core_energy():
    rng = np.random.default_rng(42)
    psi = abs_entrywise(scm(random_stack(rng, 24, 5)))
    w0 = random_torus(rng, 5)
    sigma = psi * np.outer(w0, w0.conj())
    expected = -2.0 * np.sum(psi**2)
    assert np.isclose(frob_cost_full(w0, sigma), expected, rtol=1e-12)


def test_frob_cost_full_identity_cov():
    rng = np.random.default_rng(43)
    w = random_torus(rng, 7)
    assert np.isclose(frob_cost_full(w, np.eye(7, dtype=complex)), -14.0, atol=1e-12)


def test_frob_cost_full_matches_double_loop_oracle():
    rng = np.random.default_rng(44)
    sigma = random_plugin(rng, 6)
    w = random_torus(rng, 6)
    expected = -2.0 * quad_loop(w, abs_entrywise(sigma) * sigma)
    assert np.isclose(frob_cost_full(w, sigma), expected, rtol=1e-12)


# ---------------------------------------------------------------------------
# block forms


def test_kl_cost_block_identity_cov_counts_dates():
    rng = np.random.default_rng(45)
    sigma = np.eye(9, dtype=complex)
    blocks = partition(sigma, 6)
    factors = schur_factors(abs_entrywise(sigma), 6, jitter=0.0)
    w = random_torus(rng, 6)
    w_new = random_torus(rng, 3)
    assert np.isclose(kl_cost_block(w, w_new, blocks, factors), 9.0, atol=1e-12)


def test_kl_cost_block_two_by_two_hand_formula():
    rho, phi = 0.8, 0.6
    sigma = np.array([[1.0, rho * np.exp(-1j * phi)],
                      [rho * np.exp(1j * phi), 1.0]])
    blocks = partition(sigma, 1)
    factors = schur_factors(abs_entrywise(sigma), 1, jitter=0.0)
    w_past = np.array([np.exp(1j * 0.3)])
    w_new = np.array([np.exp(1j * 1.1)])
    d = 1 - rho**2
    # F⁻¹Σ_p|w|² + 2Re(w̄* A Σ_pn w) + D⁻¹Σ_n|w̄|², with A = -ρ/d
    hand = (1 / d
            + 2 * np.real(np.conj(w_new[0]) * (-rho / d) * sigma[1, 0] * w_past[0])
            + 1 / d)
    assert np.isclose(kl_cost_block(w_past, w_new, blocks, factors), hand,
                      rtol=1e-12)


def test_kl_cost_block_equals_full_form():
    rng = np.random.default_rng(46)
    sigma = random_plugin(rng, 10)
    w = random_torus(rng, 10)
    blocks = partition(sigma, 7)
    factors = schur_factors(abs_entrywise(sigma), 7)
    block_val = kl_cost_block(w[:7], w[7:], blocks, factors)
    full_val = kl_cost_full(w, sigma)
    assert abs(block_val - full_val) <= 1e-10 * abs(full_val)


def test_frob_cost_block_identity_cov():
    rng = np.random.default_rng(47)
    blocks = partition(np.eye(9, dtype=complex), 4)
    w = random_torus(rng, 4)
    w_new = random_torus(rng, 5)
    assert np.isclose(frob_cost_block(w, w_new, blocks), -18.0, atol=1e-12)


def test_frob_cost_block_equals_full_form():
    rng = np.random.default_rng(48)
    sigma = random_plugin(rng, 10)
    w = random_torus(rng, 10)
    blocks = partition(sigma, 4)
    block_val = frob_cost_block(w[:4], w[4:], blocks)
    full_val = frob_cost_full(w, sigma)
    assert abs(block_val - full_val) <= 1e-12 * abs(full_val)


def test_frob_cost_block_separates_when_cross_block_vanishes():
    rng = np.random.default_rng(49)
    sigma_p = scm(random_stack(rng, 12, 4))
    sigma_n = scm(random_stack(rng, 12, 3))
    sigma = np.zeros((7, 7), dtype=complex)
    sigma[:4, :4] = sigma_p
    sigma[4:, 4:] = sigma_n
    blocks = partition(sigma, 4)
    w = random_torus(rng, 4)
    w_new = random_torus(rng, 3)
    total = frob_cost_block(w, w_new, blocks)
    past_alone = frob_cost_full(w, sigma_p)
    new_alone = frob_cost_full(w_new, sigma_n)
    assert np.isclose(total, past_alone + new_alone, rtol=1e-12)


# ---------------------------------------------------------------------------
# invariants


def test_block_full_equality_many_random_plugins():
    rng = np.random.default_rng(50)
    for _ in range(30):
        l = int(rng.integers(2, 17))
        sigma = random_plugin(rng, l)
        w = random_torus(rng, l)
        for p in range(1, l):
            blocks = partition(sigma, p)
            factors = schur_factors(abs_entrywise(sigma), p)
            kl_b = kl_cost_block(w[:p], w[p:], blocks, factors)
            kl_f = kl_cost_full(w, sigma)
            assert abs(kl_b - kl_f) <= 1e-9 * abs(kl_f)
            fr_b = frob_cost_block(w[:p], w[p:], blocks)
            fr_f = frob_cost_full(w, sigma)
            assert abs(fr_b - fr_f) <= 1e-9 * abs(fr_f)


def test_costs_invariant_under_global_phase():
    rng = np.random.default_rng(51)
    sigma = random_plugin(rng, 8)
    w = random_torus(rng, 8)
    blocks = partition(sigma, 5)
    factors = schur_factors(abs_entrywise(sigma), 5)
    rot = np.exp(1j * rng.uniform(-np.pi, np.pi))
    for fn, args in (
        (kl_cost_full, (sigma,)),
        (frob_cost_full, (sigma,)),
    ):
        base = fn(w, *args)
        rotated = fn(rot * w, *args)
        assert abs(base - rotated) <= 1e-10 * abs(base)
    base = kl_cost_block(w[:5], w[5:], blocks, factors)
    rotated = kl_cost_block(rot * w[:5], rot * w[5:], blocks, factors)
    assert abs(base - rotated) <= 1e-10 * abs(base)
    base = frob_cost_block(w[:5], w[5:], blocks)
    rotated = frob_cost_block(rot * w[:5], rot * w[5:], blocks)
    assert abs(base - rotated) <= 1e-10 * abs(base)


@pytest.mark.parametrize("l", [2, 3])
def test_frob_cost_minimized_at_truth_on_noiseless_cov(l):
    rng = np.random.default_rng(52)
    psi = abs_entrywise(scm(random_stack(rng, 20, l))) + l * np.eye(l)
    psi = (psi + psi.T) / 2
    theta0 = np.concatenate([[0.0], rng.uniform(-np.pi, np.pi, l - 1)])
    w0 = np.exp(1j * theta0)
    sigma = psi * np.outer(w0, w0.conj())
    cost_at_truth = frob_cost_full(w0, sigma)
    grid = np.linspace(-np.pi, np.pi, 100, endpoint=False)
    if l == 2:
        candidates = np.stack(
            [np.zeros(100), grid], axis=1)
    else:
        g1, g2 = np.meshgrid(grid, grid, indexing="ij")
        candidates = np.stack(
            [np.zeros(g1.size), g1.ravel(), g2.ravel()], axis=1)
    best = np.inf
    m = abs_entrywise(sigma) * sigma
    for angles in candidates:
        w = np.exp(1j * angles)
        best = min(best, -2.0 * np.real(w.conj() @ m @ w))
    assert cost_at_truth <= best + 1e-9 * abs(best)


def test_block_costs_with_an_empty_past_are_the_full_costs():
    rng = np.random.default_rng(49)
    for _ in range(10):
        l = int(rng.integers(2, 9))
        sigma = random_plugin(rng, l)
        w = random_torus(rng, l)
        blocks = partition(sigma, 0)
        factors = schur_factors(abs_entrywise(sigma), 0)
        empty = np.ones(0, dtype=complex)
        assert kl_cost_block(empty, w, blocks, factors) == kl_cost_full(w, sigma)
        assert frob_cost_block(empty, w, blocks) == frob_cost_full(w, sigma)
