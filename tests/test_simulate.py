"""Ground-truth construction and sampling tests: exact closed forms, moment
checks against the generative model, and determinism contracts."""
import numpy as np
import pytest
import scipy.linalg

from seqlink import (
    ConfigError,
    NotPositiveDefinite,
    SimulationConfig,
    abs_entrywise,
    build_simulation,
    build_true_covariance,
    ground_truth,
    linear_phase_ramp,
    noiseless_stack,
    sample_gaussian,
    sample_scaled_gaussian,
    sample_stack,
    scm,
    toeplitz_coherence,
)
from seqlink.simulate import matrix_sqrt


# ---------------------------------------------------------------------------
# coherence and phase ramp


def test_toeplitz_coherence_small_closed_form():
    expected = np.array([[1.0, 0.5, 0.25], [0.5, 1.0, 0.5], [0.25, 0.5, 1.0]])
    assert np.array_equal(toeplitz_coherence(3, 0.5), expected)


@pytest.mark.parametrize("l, rho", [(1, 0.5), (7, 0.9), (40, 0.98), (105, 0.3)])
def test_toeplitz_coherence_is_bitwise_scipy_toeplitz(l, rho):
    assert np.array_equal(toeplitz_coherence(l, rho),
                          scipy.linalg.toeplitz(rho ** np.arange(l)))


def test_toeplitz_coherence_first_offdiagonal_is_rho():
    psi = toeplitz_coherence(6, 0.98)
    assert np.all(np.diag(psi, 1) == 0.98)
    assert np.all(np.diag(psi) == 1.0)


def test_toeplitz_coherence_positive_definite_at_large_size():
    psi = toeplitz_coherence(40, 0.98)
    assert np.min(np.linalg.eigvalsh(psi)) > 0.0
    assert np.array_equal(psi, psi.T)


@pytest.mark.parametrize("rho", [0.0, 1.0, -0.2, 1.5])
def test_toeplitz_coherence_rejects_rho_out_of_range(rho):
    with pytest.raises(ValueError):
        toeplitz_coherence(4, rho)


def test_linear_phase_ramp_arithmetic_progression():
    w = linear_phase_ramp(4, 2.0)
    assert np.allclose(np.angle(w), [0.0, 0.5, 1.0, 1.5], atol=1e-15)
    assert w[0] == 1.0


def test_linear_phase_ramp_single_date():
    assert np.array_equal(linear_phase_ramp(1, 2.0), np.array([1.0 + 0.0j]))


def test_linear_phase_ramp_constant_increment():
    w = linear_phase_ramp(40, 2.0)
    steps = np.angle(w[1:] * np.conj(w[:-1]))
    assert np.allclose(steps, 0.05, atol=1e-14)
    assert np.allclose(np.abs(w), 1.0, atol=1e-15)


# ---------------------------------------------------------------------------
# true covariance assembly


def test_build_true_covariance_ones_returns_coherence():
    psi = toeplitz_coherence(5, 0.7)
    sigma = build_true_covariance(psi, np.ones(5, dtype=complex))
    assert np.array_equal(sigma, psi.astype(complex))


def test_build_true_covariance_identity_coherence_is_identity():
    rng = np.random.default_rng(80)
    w = np.exp(1j * rng.uniform(-np.pi, np.pi, 4))
    sigma = build_true_covariance(np.eye(4), w)
    assert np.array_equal(sigma, np.eye(4, dtype=complex))


def test_build_true_covariance_modulus_and_phase():
    rng = np.random.default_rng(81)
    psi = toeplitz_coherence(3, 0.6)
    theta = rng.uniform(-np.pi, np.pi, 3)
    sigma = build_true_covariance(psi, np.exp(1j * theta))
    assert np.max(np.abs(abs_entrywise(sigma) - psi)) < 1e-12
    for i in range(3):
        for j in range(3):
            gap = np.angle(np.exp(1j * (np.angle(sigma[i, j]) - (theta[i] - theta[j]))))
            assert abs(gap) < 1e-12


def test_build_true_covariance_rejects_dim_mismatch():
    with pytest.raises(ValueError):
        build_true_covariance(np.eye(3), np.ones(4, dtype=complex))


# ---------------------------------------------------------------------------
# Gaussian sampling


def test_sample_gaussian_identity_covariance_consistency():
    stack = sample_gaussian(np.eye(4, dtype=complex), 100_000, seed=7)
    assert np.max(np.abs(scm(stack) - np.eye(4))) < 0.02


def test_sample_gaussian_structured_covariance_consistency():
    psi = toeplitz_coherence(8, 0.9)
    sigma = build_true_covariance(psi, linear_phase_ramp(8))
    n = 100_000
    stack = sample_gaussian(sigma, n, seed=8)
    assert np.max(np.abs(scm(stack) - sigma)) < 5.0 / np.sqrt(n)


def test_sample_gaussian_zero_covariance_gives_zero_samples():
    stack = sample_gaussian(np.zeros((3, 3), dtype=complex), 10, seed=9)
    assert np.array_equal(stack, np.zeros((10, 3), dtype=complex))


def test_sample_gaussian_seed_determinism():
    sigma = build_true_covariance(toeplitz_coherence(5, 0.8), linear_phase_ramp(5))
    a = sample_gaussian(sigma, 32, seed=123)
    b = sample_gaussian(sigma, 32, seed=123)
    c = sample_gaussian(sigma, 32, seed=124)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_gaussian_rejects_indefinite_covariance():
    with pytest.raises(NotPositiveDefinite):
        sample_gaussian(np.diag([1.0, -1.0]).astype(complex), 4, seed=0)


def test_sample_gaussian_entry_variance_split():
    stack = sample_gaussian(np.eye(1, dtype=complex), 200_000, seed=10)
    assert abs(np.var(stack.real) - 0.5) < 0.01
    assert abs(np.var(stack.imag) - 0.5) < 0.01


# ---------------------------------------------------------------------------
# scaled-Gaussian sampling


def test_scaled_gaussian_unit_textures_match_gaussian_bitwise():
    sigma = build_true_covariance(toeplitz_coherence(6, 0.9), linear_phase_ramp(6))
    plain = sample_gaussian(sigma, 50, seed=11)
    forced = sample_scaled_gaussian(sigma, 50, nu=1.0, seed=11,
                                    textures=np.ones(50))
    assert np.array_equal(plain, forced)


def test_scaled_gaussian_seed_determinism():
    sigma = np.eye(3, dtype=complex)
    a = sample_scaled_gaussian(sigma, 64, nu=1.0, seed=12)
    b = sample_scaled_gaussian(sigma, 64, nu=1.0, seed=12)
    assert np.array_equal(a, b)


def test_scaled_gaussian_power_mean_near_one():
    # E[tau] = 1 keeps the average per-entry power at the Gaussian level
    stack = sample_scaled_gaussian(np.eye(2, dtype=complex), 100_000, nu=1.0, seed=13)
    assert abs(np.mean(np.abs(stack) ** 2) - 1.0) < 0.02


def test_scaled_gaussian_is_heavier_tailed_than_gaussian():
    # normalized fourth moment: 2 for circular Gaussian, 4 under an
    # exponential texture (E[tau^2] = 2 doubles it)
    sigma = np.eye(1, dtype=complex)
    heavy = sample_scaled_gaussian(sigma, 200_000, nu=1.0, seed=14)
    light = sample_gaussian(sigma, 200_000, seed=14)

    def kurt(stack):
        power = np.abs(stack) ** 2
        return np.mean(power**2) / np.mean(power) ** 2

    assert kurt(heavy) > 3.0
    assert kurt(light) < 2.2


def test_scaled_gaussian_validates_inputs():
    sigma = np.eye(2, dtype=complex)
    with pytest.raises(ValueError):
        sample_scaled_gaussian(sigma, 8, nu=0.0, seed=0)
    with pytest.raises(ValueError):
        sample_scaled_gaussian(sigma, 8, nu=1.0, seed=0, textures=np.ones(5))
    with pytest.raises(ValueError):
        sample_scaled_gaussian(sigma, 8, nu=1.0, seed=0, textures=-np.ones(8))


# ---------------------------------------------------------------------------
# noiseless stacks, config, dispatch


def test_noiseless_stack_reproduces_covariance_exactly():
    sigma = build_true_covariance(toeplitz_coherence(6, 0.95), linear_phase_ramp(6))
    for n in (6, 9, 64):
        stack = noiseless_stack(sigma, n)
        assert stack.shape == (n, 6)
        assert np.max(np.abs(scm(stack) - sigma)) < 1e-12


def test_noiseless_stack_requires_enough_samples():
    with pytest.raises(ValueError):
        noiseless_stack(np.eye(4, dtype=complex), 3)


def test_simulation_config_defaults_and_validation():
    cfg = SimulationConfig()
    assert (cfg.l, cfg.p, cfg.k, cfg.rho, cfg.nu) == (40, 35, 5, 0.98, 1.0)
    with pytest.raises(ValueError):
        SimulationConfig(l=10, p=6, k=5)
    with pytest.raises(ValueError):
        SimulationConfig(rho=1.0)
    with pytest.raises(ValueError):
        SimulationConfig(nu=-1.0)
    with pytest.raises(ValueError):
        SimulationConfig(n=0)
    with pytest.raises(ValueError):
        SimulationConfig(distribution="cauchy")


@pytest.mark.parametrize("p, k", [(-1, 7), (0, 6), (6, 0)])
def test_simulation_config_rejects_a_non_positive_past_or_new_length(p, k):
    with pytest.raises(ValueError, match="must both be >= 1"):
        SimulationConfig(l=6, p=p, k=k)
    with pytest.raises(ConfigError, match="must both be >= 1"):
        build_simulation({"l": 6, "p": p, "k": k})


def test_ground_truth_assembles_configured_scenario():
    cfg = SimulationConfig(l=8, p=6, k=2)
    psi, w, sigma = ground_truth(cfg)
    assert psi.shape == (8, 8)
    assert np.allclose(np.angle(w[1:] * np.conj(w[:-1])), 0.25, atol=1e-14)
    assert np.max(np.abs(abs_entrywise(sigma) - psi)) < 1e-12


def test_sample_stack_dispatches_on_distribution():
    cfg_g = SimulationConfig(l=4, p=3, k=1, n=16, seed=42)
    cfg_s = SimulationConfig(l=4, p=3, k=1, n=16, seed=42,
                             distribution="scaled_gaussian")
    _, _, sigma = ground_truth(cfg_g)
    assert np.array_equal(sample_stack(sigma, cfg_g), sample_gaussian(sigma, 16, 42))
    assert np.array_equal(
        sample_stack(sigma, cfg_s), sample_scaled_gaussian(sigma, 16, 1.0, 42))
    assert np.array_equal(sample_stack(sigma, cfg_g, seed=5),
                          sample_gaussian(sigma, 16, 5))


@pytest.mark.parametrize("distribution", ["gaussian", "scaled_gaussian"])
def test_sample_stack_from_a_shared_root_is_the_same_draw(distribution):
    sim = SimulationConfig(l=6, p=4, k=2, distribution=distribution, n=16)
    _, _, sigma = ground_truth(sim)
    root = matrix_sqrt(sigma)
    with pytest.raises(TypeError):  # the rescue's jitter is DEFAULT_JITTER
        matrix_sqrt(sigma, jitter=0.0)
    for seed in (3, np.random.SeedSequence([0, 16, 2])):
        assert np.array_equal(sample_stack(sigma, sim, seed, root),
                              sample_stack(sigma, sim, seed))
