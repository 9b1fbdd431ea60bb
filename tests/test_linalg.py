"""Kernel tests: Hadamard algebra, modulus, PD inversion, partitioning,
Schur block inverses and dominant eigenvalues, checked against scalar-loop
and dense-solver oracles."""
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from seqlink import (
    BlockCov,
    NotPositiveDefinite,
    abs_entrywise,
    assemble_block_inverse,
    hadamard,
    hermitize,
    largest_eigenvalue,
    partition,
    pd_inverse,
    reassemble,
    schur_factors,
)


def random_hermitian(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


def random_spd(rng, dim):
    b = rng.standard_normal((dim, dim))
    return b @ b.T + 0.5 * dim * np.eye(dim)


def random_cov(rng, dim, n=None):
    """Hermitian PSD matrix from an outer-product average."""
    n = 3 * dim if n is None else n
    x = (rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))) / np.sqrt(2)
    return hermitize(x.T @ x.conj() / n)


# ---------------------------------------------------------------------------
# hadamard


def test_hadamard_identity_mask_extracts_diagonal():
    rng = np.random.default_rng(1)
    m = random_hermitian(rng, 5)
    out = hadamard(np.eye(5), m)
    assert np.array_equal(out, np.diag(np.diag(m)))


def test_hadamard_all_ones_is_neutral():
    rng = np.random.default_rng(2)
    m = random_hermitian(rng, 4)
    assert np.array_equal(hadamard(np.ones((4, 4)), m), m)


def test_hadamard_matches_scalar_loop_oracle():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    expected = np.empty((4, 4), dtype=complex)
    for i in range(4):
        for j in range(4):
            expected[i, j] = a[i, j] * b[i, j]
    # vectorized and scalar complex multiplies may differ by one ulp
    assert np.max(np.abs(hadamard(a, b) - expected)) < 1e-13


def test_hadamard_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        hadamard(np.ones((2, 2)), np.ones((3, 3)))


@settings(deadline=None, max_examples=50)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 8))
def test_hadamard_commutative_and_associative(seed, dim):
    rng = np.random.default_rng(seed)
    a, b, c = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
               for _ in range(3))
    scale = max(1.0, float(np.max(np.abs(a * b))))
    assert np.max(np.abs(hadamard(a, b) - hadamard(b, a))) <= 1e-12 * scale
    left = hadamard(hadamard(a, b), c)
    right = hadamard(a, hadamard(b, c))
    assert np.max(np.abs(left - right)) <= 1e-12 * max(1.0, np.max(np.abs(left)))


# ---------------------------------------------------------------------------
# abs_entrywise


def test_abs_entrywise_strips_phases_from_structured_cov():
    rng = np.random.default_rng(4)
    psi = np.abs(random_spd(rng, 5))
    psi = (psi + psi.T) / 2
    theta = rng.uniform(-np.pi, np.pi, 5)
    w = np.exp(1j * theta)
    sigma = psi * np.outer(w, w.conj())
    assert np.max(np.abs(abs_entrywise(sigma) - psi)) < 1e-12


def test_abs_entrywise_fixes_diagonal_matrix():
    d = np.diag([1.0, 2.5, 0.3])
    assert np.array_equal(abs_entrywise(d), d)


def test_abs_entrywise_matches_scalar_modulus_oracle():
    rng = np.random.default_rng(5)
    h = random_hermitian(rng, 6)
    expected = np.empty((6, 6))
    for i in range(6):
        for j in range(6):
            expected[i, j] = np.sqrt(h[i, j].real ** 2 + h[i, j].imag ** 2)
    assert np.max(np.abs(abs_entrywise(h) - expected)) < 1e-15


# ---------------------------------------------------------------------------
# pd_inverse


def test_pd_inverse_identity():
    out = pd_inverse(np.eye(3), jitter=0.0)
    assert np.allclose(out, np.eye(3), atol=1e-14)


def test_pd_inverse_diagonal():
    out = pd_inverse(np.diag([2.0, 4.0]), jitter=0.0)
    assert np.allclose(out, np.diag([0.5, 0.25]), atol=1e-15)


def test_pd_inverse_residual_on_random_spd():
    rng = np.random.default_rng(6)
    a = random_spd(rng, 8)
    inv = pd_inverse(a, jitter=0.0)
    residual = np.max(np.abs(a @ inv - np.eye(8)))
    assert residual < 1e-8


def test_pd_inverse_complex_hermitian():
    rng = np.random.default_rng(7)
    a = random_cov(rng, 6) + 0.5 * np.eye(6)
    inv = pd_inverse(a, jitter=0.0)
    assert np.max(np.abs(a @ inv - np.eye(6))) < 1e-8


def test_pd_inverse_raises_without_jitter():
    with pytest.raises(NotPositiveDefinite):
        pd_inverse(np.diag([1.0, -1.0]), jitter=0.0)


def test_pd_inverse_jitter_rescues_singular_psd():
    # rank-1 PSD; jitter brings it to PD with a tiny diagonal bump
    v = np.array([1.0, 2.0, 3.0])
    a = np.outer(v, v)
    inv = pd_inverse(a, jitter=1e-9)
    bump = 1e-9 * np.trace(a) / 3
    assert np.max(np.abs((a + bump * np.eye(3)) @ inv - np.eye(3))) < 1e-4


def test_pd_inverse_still_raises_on_negative_definite():
    with pytest.raises(NotPositiveDefinite):
        pd_inverse(-np.eye(4), jitter=1e-9)


# ---------------------------------------------------------------------------
# partition / reassemble


def test_partition_two_by_two():
    m = np.array([[1.0 + 0j, 2.0 - 1j], [2.0 + 1j, 3.0 + 0j]])
    blocks = partition(m, 1)
    assert blocks.past.shape == (1, 1) and blocks.past[0, 0] == m[0, 0]
    assert blocks.cross.shape == (1, 1) and blocks.cross[0, 0] == m[1, 0]
    assert blocks.new.shape == (1, 1) and blocks.new[0, 0] == m[1, 1]


def test_partition_reassemble_round_trip():
    rng = np.random.default_rng(8)
    m = random_hermitian(rng, 10)
    blocks = partition(m, 7)
    assert np.array_equal(reassemble(blocks), m)
    assert blocks.p == 7 and blocks.k == 3


def test_partition_at_zero_is_an_empty_past():
    rng = np.random.default_rng(9)
    m = np.array([random_hermitian(rng, 6) for _ in range(3)])
    blocks = partition(m, 0)
    assert blocks.past.shape == (3, 0, 0) and blocks.cross.shape == (3, 6, 0)
    assert np.array_equal(blocks.new, m)
    assert blocks.p == 0 and blocks.k == 6
    assert np.array_equal(reassemble(partition(m[0], 0)), m[0])


def test_partition_of_the_last_rows_has_no_past():
    rng = np.random.default_rng(10)
    m = np.array([random_hermitian(rng, 9) for _ in range(2)])
    whole, rows = partition(m, 6), partition(m[:, 6:], 6)
    assert rows.past is None and rows.p == 6 and rows.k == 3
    assert np.array_equal(rows.cross, whole.cross)
    assert np.array_equal(rows.new, whole.new)
    with pytest.raises(ValueError, match="last 3 rows"):
        partition(m[:, 5:], 6)


@pytest.mark.parametrize("p", [10, 11])
def test_partition_rejects_out_of_range_p(p):
    with pytest.raises(ValueError):
        partition(np.eye(10), p)


# ---------------------------------------------------------------------------
# schur_factors


def test_schur_factors_at_zero_invert_the_whole_matrix_bit_for_bit():
    rng = np.random.default_rng(16)
    psi = np.array([abs_entrywise(random_cov(rng, 7)) for _ in range(4)])
    for jitter in (0.0, 1e-9):
        f = schur_factors(psi, 0, jitter)
        assert np.array_equal(f.d_inv, pd_inverse(psi, jitter))
        assert f.a_mat.shape == (4, 7, 0) and f.x.shape == (4, 0, 7)
    assert np.array_equal(assemble_block_inverse(schur_factors(psi[0], 0)),
                          pd_inverse(psi[0]))


def test_schur_factors_two_by_two_closed_form():
    rho = 0.7
    psi = np.array([[1.0, rho], [rho, 1.0]])
    f = schur_factors(psi, 1, jitter=0.0)
    d = 1 - rho**2
    assert np.isclose(f.d_inv[0, 0], 1 / d, atol=1e-12)
    assert np.isclose(f.a_mat[0, 0], -rho / d, atol=1e-12)
    assert np.isclose(f.f_inv()[0, 0], 1 / d, atol=1e-12)
    assert np.isclose(f.x[0, 0], rho, atol=1e-15)


@pytest.mark.parametrize("p", [2, 5])
def test_schur_factors_identity(p):
    f = schur_factors(np.eye(7), p, jitter=0.0)
    k = 7 - p
    assert np.allclose(f.f_inv(), np.eye(p), atol=1e-12)
    assert np.allclose(f.d_inv, np.eye(k), atol=1e-12)
    assert np.allclose(f.a_mat, np.zeros((k, p)), atol=1e-12)


def test_schur_factors_toeplitz_vs_dense_inverse_oracle():
    rng = np.random.default_rng(9)
    rho = rng.uniform(0.3, 0.9)
    psi = scipy.linalg.toeplitz(rho ** np.arange(12))
    factors = schur_factors(psi, 8, jitter=0.0)
    assembled = assemble_block_inverse(factors)
    direct = np.linalg.inv(psi)
    rel = np.max(np.abs(assembled - direct)) / np.max(np.abs(direct))
    assert rel < 1e-8


def test_schur_oracle_over_random_spd_matrices():
    # assembled block inverse == direct inverse for many sizes and splits
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 40:
        dim = int(rng.integers(2, 17))
        a = random_spd(rng, dim)
        p = int(rng.integers(1, dim))
        assembled = assemble_block_inverse(schur_factors(a, p, jitter=0.0))
        direct = pd_inverse(a, jitter=0.0)
        rel = np.max(np.abs(assembled - direct)) / np.max(np.abs(direct))
        assert rel < 1e-8
        checked += 1


def test_schur_product_of_psd_pair_is_psd():
    # smallest eigenvalue of D⁻¹ ∘ Σ_n stays above -1e-10 * λ_max
    rng = np.random.default_rng(12)
    for _ in range(100):
        dim = int(rng.integers(2, 7))
        d_inv = pd_inverse(random_spd(rng, dim), jitter=0.0)
        sigma_n = random_cov(rng, dim)
        m = hermitize(d_inv * sigma_n)
        eigs = np.linalg.eigvalsh(m)
        assert eigs[0] >= -1e-10 * max(eigs[-1], 1e-300)


def test_schur_factors_rescue_a_singular_past_block_by_jitter():
    # dates 0 and 1 are the same acquisition, so the past block is singular
    base = scipy.linalg.toeplitz(0.8 ** np.arange(8))
    psi = base[np.ix_([0, 0, *range(1, 8)], [0, 0, *range(1, 8)])]
    p = 6
    f = schur_factors(psi, p, jitter=1e-9)
    jittered = psi.copy()
    jittered[:p, :p] += 1e-9 * np.trace(psi[:p, :p]) / p * np.eye(p)
    last_rows = np.linalg.inv(jittered)[p:]
    for got, want in ((f.a_mat, last_rows[:, :p]), (f.d_inv, last_rows[:, p:])):
        assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(want))
    with pytest.raises(NotPositiveDefinite):
        schur_factors(psi, p, jitter=0.0)


def test_schur_factors_propagates_not_positive_definite():
    psi = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
    with pytest.raises(NotPositiveDefinite):
        schur_factors(psi, 1, jitter=0.0)


# ---------------------------------------------------------------------------
# largest_eigenvalue


def test_largest_eigenvalue_identity():
    assert np.isclose(largest_eigenvalue(np.eye(4)), 1.0, rtol=1e-8)


def test_largest_eigenvalue_diagonal():
    assert np.isclose(largest_eigenvalue(np.diag([1.0, 2.0, 3.0])), 3.0, rtol=1e-8)


def test_largest_eigenvalue_zero_matrix():
    assert largest_eigenvalue(np.zeros((3, 3))) == 0.0


def test_largest_eigenvalue_random_hermitian_vs_dense_oracle():
    rng = np.random.default_rng(13)
    h = random_hermitian(rng, 10)
    expected = float(np.max(np.linalg.eigvalsh(h)))
    got = largest_eigenvalue(h)
    assert abs(got - expected) <= 1e-7 * max(1.0, abs(expected))


def test_largest_eigenvalue_indefinite_dominant_negative():
    # largest-|λ| is -3 but the algebraic maximum is 1
    h = np.diag([1.0, -3.0])
    assert np.isclose(largest_eigenvalue(h), 1.0, rtol=1e-8)


def test_largest_eigenvalue_start_orthogonal_to_dominant():
    # all-ones is exactly orthogonal to the dominant eigenvector (1, -1)
    h = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert np.isclose(largest_eigenvalue(h), 2.0, rtol=1e-8)


def test_largest_eigenvalue_one_by_one():
    assert largest_eigenvalue(np.array([[-2.5]])) == -2.5


def test_largest_eigenvalue_repeated_top_eigenvalue():
    rng = np.random.default_rng(14)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5))
                        + 1j * rng.standard_normal((5, 5)))
    h = hermitize(q @ np.diag([4.0, 4.0, 1.0, -2.0, 0.5]) @ q.conj().T)
    assert abs(largest_eigenvalue(h) - 4.0) <= 1e-12 * 4.0


def test_largest_eigenvalue_rejects_empty_matrix():
    with pytest.raises(ValueError):
        largest_eigenvalue(np.zeros((0, 0)))


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), alpha=st.floats(1e-3, 1e3))
def test_largest_eigenvalue_scales_linearly(seed, alpha):
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, 6)
    base = largest_eigenvalue(h)
    scaled = largest_eigenvalue(alpha * h)
    assert abs(scaled - alpha * base) <= 1e-7 * max(abs(alpha * base), 1e-12)
