"""Plug-in estimator tests: SCM, phase-only, shrinkage and tapering."""
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqlink import partition
from seqlink.blas import single_blas_thread
from seqlink.plugins import (
    PluginSpec,
    estimate,
    phase_only,
    regularize,
    scm,
    shrink_to_identity,
    taper,
    taper_mask,
    unit_phasors,
    window_bounds,
    window_estimates,
)


def random_stack(rng, n, l):
    return (rng.standard_normal((n, l)) + 1j * rng.standard_normal((n, l))) / np.sqrt(2)


# ---------------------------------------------------------------------------
# scm


def test_scm_single_basis_vector():
    e1 = np.zeros((1, 4), dtype=complex)
    e1[0, 0] = 1.0
    sigma = scm(e1)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = 1.0
    assert np.array_equal(sigma, expected)


def test_scm_repeated_vector_gives_outer_product():
    rng = np.random.default_rng(20)
    v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    stack = np.tile(v, (7, 1))
    sigma = scm(stack)
    assert np.max(np.abs(sigma - np.outer(v, v.conj()))) < 1e-12


def test_scm_matches_double_loop_oracle():
    rng = np.random.default_rng(21)
    stack = random_stack(rng, 3, 4)
    expected = np.zeros((4, 4), dtype=complex)
    for i in range(3):
        for a in range(4):
            for b in range(4):
                expected[a, b] += stack[i, a] * np.conj(stack[i, b])
    expected /= 3
    assert np.max(np.abs(scm(stack) - expected)) < 1e-12


def test_scm_exactly_hermitian_with_nonnegative_diagonal():
    rng = np.random.default_rng(22)
    sigma = scm(random_stack(rng, 6, 5))
    assert np.array_equal(sigma, sigma.conj().T)
    assert np.all(sigma.diagonal().real >= 0)
    assert np.all(sigma.diagonal().imag == 0)


# ---------------------------------------------------------------------------
# phase_only


def test_phase_only_divides_out_moduli():
    stack = np.array([[2.0, 2.0j]])
    sigma = phase_only(stack)
    expected = np.array([[1.0, -1.0j], [1.0j, 1.0]])
    assert np.max(np.abs(sigma - expected)) < 1e-15


def test_phase_only_unit_diagonal():
    rng = np.random.default_rng(23)
    sigma = phase_only(random_stack(rng, 11, 6))
    assert np.array_equal(sigma.diagonal(), np.ones(6, dtype=complex))


def test_phase_only_invariant_under_positive_rescaling():
    rng = np.random.default_rng(24)
    for _ in range(20):
        stack = random_stack(rng, 9, 5)
        scales = rng.uniform(0.1, 10.0, size=(9, 1))
        base = phase_only(stack)
        scaled = phase_only(stack * scales)
        # scaling perturbs the unit phasors by at most an ulp each
        assert np.max(np.abs(base - scaled)) < 1e-13


def test_phase_only_zero_entries_use_unit_convention():
    stack = np.array([[0.0, 3.0]], dtype=complex)
    assert np.array_equal(unit_phasors(stack), np.array([[1.0, 1.0]], dtype=complex))
    sigma = phase_only(stack)
    assert np.max(np.abs(sigma - np.ones((2, 2)))) < 1e-15


# ---------------------------------------------------------------------------
# shrink_to_identity


def test_shrink_beta_one_is_identity_map():
    rng = np.random.default_rng(25)
    sigma = scm(random_stack(rng, 8, 4))
    assert np.array_equal(shrink_to_identity(sigma, 1.0), sigma)


def test_shrink_beta_zero_is_scaled_identity():
    rng = np.random.default_rng(26)
    sigma = scm(random_stack(rng, 8, 4))
    out = shrink_to_identity(sigma, 0.0)
    assert np.allclose(out, (np.trace(sigma).real / 4) * np.eye(4), atol=1e-14)


def test_shrink_direct_arithmetic():
    out = shrink_to_identity(np.diag([2.0, 0.0]).astype(complex), 0.9)
    assert np.allclose(out, np.diag([1.9, 0.1]), atol=1e-15)


def test_shrink_rejects_beta_out_of_range():
    for beta in (-0.1, 1.1):
        with pytest.raises(ValueError):
            shrink_to_identity(np.eye(3), beta)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), beta=st.floats(0.0, 1.0))
def test_shrink_preserves_trace_and_floor_eigenvalue(seed, beta):
    rng = np.random.default_rng(seed)
    sigma = scm(random_stack(rng, 6, 5))
    out = shrink_to_identity(sigma, beta)
    t_in, t_out = np.trace(sigma).real, np.trace(out).real
    assert abs(t_in - t_out) <= 1e-12 * max(1.0, abs(t_in))
    eig_in = np.linalg.eigvalsh(sigma)[0]
    eig_out = np.linalg.eigvalsh(out)[0]
    assert eig_out >= eig_in - 1e-10 * max(1.0, abs(eig_in))


def test_shrink_block_structure_scales_cross_block_exactly():
    rng = np.random.default_rng(27)
    sigma = scm(random_stack(rng, 12, 8))
    beta = 0.9
    blocks = partition(shrink_to_identity(sigma, beta), 5)
    raw = partition(sigma, 5)
    assert np.array_equal(blocks.cross, beta * raw.cross)


# ---------------------------------------------------------------------------
# taper


def test_taper_small_mask():
    sigma = np.arange(9, dtype=float).reshape(3, 3) + 1.0
    out = taper(sigma, 1)
    mask = np.array([[1, 1, 0], [1, 1, 1], [0, 1, 1]], dtype=float)
    assert np.array_equal(out, sigma * mask)
    assert np.array_equal(taper_mask(3, 1), mask)


def test_taper_wide_band_is_identity_map():
    rng = np.random.default_rng(28)
    sigma = scm(random_stack(rng, 9, 5))
    assert np.array_equal(taper(sigma, 4), sigma)
    assert np.array_equal(taper(sigma, 17), sigma)


def test_taper_zero_band_keeps_only_diagonal():
    rng = np.random.default_rng(29)
    sigma = scm(random_stack(rng, 9, 5))
    assert np.array_equal(taper(sigma, 0), np.diag(np.diag(sigma)))


def test_taper_zeroes_are_exact():
    rng = np.random.default_rng(30)
    sigma = scm(random_stack(rng, 9, 6))
    out = taper(sigma, 2)
    mask = taper_mask(6, 2)
    assert np.array_equal(out[mask == 1], sigma[mask == 1])
    assert np.all(out[mask == 0] == 0)


def test_taper_block_structure_masks_cross_block():
    rng = np.random.default_rng(31)
    sigma = scm(random_stack(rng, 12, 8))
    b = 3
    blocks = partition(taper(sigma, b), 5)
    raw = partition(sigma, 5)
    cross_mask = taper_mask(8, b)[5:, :5]
    assert np.array_equal(blocks.cross, cross_mask * raw.cross)


def test_taper_rejects_negative_bandwidth():
    with pytest.raises(ValueError):
        taper(np.eye(3), -1)


# ---------------------------------------------------------------------------
# estimate dispatch / spec validation


def test_estimate_dispatches_plain_scm():
    rng = np.random.default_rng(32)
    stack = random_stack(rng, 10, 6)
    assert np.array_equal(estimate(stack, PluginSpec("scm", "none")), scm(stack))


def test_estimate_dispatches_shrunk_phase_only():
    rng = np.random.default_rng(33)
    stack = random_stack(rng, 10, 6)
    out = estimate(stack, PluginSpec("po", "shrink", beta=0.9))
    assert np.array_equal(out, shrink_to_identity(phase_only(stack), 0.9))


def test_estimate_dispatches_tapered_phase_only():
    rng = np.random.default_rng(34)
    stack = random_stack(rng, 10, 12)
    out = estimate(stack, PluginSpec("po", "taper", bandwidth=9))
    assert np.array_equal(out, taper(phase_only(stack), 9))


def test_plugin_spec_validation():
    with pytest.raises(ValueError):
        PluginSpec("tyler")
    with pytest.raises(ValueError):
        PluginSpec("scm", "banded")
    with pytest.raises(ValueError):
        PluginSpec("scm", "shrink", beta=2.0)
    with pytest.raises(ValueError):
        PluginSpec("scm", "taper", bandwidth=-3)


def test_estimator_outputs_are_psd():
    rng = np.random.default_rng(35)
    for _ in range(100):
        n = int(rng.integers(1, 12))
        l = int(rng.integers(2, 8))
        stack = random_stack(rng, n, l)
        for build in (scm, phase_only):
            eigs = np.linalg.eigvalsh(build(stack))
            assert eigs[0] >= -1e-10 * max(eigs[-1], 1e-300)


# ---------------------------------------------------------------------------
# window_estimates: every window's plug-in of a raster row at once


def sliding_oracle(data, row, col, win, spec):
    """estimate() on the clipped window's samples, gathered pixel by pixel."""
    _, height, width = data.shape
    rows = [r for r in range(height) if 0 <= r - (row - win // 2) < win]
    cols = [c for c in range(width) if 0 <= c - (col - win // 2) < win]
    samples = np.array([data[:, r, c] for r in rows for c in cols])
    return estimate(samples, spec)


WINDOW_SPECS = [PluginSpec(est, reg, beta=0.7, bandwidth=2)
                for est in ("scm", "po") for reg in ("none", "shrink", "taper")]


@pytest.mark.parametrize("spec", WINDOW_SPECS, ids=lambda s: "-".join(s.label()))
@pytest.mark.parametrize("win", [1, 3, 4, 16])
def test_window_estimates_match_per_window_estimate(spec, win):
    rng = np.random.default_rng(36)
    l, height, width = 5, 6, 7
    data = random_stack(rng, height * width, l).T.reshape(l, height, width)
    data *= rng.uniform(0.1, 3.0, size=(1, height, width))  # uneven amplitudes
    for row in range(height):
        out = window_estimates(data, row, win, spec)
        assert out.shape == (width, l, l)
        for col in range(width):
            oracle = sliding_oracle(data, row, col, win, spec)
            gap = np.max(np.abs(out[col] - oracle))
            assert gap <= 1e-12 * np.max(np.abs(oracle)), (row, col)


def ascending_window_estimates(data, row, win, spec):
    """window_estimates with the column terms added over each window's
    columns in ascending order, starting from zero, then divided by the
    clipped area and symmetrized."""
    l, height, width = data.shape
    r_start, r_stop = window_bounds(height, win)
    c_start, c_stop = window_bounds(width, win)
    band = data[:, r_start[row]:r_stop[row]]
    if spec.estimator == "po":
        band = unit_phasors(band)
    cols = band.transpose(2, 1, 0)
    terms = np.matmul(cols.transpose(0, 2, 1), cols.conj())
    sigma = np.zeros((width, l, l), dtype=complex)
    for col in range(width):
        for c in range(c_start[col], c_stop[col]):
            sigma[col] += terms[c]
    sigma /= ((r_stop[row] - r_start[row]) * (c_stop - c_start))[:, None, None]
    sigma = (sigma + sigma.conj().transpose(0, 2, 1)) / 2
    if spec.estimator == "po":
        sigma[:, np.arange(l), np.arange(l)] = 1.0
    if spec.regularizer == "shrink":
        sigma = shrink_to_identity(sigma, spec.beta)
    return sigma


@pytest.mark.parametrize("spec", [PluginSpec(est, reg, beta=0.7)
                                  for est in ("scm", "po")
                                  for reg in ("none", "shrink")],
                         ids=lambda s: "-".join(s.label()))
@pytest.mark.parametrize("l, height, width, win", [
    (5, 4, 37, 1), (5, 4, 37, 2), (5, 6, 37, 3), (40, 12, 50, 11),
    (5, 5, 9, 11), (105, 3, 23, 11), (35, 3, 65, 21)])
def test_window_estimates_match_the_ascending_column_loop(spec, l, height,
                                                          width, win):
    rng = np.random.default_rng(37)
    data = random_stack(rng, height * width, l).T.reshape(l, height, width)
    data *= rng.uniform(0.1, 3.0, size=(1, height, width))  # uneven amplitudes
    for row in sorted({0, height // 2, height - 1}):
        out = window_estimates(data, row, win, spec)
        oracle = ascending_window_estimates(data, row, win, spec)
        assert np.max(np.abs(out - oracle)) <= 1e-13 * np.max(np.abs(oracle))
        # the band products run on one BLAS thread whoever calls
        with single_blas_thread():
            assert np.array_equal(window_estimates(data, row, win, spec), out)


def test_window_estimates_one_sample_window_is_the_outer_product_bit_for_bit():
    rng = np.random.default_rng(38)
    data = random_stack(rng, 6, 4).T.reshape(4, 2, 3)
    for row in range(2):
        out = window_estimates(data, row, 1, PluginSpec())
        for col in range(3):
            assert np.array_equal(out[col],
                                  estimate(data[:, row, col][None, :], PluginSpec()))


def test_window_estimates_reject_empty_window():
    with pytest.raises(ValueError):
        window_estimates(np.ones((2, 3, 3), dtype=complex), 0, 0,
                         PluginSpec())


def test_regularizers_broadcast_over_a_stack():
    rng = np.random.default_rng(39)
    stack = np.array([scm(random_stack(rng, 9, 6)) for _ in range(4)])
    shrunk = shrink_to_identity(stack, 0.6)
    tapered = taper(stack, 2)
    for i, sigma in enumerate(stack):
        assert np.array_equal(shrunk[i], shrink_to_identity(sigma, 0.6))
        assert np.array_equal(tapered[i], taper(sigma, 2))


# ---------------------------------------------------------------------------
# window_estimates rows first: (what a least-squares update reads)


ROW_SHAPES = [(5, 4, 37, 1), (6, 5, 9, 3), (40, 12, 50, 11), (5, 5, 9, 11),
              (105, 3, 23, 11), (35, 3, 65, 21), (18, 4, 20, 4)]


def heavy_tailed_stack(rng, l, height, width):
    data = random_stack(rng, height * width, l).T.reshape(l, height, width)
    data *= rng.gamma(0.5, 2.0, size=(1, height, width))  # uneven amplitudes
    data[:, 0, min(2, width - 1)] = 0.0  # an all-zero pixel
    return data


@pytest.mark.parametrize("spec", WINDOW_SPECS, ids=lambda s: "-".join(s.label()))
@pytest.mark.parametrize("l, height, width, win", ROW_SHAPES)
def test_window_estimate_rows_are_the_whole_plugins_rows(spec, l, height,
                                                         width, win):
    """Rows first: equal rows first: of the whole plug-in to rounding, for
    either estimator and every regularizer; their k x k block of new dates
    is exactly Hermitian, with po's unregularized diagonal exactly 1.
    Border and interior rows, one and several new dates."""
    rng = np.random.default_rng(40)
    data = heavy_tailed_stack(rng, l, height, width)
    for row in sorted({0, height // 2, height - 1}):
        whole = window_estimates(data, row, win, spec)
        for k in sorted({1, 2, min(5, l - 1)}):
            first = l - k
            rows = window_estimates(data, row, win, spec, first)
            expected = whole[:, first:]
            assert rows.shape == (width, k, l)
            gap = np.abs(rows - expected)
            assert np.max(gap) <= 1e-15 * np.max(np.abs(expected)), (row, k)
            new = rows[:, :, first:]
            assert np.array_equal(new, new.conj().transpose(0, 2, 1))
            if spec.estimator == "po" and spec.regularizer == "none":
                assert (np.diagonal(new, axis1=1, axis2=2) == 1).all()


@pytest.mark.parametrize("spec", [
    PluginSpec(est, reg, beta=0.7, bandwidth=9)
    for est in ("scm", "po") for reg in ("shrink", "taper")],
    ids=lambda s: "-".join(s.label()))
def test_window_estimates_regularize_the_whole_plugin_in_place(spec):
    """The whole regularized plug-in is regularize() of the unregularized
    one, and costs no more memory to build than it."""
    rng = np.random.default_rng(44)
    data = heavy_tailed_stack(rng, 105, 11, 8)
    plain = replace(spec, regularizer="none")
    whole = window_estimates(data, 5, 11, spec)
    assert (whole == regularize(window_estimates(data, 5, 11, plain),
                                spec)).all()

    def peak(spec):
        tracemalloc.start()
        window_estimates(data, 5, 11, spec)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return peak

    assert peak(spec) <= 1.1 * peak(plain)


@pytest.mark.parametrize("estimator", ["scm", "po"])
@pytest.mark.parametrize("first", [0, 400])
def test_window_estimates_taper_without_an_l_by_l_mask(estimator, first):
    """A tapered plug-in, whole or rows first:, is the untapered one times
    the 0/1 band mask, and costs no more memory to build than it: the mask
    holds only the rows built, as bools."""
    rng = np.random.default_rng(45)
    data = heavy_tailed_stack(rng, 405, 11, 4)
    spec = PluginSpec(estimator, "taper", bandwidth=9)
    plain = replace(spec, regularizer="none")
    dates = np.arange(405)
    band = np.abs(dates[first:, None] - dates) <= 9
    tapered = window_estimates(data, 5, 11, spec, first)
    assert (tapered == window_estimates(data, 5, 11, plain, first) * band).all()

    def peak(spec):
        tracemalloc.start()
        window_estimates(data, 5, 11, spec, first)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return peak

    assert peak(spec) <= 1.1 * peak(plain)


@pytest.mark.parametrize("first", [0, 7])
def test_window_estimates_read_a_sequence_of_stacks_as_their_dates(first):
    rng = np.random.default_rng(42)
    data = heavy_tailed_stack(rng, 9, 4, 11)
    for spec in WINDOW_SPECS:
        for row in range(4):
            expected = window_estimates(data, row, 3, spec, first)
            split = window_estimates([data[:7], data[7:]], row, 3, spec, first)
            assert np.array_equal(split, expected)


def test_window_estimates_reject_a_first_row_outside_the_stack():
    data = np.ones((3, 2, 2), dtype=complex)
    for first in (-1, 3):
        with pytest.raises(ValueError, match="first row"):
            window_estimates(data, 0, 1, PluginSpec(), first)
