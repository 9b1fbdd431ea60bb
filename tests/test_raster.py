"""Raster pipeline tests: window extraction against index-enumeration
oracles, zero-noise recovery rasters, sequential/offline equivalence, thread
invariance, the row runner, and interferogram wrapping."""
import sys
import threading

import numpy as np
import pytest
import scipy.linalg

import seqlink.raster

from seqlink import (
    ImageStack,
    SeqlinkError,
    MMConfig,
    PhaseRaster,
    PluginSpec,
    abs_entrywise,
    anchor_reference,
    build_true_covariance,
    estimate,
    fit,
    interferogram,
    linear_phase_ramp,
    noiseless_raster,
    partition,
    process_stack_offline,
    process_stack_sequential,
    schur_factors,
    sliding_window_extract,
    solve_offline_frob,
    solve_offline_kl,
    solve_seq_frob,
    solve_seq_kl,
    toeplitz_coherence,
    window_estimates,
    wrap_angle,
)

TIGHT = MMConfig(max_iters=1500, tol=1e-14)


def truth_cov(l, rho=0.9):
    return build_true_covariance(toeplitz_coherence(l, rho), linear_phase_ramp(l))


def interior(mask_shape, win):
    """Slice selecting pixels whose window is never clipped."""
    lo = win // 2
    hi_off = win - win // 2 - 1
    return slice(lo, mask_shape[0] - hi_off), slice(lo, mask_shape[1] - hi_off)


def wrapped_gap(a, b):
    return np.abs(np.angle(np.exp(1j * (a - b))))


# ---------------------------------------------------------------------------
# wrap_angle


def test_wrap_angle_principal_interval():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(np.pi) == np.pi
    assert wrap_angle(-np.pi) == np.pi
    assert np.isclose(wrap_angle(3 * np.pi / 2), -np.pi / 2, atol=1e-15)
    assert np.isclose(wrap_angle(-3 * np.pi / 2), np.pi / 2, atol=1e-15)


def test_wrap_angle_matches_phasor_oracle():
    rng = np.random.default_rng(90)
    x = rng.uniform(-50, 50, 2000)
    wrapped = wrap_angle(x)
    assert np.max(np.abs(np.angle(np.exp(1j * x)) - np.where(
        wrapped == np.pi, np.angle(np.exp(1j * np.pi)), wrapped))) < 1e-9
    assert np.all(wrapped > -np.pi)
    assert np.all(wrapped <= np.pi)


def test_wrap_angle_propagates_nan():
    assert np.isnan(wrap_angle(np.nan))


# ---------------------------------------------------------------------------
# containers and window extraction


def test_image_stack_validation():
    with pytest.raises(ValueError):
        ImageStack(np.zeros((4, 4), dtype=complex))
    with pytest.raises(ValueError):
        ImageStack(np.zeros((0, 4, 4), dtype=complex))
    stack = ImageStack(np.zeros((3, 5, 7), dtype=complex))
    assert (stack.count, stack.height, stack.width) == (3, 5, 7)


def test_phase_raster_validation_and_default_masks():
    raster = PhaseRaster(np.zeros((2, 4, 6)))
    assert raster.undersampled.shape == (4, 6)
    assert not raster.undersampled.any()
    assert not raster.failed.any()
    assert raster.nonconverged.shape == (4, 6)
    assert not raster.nonconverged.any()
    assert raster.iterations.shape == (4, 6)
    assert raster.iterations.dtype.kind == "i" and not raster.iterations.any()
    with pytest.raises(ValueError):
        PhaseRaster(np.zeros((2, 4, 6)), undersampled=np.zeros((3, 6), dtype=bool))
    with pytest.raises(ValueError):
        PhaseRaster(np.zeros((2, 4, 6)), nonconverged=np.zeros((4, 5), dtype=bool))
    with pytest.raises(ValueError):
        PhaseRaster(np.zeros((2, 4, 6)), iterations=np.zeros((6, 4), dtype=int))


def test_failed_is_the_nan_mask():
    data = np.zeros((3, 4, 5))
    data[:, 1, 2] = np.nan
    data[2, 3, 0] = np.nan  # one NaN date fails the pixel too
    raster = PhaseRaster(data)
    expected = np.zeros((4, 5), dtype=bool)
    expected[1, 2] = expected[3, 0] = True
    assert np.array_equal(raster.failed, expected)
    with pytest.raises(TypeError):
        PhaseRaster(data, failed=expected)


def test_window_extract_single_pixel():
    rng = np.random.default_rng(91)
    data = rng.standard_normal((4, 6, 5)) + 1j * rng.standard_normal((4, 6, 5))
    stack = ImageStack(data)
    out = sliding_window_extract(stack, 2, 3, 1)
    assert out.shape == (1, 4)
    assert np.array_equal(out[0], data[:, 2, 3])


def test_window_extract_interior_full_window():
    stack = ImageStack(np.zeros((2, 20, 20), dtype=complex))
    assert sliding_window_extract(stack, 10, 10, 8).shape == (64, 2)


def test_window_extract_corner_clipped_against_enumeration():
    rng = np.random.default_rng(92)
    data = rng.standard_normal((3, 12, 12)) + 1j * rng.standard_normal((3, 12, 12))
    stack = ImageStack(data)
    out = sliding_window_extract(stack, 0, 0, 8)
    # window rows/cols run from -4 to 3 around the center; clipping keeps 0..3
    expected = np.array([data[:, r, c] for r in range(4) for c in range(4)])
    assert out.shape == (16, 3)
    assert np.array_equal(out, expected)


def test_window_extract_every_border_size_matches_enumeration():
    stack = ImageStack(np.ones((2, 7, 9), dtype=complex))
    for win in (1, 2, 3, 8):
        for row in range(7):
            for col in range(9):
                rows = [r for r in range(7) if 0 <= r - (row - win // 2) < win]
                cols = [c for c in range(9) if 0 <= c - (col - win // 2) < win]
                n = len(rows) * len(cols)
                assert sliding_window_extract(stack, row, col, win).shape == (n, 2)


def test_window_extract_rejects_bad_inputs():
    stack = ImageStack(np.ones((2, 4, 4), dtype=complex))
    with pytest.raises(IndexError):
        sliding_window_extract(stack, 4, 0, 3)
    with pytest.raises(IndexError):
        sliding_window_extract(stack, 0, -1, 3)
    with pytest.raises(ValueError):
        sliding_window_extract(stack, 0, 0, 0)


# ---------------------------------------------------------------------------
# offline raster processing


@pytest.mark.parametrize("distance", ["kl", "frob"])
def test_offline_raster_recovers_truth_on_zero_noise_stack(distance):
    l, win = 6, 4
    sigma = truth_cov(l)
    stack = noiseless_raster(sigma, win, 10, 10)
    raster = process_stack_offline(stack, PluginSpec(), distance, win, TIGHT)
    rows, cols = interior((10, 10), win)
    truth = np.angle(anchor_reference(linear_phase_ramp(l)))
    gaps = wrapped_gap(raster.data[:, rows, cols], truth[:, None, None])
    assert np.max(gaps) < 1e-5
    assert not raster.failed[rows, cols].any()
    # an undersampled corner may fail (rank-deficient plug-in under kl), but
    # failures must never escape the undersampled border
    assert not (raster.failed & ~raster.undersampled).any()
    assert not raster.undersampled[rows, cols].any()
    assert raster.undersampled[0, 0]  # 2x2 corner window holds 4 < 6 samples


def test_offline_raster_single_pixel_equals_direct_solve():
    rng = np.random.default_rng(93)
    data = rng.standard_normal((4, 1, 1)) + 1j * rng.standard_normal((4, 1, 1))
    stack = ImageStack(data)
    raster = process_stack_offline(stack, PluginSpec(), "frob", 1, TIGHT)
    direct = solve_offline_frob(estimate(data[:, 0, 0][None, :], PluginSpec()), TIGHT)
    assert np.array_equal(raster.data[:, 0, 0], np.angle(direct.phases))


@pytest.mark.parametrize("distance", ["kl", "frob"])
def test_offline_raster_masks_zero_region_without_crashing(distance):
    l, win = 4, 3
    stack = noiseless_raster(truth_cov(l), win, 9, 9)
    stack.data[:, :3, :3] = 0.0
    raster = process_stack_offline(stack, PluginSpec(), distance, win, TIGHT)
    assert raster.failed[:2, :2].all()
    assert np.isnan(raster.data[:, 0, 0]).all()
    assert not raster.failed[5:, 5:].any()
    assert not np.isnan(raster.data[:, 6, 6]).any()


def test_offline_raster_thread_count_does_not_change_output():
    rng = np.random.default_rng(94)
    data = rng.standard_normal((4, 6, 5)) + 1j * rng.standard_normal((4, 6, 5))
    stack = ImageStack(data)
    one = process_stack_offline(stack, PluginSpec(), "frob", 3, TIGHT, threads=1)
    four = process_stack_offline(stack, PluginSpec(), "frob", 3, TIGHT, threads=4)
    assert np.array_equal(one.data, four.data, equal_nan=True)
    assert np.array_equal(one.undersampled, four.undersampled)
    assert np.array_equal(one.failed, four.failed)
    assert np.array_equal(one.nonconverged, four.nonconverged)


# ---------------------------------------------------------------------------
# the row runner: the calling thread is one of its `threads` workers


def rows_and_threads(height, threads):
    """{row: [idents of the threads that ran it]} and the most threads alive
    at once during _run_rows(height, worker, threads). Rows 0 and 1 wait for
    each other, so they run on two different workers."""
    ran, alive = {}, []
    lock = threading.Lock()
    meet = threading.Barrier(2)

    def worker(row):
        if row < 2:
            meet.wait(timeout=10)
        with lock:
            ran.setdefault(row, []).append(threading.get_ident())
            alive.append(threading.active_count())

    seqlink.raster._run_rows(height, worker, threads)
    return ran, max(alive)


def test_rows_run_once_each_on_the_caller_and_one_helper():
    ran, _ = rows_and_threads(8, 2)
    assert sorted(ran) == list(range(8))
    assert all(len(idents) == 1 for idents in ran.values())
    workers = {idents[0] for idents in ran.values()}
    assert threading.get_ident() in workers and len(workers) == 2


def test_no_more_workers_start_than_there_are_rows():
    before = threading.active_count()
    ran, alive = rows_and_threads(2, 5)
    assert sorted(ran) == [0, 1]
    assert alive <= before + 1


def test_every_row_runs_exactly_once_under_fast_thread_switching():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        ran = []
        seqlink.raster._run_rows(3000, ran.append, 4)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(ran) == list(range(3000))


@pytest.mark.parametrize("on_caller", [True, False])
def test_a_raising_row_stops_its_worker_and_propagates_after_the_rest(
        on_caller):
    caller = threading.get_ident()
    before = threading.active_count()
    meet = threading.Barrier(2)
    done = []

    def worker(row):
        if row < 2:
            meet.wait(timeout=10)
        if (threading.get_ident() == caller) == on_caller:
            raise RuntimeError(f"row {row} failed")
        done.append(row)

    with pytest.raises(RuntimeError, match="row [01] failed"):
        seqlink.raster._run_rows(6, worker, 2)
    # the other worker ran every other row, and has stopped
    assert len(done) == 5
    assert threading.active_count() == before


def random_image_stack(seed, l, height, width):
    rng = np.random.default_rng(seed)
    shape = (l, height, width)
    return ImageStack(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


@pytest.mark.parametrize("distance", ["kl", "frob"])
def test_offline_raster_pixels_are_single_solves_of_their_plugins(distance):
    """Each pixel's phases and iteration count are exactly those of the
    single-pixel solver on that pixel's window plug-in, also next to
    skipped (all-zero) windows."""
    stack = random_image_stack(98, 4, 5, 6)
    stack.data[:, 2:, :2] = 0.0
    spec, cfg = PluginSpec("po"), MMConfig(max_iters=60, tol=1e-10)
    raster = process_stack_offline(stack, spec, distance, 3, cfg)
    sigma = [window_estimates(stack.data, row, 3, spec) for row in range(5)]
    solve = solve_offline_kl if distance == "kl" else solve_offline_frob
    for row in range(5):
        for col in range(6):
            if not np.any(sliding_window_extract(stack, row, col, 3)):
                assert raster.failed[row, col]
                continue
            try:
                report = solve(sigma[row][col], cfg)
            except SeqlinkError:  # |Σ| of a small window need not invert
                assert raster.failed[row, col]
                continue
            assert not raster.failed[row, col]
            assert np.array_equal(raster.data[:, row, col],
                                  np.angle(report.phases))
            assert raster.iterations[row, col] == report.iterations
            assert raster.nonconverged[row, col] == (not report.converged)
    assert (raster.iterations[~raster.failed] >= 1).all()
    assert 2 <= raster.failed.sum() <= 8


@pytest.mark.parametrize("distance", ["kl", "frob"])
def test_sequential_raster_pixels_are_single_solves_of_their_plugins(distance):
    p, k = 4, 2
    full = random_image_stack(99, p + k, 5, 4)
    full.data[:, :3, 2:] = 0.0
    past, new = ImageStack(full.data[:p]), ImageStack(full.data[p:])
    cfg = MMConfig(max_iters=80, tol=1e-10)
    past_raster = process_stack_offline(past, PluginSpec(), distance, 3, cfg)
    raster = process_stack_sequential(new, past_raster, past, PluginSpec(),
                                      distance, 3, cfg)
    sigma = [window_estimates(full.data, row, 3, PluginSpec()) for row in range(5)]
    if distance == "frob":
        # the rows the raster builds; the past block, which only the
        # reported cost reads, from the whole plug-in
        for row in range(5):
            sigma[row][:, p:] = window_estimates(full.data, row, 3,
                                                 PluginSpec(), p)
    assert raster.failed[:2, 3].all()
    solved = 0
    for row in range(5):
        for col in range(4):
            if past_raster.failed[row, col]:
                assert raster.failed[row, col]
                continue
            w_past = np.exp(1j * past_raster.data[:, row, col])
            blocks = partition(sigma[row][col], p)
            try:
                if distance == "kl":
                    factors = schur_factors(abs_entrywise(sigma[row][col]), p)
                    report = solve_seq_kl(blocks, factors, w_past, cfg)
                else:
                    report = solve_seq_frob(blocks, w_past, cfg)
            except SeqlinkError:  # |Σ| of a small window need not invert
                assert raster.failed[row, col]
                continue
            assert not raster.failed[row, col]
            assert np.array_equal(raster.data[:, row, col],
                                  np.angle(report.phases))
            assert raster.iterations[row, col] == report.iterations
            assert raster.nonconverged[row, col] == (not report.converged)
            solved += 1
    assert solved >= 10
    if distance == "frob":
        assert raster.failed.sum() == 2


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("spec", [PluginSpec(), PluginSpec("po", "shrink")],
                         ids=lambda s: "-".join(s.label()))
def test_frob_update_raster_is_the_fit_of_its_plugin_rows(spec, threads):
    """Each pixel of a Frobenius update is the fit of the new rows of its
    plug-in, built from both stacks with non-finite entries read as 0, bit
    for bit."""
    p, k, win, height, width = 6, 4, 3, 7, 6
    full = random_image_stack(101, p + k, height, width)
    full.data[:, 5:, :2] = 0.0  # an empty corner
    full.data[p + 1, 1, 3] = np.nan  # fails the windows that hold it
    past, new = ImageStack(full.data[:p]), ImageStack(full.data[p:])
    cfg = MMConfig(max_iters=80, tol=1e-10)
    past_raster = process_stack_offline(past, spec, "frob", win, cfg)
    raster = process_stack_sequential(new, past_raster, past, spec, "frob",
                                      win, cfg, threads)
    assert raster.failed[:3, 2:5].all()
    clean = np.where(np.isfinite(full.data), full.data, 0)
    for row in range(height):
        live = ~raster.failed[row]
        if not live.any():
            continue
        sigma = window_estimates(clean, row, win, spec, p)[live]
        w_past = np.exp(1j * past_raster.data[:, row, live].T)
        batch = fit(sigma, cfg, "frob", w_past)
        assert np.array_equal(raster.data[:, row, live],
                              np.angle(batch.phases).T)
        assert np.array_equal(raster.iterations[row, live], batch.iterations)
    assert (~raster.failed).sum() >= 20


@pytest.mark.parametrize("distance", ["kl", "frob"])
def test_update_reads_the_stacks_in_place_and_frob_fits_only_new_rows(
        monkeypatch, distance):
    """No (l, height, width) copy of both stacks is made; a Frobenius update
    fits (B, k, l) rows and a spectral one whole (B, l, l) plug-ins."""
    p, k, height, width = 5, 3, 6, 5
    full = random_image_stack(102, p + k, height, width)
    past, new = ImageStack(full.data[:p]), ImageStack(full.data[p:])
    cfg = MMConfig(max_iters=50, tol=1e-10)
    past_raster = process_stack_offline(past, PluginSpec(), distance, 3, cfg)
    fitted, joined = [], []
    real_fit, concatenate = seqlink.raster.fit, np.concatenate

    def recording_fit(sigma, *args):
        fitted.append(sigma.shape[1:])
        return real_fit(sigma, *args)

    def recording_concatenate(arrays, *args, **kwargs):
        out = concatenate(arrays, *args, **kwargs)
        joined.append(out.shape)
        return out

    monkeypatch.setattr(seqlink.raster, "fit", recording_fit)
    monkeypatch.setattr(np, "concatenate", recording_concatenate)
    process_stack_sequential(new, past_raster, past, PluginSpec(), distance,
                             3, cfg)
    l = p + k
    assert len(fitted) == height
    assert set(fitted) == {(k, l) if distance == "frob" else (l, l)}
    assert (l, height, width) not in joined


def assert_same_raster(a, b):
    assert np.array_equal(a.data, b.data, equal_nan=True)
    for name in ("undersampled", "failed", "nonconverged", "iterations"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


@pytest.mark.parametrize("distance", ["kl", "frob"])
def test_raster_output_does_not_depend_on_threads(distance):
    p, k, win = 4, 2, 4
    full = random_image_stack(100, p + k, 7, 5)
    full.data[:, 4:, :3] = 0.0  # an empty corner: failed pixels in some rows
    past, new = ImageStack(full.data[:p]), ImageStack(full.data[p:])
    cfg = MMConfig(max_iters=15, tol=1e-12)
    spec = PluginSpec("po", "shrink", beta=0.8)
    runs = []
    for threads in (1, 2, 3):
        offline = process_stack_offline(past, spec, distance, win, cfg, threads)
        seq = process_stack_sequential(new, offline, past, spec, distance, win,
                                       cfg, threads)
        runs.append((offline, seq))
    assert runs[0][0].failed.any() and runs[0][1].nonconverged.any()
    for offline, seq in runs[1:]:
        assert_same_raster(offline, runs[0][0])
        assert_same_raster(seq, runs[0][1])


@pytest.mark.parametrize("win", [1, 2, 3])
def test_raster_masks_match_window_enumeration(win):
    """failed (frob never fails otherwise) marks exactly the windows whose
    samples are all zero; undersampled the windows holding fewer than l."""
    stack = random_image_stack(101, 3, 6, 7)
    stack.data[:, 1:3, 1:4] = 0.0
    stack.data[:, 5, 6] = 0.0
    stack.data[0, 4, 0] = 0.0  # one zero entry does not empty a pixel
    stack.data[:, 4, 0] = 0.0
    stack.data[1, 4, 0] = 1e-300
    raster = process_stack_offline(stack, PluginSpec(), "frob", win,
                                   MMConfig(max_iters=5, tol=1e-8))
    for row in range(6):
        for col in range(7):
            samples = sliding_window_extract(stack, row, col, win)
            assert raster.failed[row, col] == (not np.any(samples))
            assert raster.undersampled[row, col] == (samples.shape[0] < 3)
            assert np.isnan(raster.data[:, row, col]).all() == raster.failed[row, col]
            assert (raster.iterations[row, col] == 0) == raster.failed[row, col]
    assert raster.failed.any() == (win < 3)


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.5, -np.inf)])
def test_non_finite_entry_fails_exactly_the_windows_that_hold_it(value):
    """The entry sits in the first column of the second tile of win band
    product columns, so both tiles' products read it. The windows holding it
    fail; every other pixel is the run with that entry set to 0, bit for bit,
    and the caller's stack keeps its entry."""
    win, height, width = 3, 7, 9
    stack = random_image_stack(5, 4, height, width)
    zeroed = ImageStack(stack.data.copy())
    zeroed.data[2, 3, win] = 0.0
    stack.data[2, 3, win] = value
    marker = np.zeros((1, height, width))
    marker[0, 3, win] = 1.0
    holds = np.array([[sliding_window_extract(ImageStack(marker), row, col,
                                              win).any()
                       for col in range(width)] for row in range(height)])
    cfg = MMConfig(max_iters=30, tol=1e-8)
    spoiled = process_stack_offline(stack, PluginSpec(), "frob", win, cfg)
    clean = process_stack_offline(zeroed, PluginSpec(), "frob", win, cfg)
    assert not clean.failed.any()
    assert np.array_equal(spoiled.failed, holds)
    assert np.isnan(spoiled.data[:, holds]).all()
    assert np.array_equal(spoiled.data[:, ~holds], clean.data[:, ~holds])
    assert np.array_equal(spoiled.iterations[~holds], clean.iterations[~holds])
    assert np.array_equal(stack.data[2, 3, win], value, equal_nan=True)


def test_offline_raster_validates_distance_and_depth():
    stack = ImageStack(np.ones((2, 3, 3), dtype=complex))
    with pytest.raises(ValueError):
        process_stack_offline(stack, PluginSpec(), "l2", 3, TIGHT)
    with pytest.raises(ValueError):
        process_stack_offline(ImageStack(np.ones((1, 3, 3), dtype=complex)),
                              PluginSpec(), "kl", 3, TIGHT)


# ---------------------------------------------------------------------------
# sequential raster processing


@pytest.mark.parametrize("distance", ["kl", "frob"])
def test_sequential_concatenation_matches_offline_raster(distance):
    l, p, win = 8, 6, 4
    sigma = truth_cov(l)
    full = noiseless_raster(sigma, win, 9, 9)
    past = ImageStack(full.data[:p])
    new = ImageStack(full.data[p:])
    past_raster = process_stack_offline(past, PluginSpec(), distance, win, TIGHT)
    new_raster = process_stack_sequential(
        new, past_raster, past, PluginSpec(), distance, win, TIGHT)
    offline = process_stack_offline(full, PluginSpec(), distance, win, TIGHT)
    combined = np.concatenate([past_raster.data, new_raster.data], axis=0)
    rows, cols = interior((9, 9), win)
    assert np.max(wrapped_gap(combined[:, rows, cols],
                              offline.data[:, rows, cols])) < 1e-5


@pytest.mark.parametrize("distance", ["kl", "frob"])
def test_sequential_decoupled_new_block_matches_standalone_offline(distance):
    p, k, win = 5, 3, 4
    psi = scipy.linalg.block_diag(toeplitz_coherence(p, 0.9),
                                  toeplitz_coherence(k, 0.85))
    sigma = build_true_covariance(psi, linear_phase_ramp(p + k))
    full = noiseless_raster(sigma, win, 9, 9)
    past = ImageStack(full.data[:p])
    new = ImageStack(full.data[p:])
    past_raster = process_stack_offline(past, PluginSpec(), distance, win, TIGHT)
    seq = process_stack_sequential(
        new, past_raster, past, PluginSpec(), distance, win, TIGHT)
    alone = process_stack_offline(new, PluginSpec(), distance, win, TIGHT)
    rows, cols = interior((9, 9), win)
    seq_anchored = seq.data[:, rows, cols] - seq.data[:1, rows, cols]
    assert np.max(wrapped_gap(seq_anchored, alone.data[:, rows, cols])) < 1e-5


def test_sequential_three_block_accumulation_matches_offline():
    l, sizes, win = 8, (4, 2, 2), 4
    sigma = truth_cov(l)
    full = noiseless_raster(sigma, win, 9, 9)
    p = sizes[0]
    phases = process_stack_offline(
        ImageStack(full.data[:p]), PluginSpec(), "kl", win, TIGHT)
    for k in sizes[1:]:
        past_stack = ImageStack(full.data[:p])
        new_stack = ImageStack(full.data[p:p + k])
        new_raster = process_stack_sequential(
            new_stack, phases, past_stack, PluginSpec(), "kl", win, TIGHT)
        phases = PhaseRaster(
            np.concatenate([phases.data, new_raster.data], axis=0))
        p += k
    offline = process_stack_offline(full, PluginSpec(), "kl", win, TIGHT)
    rows, cols = interior((9, 9), win)
    assert np.max(wrapped_gap(phases.data[:, rows, cols],
                              offline.data[:, rows, cols])) < 1e-5


def test_sequential_propagates_failed_past_pixels():
    l, p, win = 6, 4, 3
    full = noiseless_raster(truth_cov(l), win, 7, 7)
    past = ImageStack(full.data[:p])
    new = ImageStack(full.data[p:])
    past_raster = process_stack_offline(past, PluginSpec(), "kl", win, TIGHT)
    past_raster.data[:, 3, 3] = np.nan
    seq = process_stack_sequential(new, past_raster, past,
                                   PluginSpec(), "kl", win, TIGHT)
    assert seq.failed[3, 3]
    assert np.isnan(seq.data[:, 3, 3]).all()
    assert not seq.failed[5, 5]


@pytest.mark.parametrize("distance", ["kl", "frob"])
def test_sequential_raster_masks_zero_region(distance):
    l, p, win = 6, 4, 3
    full = noiseless_raster(truth_cov(l), win, 9, 9)
    past = ImageStack(full.data[:p])
    past_raster = process_stack_offline(past, PluginSpec(), distance, win, TIGHT)
    zeroed = full.data.copy()
    zeroed[:, 6:, 6:] = 0.0
    seq = process_stack_sequential(ImageStack(zeroed[p:]), past_raster,
                                   ImageStack(zeroed[:p]), PluginSpec(),
                                   distance, win, TIGHT)
    assert seq.failed[7:, 7:].all()
    assert np.isnan(seq.data[:, 8, 8]).all()
    assert not seq.failed[:5, :5].any()
    assert (seq.iterations[:5, :5] > 0).all()


def test_sequential_thread_count_does_not_change_output():
    l, p, win = 6, 4, 3
    rng = np.random.default_rng(95)
    data = rng.standard_normal((l, 6, 6)) + 1j * rng.standard_normal((l, 6, 6))
    full = ImageStack(data)
    past = ImageStack(data[:p])
    new = ImageStack(data[p:])
    past_raster = process_stack_offline(past, PluginSpec(), "kl", win, TIGHT)
    one = process_stack_sequential(new, past_raster, past, PluginSpec(),
                                   "kl", win, TIGHT, threads=1)
    four = process_stack_sequential(new, past_raster, past, PluginSpec(),
                                    "kl", win, TIGHT, threads=4)
    assert np.array_equal(one.data, four.data, equal_nan=True)
    assert np.array_equal(one.failed, four.failed)
    assert np.array_equal(one.nonconverged, four.nonconverged)


def test_sequential_validates_alignment():
    past = ImageStack(np.ones((3, 4, 4), dtype=complex))
    new = ImageStack(np.ones((2, 4, 4), dtype=complex))
    with pytest.raises(ValueError):
        process_stack_sequential(new, PhaseRaster(np.zeros((3, 5, 4))), past)
    with pytest.raises(ValueError):
        process_stack_sequential(new, PhaseRaster(np.zeros((2, 4, 4))), past)
    with pytest.raises(ValueError):
        process_stack_sequential(
            ImageStack(np.ones((2, 5, 4), dtype=complex)),
            PhaseRaster(np.zeros((3, 4, 4))), past)


# ---------------------------------------------------------------------------
# interferograms


def test_interferogram_same_date_is_zero():
    raster = PhaseRaster(np.random.default_rng(96).uniform(-3, 3, (4, 5, 5)))
    assert np.array_equal(interferogram(raster, 2, 2), np.zeros((5, 5)))


def test_interferogram_constant_for_replicated_ramp():
    l, total = 10, 2.0
    angles = np.angle(linear_phase_ramp(l, total))
    raster = PhaseRaster(np.tile(angles[:, None, None], (1, 3, 4)))
    out = interferogram(raster, 9, 0)
    expected = wrap_angle(total * 9 / l)
    assert np.allclose(out, expected, atol=1e-12)


def test_interferogram_matches_scalar_wrap_oracle():
    rng = np.random.default_rng(97)
    raster = PhaseRaster(rng.uniform(-np.pi, np.pi, (3, 6, 6)))
    out = interferogram(raster, 0, 2)
    for r in range(6):
        for c in range(6):
            oracle = np.angle(
                np.exp(1j * (raster.data[0, r, c] - raster.data[2, r, c])))
            assert abs(np.angle(np.exp(1j * (out[r, c] - oracle)))) < 1e-12


def test_interferogram_rejects_out_of_range_dates():
    raster = PhaseRaster(np.zeros((3, 2, 2)))
    with pytest.raises(IndexError):
        interferogram(raster, 0, 3)
    with pytest.raises(IndexError):
        interferogram(raster, -1, 0)


# ---------------------------------------------------------------------------
# zero-noise raster construction


def test_noiseless_raster_full_windows_reproduce_covariance():
    from seqlink import scm

    sigma = truth_cov(5)
    stack = noiseless_raster(sigma, 3, 8, 8)
    for row, col in ((4, 4), (1, 1), (6, 3)):
        samples = sliding_window_extract(stack, row, col, 3)
        assert samples.shape == (9, 5)
        assert np.max(np.abs(scm(samples) - sigma)) < 1e-12
