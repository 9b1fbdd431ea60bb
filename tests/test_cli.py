"""End-to-end command-line tests, at subprocess level, and in process
through cli.main where a test swaps out part of the program.

Exit-code contract: 0 success, 1 runtime failure, 2 usage/validation error.
"""
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import seqlink.cli
from seqlink import (
    MAGIC,
    ConfigError,
    ImageStack,
    NotPositiveDefinite,
    PluginSpec,
    SeqlinkError,
    SimulationConfig,
    ground_truth,
    noiseless_raster,
    process_stack_offline,
    read_manifest,
    read_phase_raster,
    read_stack,
    write_stack,
)
from seqlink.blas import blas_pinnable
from seqlink.cli import main
from seqlink.solvers import MMConfig

REPO = Path(__file__).resolve().parents[1]

SIM_CFG = """
l = 6
p = 4
k = 2
rho = 0.9
seed = 3
height = 8
width = 8
noiseless = true
window = 4
out = {out}
"""

BENCH_CFG = """
l = 6
p = 4
k = 2
rho = 0.9
trials = 3
n_grid = 8, 16
master_seed = 5
out = {out}

[experiment]
distance = kl

[experiment]
distance = frob
mode = sequential
"""


def run_cli(*args, cwd=None, env=None):
    return subprocess.run(
        [sys.executable, "-m", "seqlink", *map(str, args)],
        capture_output=True, text=True, cwd=cwd, env=env)


def one_iteration_budget(monkeypatch):
    """Make the solver budget that solve fits with one iteration."""
    monkeypatch.setattr(seqlink.cli, "MMConfig", lambda: MMConfig(max_iters=1))


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    """A simulated noiseless scene with past/new sub-stacks."""
    root = tmp_path_factory.mktemp("scene")
    cfg = root / "sim.cfg"
    out = root / "demo.slk"
    cfg.write_text(SIM_CFG.format(out=out))
    result = run_cli("simulate", cfg, "--split")
    assert result.returncode == 0, result.stderr
    return root


def test_simulate_writes_stack_truth_and_manifest(scene):
    stack = read_stack(scene / "demo.slk")
    assert (stack.count, stack.height, stack.width) == (6, 8, 8)
    truth = (scene / "demo.slk.truth.csv").read_text().splitlines()
    assert truth[0] == "date,angle"
    assert len(truth) == 7
    record = read_manifest(scene / "demo.slk.manifest.txt")
    assert record["command"] == "simulate"
    assert record["status"] == "ok"
    assert record["config.l"] == "6"
    assert record["config.rho"] == "0.9"


def test_simulate_split_writes_past_and_new_stacks(scene):
    past = read_stack(scene / "demo.slk.past.slk")
    new = read_stack(scene / "demo.slk.new.slk")
    full = read_stack(scene / "demo.slk")
    assert past.count == 4 and new.count == 2
    assert np.array_equal(np.concatenate([past.data, new.data]), full.data)


def test_simulate_rejects_rho_out_of_range(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("l=6\np=4\nk=2\nrho=1.5\n")
    result = run_cli("simulate", cfg)
    assert result.returncode == 2
    assert "rho out of range" in result.stderr


@pytest.mark.parametrize("p, k", [(-1, 7), (0, 6)])
def test_simulate_and_bench_reject_a_non_positive_past_length(tmp_path, p, k):
    cfg = tmp_path / "bad.cfg"
    out = tmp_path / "out.slk"
    cfg.write_text(f"l=6\np={p}\nk={k}\nrho=0.9\nout={out}\n")
    for command in ("simulate", "bench"):
        result = run_cli(command, cfg)
        assert result.returncode == 2, result.stderr
        assert "must both be >= 1" in result.stderr
    assert list(tmp_path.iterdir()) == [cfg]


def test_solve_rejects_window_zero_before_writing_a_manifest(scene, tmp_path):
    out = tmp_path / "w.csv"
    result = run_cli("solve", scene / "demo.slk", "--window", 0, "--out", out)
    assert result.returncode == 2
    assert "window" in result.stderr
    assert list(tmp_path.iterdir()) == []


def test_unknown_flag_exits_2_with_usage(scene):
    result = run_cli("solve", scene / "demo.slk", "--frobnicate")
    assert result.returncode == 2
    assert "usage" in result.stderr


def test_missing_config_exits_2(tmp_path):
    result = run_cli("simulate", tmp_path / "nope.cfg")
    assert result.returncode == 2


def test_offline_solve_reports_small_error_on_noiseless_scene(scene):
    out = scene / "offline.csv"
    result = run_cli("solve", scene / "demo.slk", "--mode", "offline",
                     "--distance", "kl", "--estimator", "scm",
                     "--window", 4, "--truth", scene / "demo.slk.truth.csv",
                     "--out", out)
    assert result.returncode == 0, result.stderr
    record = read_manifest(scene / "offline.csv.manifest.txt")
    assert float(record["error.max_interior"]) < 1e-5
    assert record["pixels.nonconverged"] == "0"
    assert record["blas.pinned"] == ("yes" if blas_pinnable() else "no")
    assert 1 <= float(record["iterations.p50"]) <= int(record["iterations.max"])
    raster = read_phase_raster(out)
    assert raster.count == 6


def test_solve_fits_with_the_library_default_budget(tmp_path):
    """A default-budget offline KL raster of a noisy stack is the `seqlink
    solve` raster of that stack: MMConfig() is the budget solve fits with."""
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(SIM_CFG.format(out=tmp_path / "noisy.slk")
                   .replace("noiseless = true", "noiseless = false"))
    assert main(["simulate", str(cfg)]) == 0
    out = tmp_path / "phases.csv"
    assert main(["solve", str(tmp_path / "noisy.slk"), "--window", "4",
                 "--out", str(out)]) == 0
    raster = process_stack_offline(read_stack(tmp_path / "noisy.slk"),
                                   PluginSpec(), "kl", 4)
    assert np.array_equal(read_phase_raster(out).data, raster.data,
                          equal_nan=True)


def test_solve_with_a_malformed_truth_csv_exits_2_naming_the_line(
        scene, tmp_path, capsys, monkeypatch):
    one_iteration_budget(monkeypatch)
    truth = tmp_path / "truth.csv"
    truth.write_text("date,angle\n0,0.0\n1,abc\n")
    assert main(["solve", str(scene / "demo.slk"), "--window", "4",
                 "--truth", str(truth),
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert f"{truth}: line 3: " in capsys.readouterr().err


def test_sequential_solve_from_prior_offline_run(scene):
    past_out = scene / "past.csv"
    result = run_cli("solve", scene / "demo.slk.past.slk",
                     "--mode", "offline", "--distance", "kl",
                     "--window", 4, "--out", past_out)
    assert result.returncode == 0, result.stderr
    seq_out = scene / "seq.csv"
    result = run_cli("solve", scene / "demo.slk.new.slk",
                     "--mode", "sequential", "--distance", "kl",
                     "--window", 4, "--past-phases", past_out,
                     "--past-stack", scene / "demo.slk.past.slk",
                     "--truth", scene / "demo.slk.truth.csv",
                     "--out", seq_out)
    assert result.returncode == 0, result.stderr
    raster = read_phase_raster(seq_out)
    assert raster.count == 2
    record = read_manifest(scene / "seq.csv.manifest.txt")
    assert float(record["error.max_interior"]) < 1e-5
    assert record["pixels.nonconverged"] == "0"
    assert record["input.past_phases"] == str(past_out)


def test_sequential_without_past_inputs_exits_2(scene):
    result = run_cli("solve", scene / "demo.slk.new.slk",
                     "--mode", "sequential")
    assert result.returncode == 2
    assert "past" in result.stderr


@pytest.mark.parametrize("flag", ["--past-phases", "--past-stack"])
def test_offline_solve_given_a_past_input_exits_2(scene, tmp_path, flag,
                                                  capsys):
    """An offline solve reads no past, so a past input is refused, before
    the manifest is written, rather than ignored."""
    assert main(["solve", str(scene / "demo.slk"), flag,
                 str(tmp_path / "nonexistent"),
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert "error: past-phases: offline mode" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_solve_flags_pixels_that_run_out_of_iterations(tmp_path, capsys,
                                                       monkeypatch):
    cfg = tmp_path / "noisy.cfg"
    stack = tmp_path / "noisy.slk"
    cfg.write_text(SIM_CFG.format(out=stack).replace("noiseless = true",
                                                     "noiseless = false"))
    assert main(["simulate", str(cfg)]) == 0
    one_iteration_budget(monkeypatch)
    out = tmp_path / "noisy.csv"
    capsys.readouterr()
    assert main(["solve", str(stack), "--window", "4", "--out", str(out)]) == 0
    record = read_manifest(tmp_path / "noisy.csv.manifest.txt")
    count = int(record["pixels.nonconverged"])
    assert count > 0
    assert record["iterations.p50"] == "1.0"
    assert record["iterations.max"] == "1"
    assert f"{count} did not converge" in capsys.readouterr().err
    # unconverged phases are still written, not turned into failures
    assert record["pixels.failed"] == "0"
    assert not np.isnan(read_phase_raster(out).data).any()


def test_solve_reports_no_iterations_when_every_pixel_fails(tmp_path):
    stack = tmp_path / "zero.slk"
    write_stack(stack, ImageStack(np.zeros((3, 4, 4), dtype=complex)))
    result = run_cli("solve", stack, "--window", 2, "--out", tmp_path / "z.csv")
    assert result.returncode == 0, result.stderr
    record = read_manifest(tmp_path / "z.csv.manifest.txt")
    assert record["pixels.failed"] == "16"
    assert record["iterations.p50"] == record["iterations.max"] == "nan"


@pytest.mark.parametrize("distance", ["kl", "frob"])
def test_raster_demo_script_runs_end_to_end(tmp_path, distance):
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    result = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "run_raster_demo.py"),
         "--out-dir", str(tmp_path), "--distance", distance],
        capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    for name in ("demo.slk.past.phases.csv", "demo.slk.new.phases.csv"):
        record = read_manifest(tmp_path / f"{name}.manifest.txt")
        assert float(record["error.max_interior"]) < 1e-5


def test_binary_raster_output_round_trips(scene):
    out = scene / "phases.slk"
    result = run_cli("solve", scene / "demo.slk", "--window", 4,
                     "--distance", "frob", "--out", out)
    assert result.returncode == 0, result.stderr
    assert (scene / "phases.slk").read_bytes()[:8] == b"SLKSTACK"
    raster = read_phase_raster(out)
    assert raster.count == 6


@pytest.mark.parametrize("flag", [["--binary"], ["--tol", "1e-10"],
                                  ["--max-iters", "5"]])
def test_solve_takes_no_binary_or_tol_flag(scene, tmp_path, flag, capsys):
    """The output format follows the --out suffix, and the solver budget is
    MMConfig()'s."""
    assert main(["solve", str(scene / "demo.slk"), "--out",
                 str(tmp_path / "x.slk"), *flag]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("suffix", [".csv", ".slk"])
def test_failed_pixels_survive_the_raster_file_and_the_update_skips_them(
        tmp_path, suffix):
    """An offline raster over a zero region writes its failed pixels as NaN
    in either format; read back, they are the pixels the update skips (its
    new images hold signal everywhere)."""
    l, p, win = 6, 4, 3
    sigma = ground_truth(SimulationConfig(l=l, p=p, k=l - p, rho=0.9))[2]
    full = noiseless_raster(sigma, win, 9, 9).data
    past_data = full[:p].copy()
    past_data[:, 6:, 6:] = 0.0
    past_stack, new_stack = tmp_path / "past.slk", tmp_path / "new.slk"
    write_stack(past_stack, ImageStack(past_data))
    write_stack(new_stack, ImageStack(full[p:]))
    past = tmp_path / f"phases{suffix}"
    assert main(["solve", str(past_stack), "--window", str(win),
                 "--out", str(past)]) == 0
    assert past.read_bytes().startswith(MAGIC) == (suffix == ".slk")
    failed = read_phase_raster(past).failed
    assert failed[7:, 7:].all() and not failed[:5, :5].any()
    record = read_manifest(f"{past}.manifest.txt")
    assert record["pixels.failed"] == str(failed.sum())
    new = tmp_path / "new.csv"
    assert main(["solve", str(new_stack), "--mode", "sequential",
                 "--past-phases", str(past), "--past-stack", str(past_stack),
                 "--window", str(win), "--out", str(new)]) == 0
    assert np.array_equal(read_phase_raster(new).failed, failed)
    assert read_manifest(f"{new}.manifest.txt")["pixels.failed"] == str(
        failed.sum())


def test_solve_and_bench_manifests_record_the_solver_budget(scene, tmp_path,
                                                           monkeypatch):
    out = tmp_path / "one.csv"
    with monkeypatch.context() as patch:
        one_iteration_budget(patch)
        assert main(["solve", str(scene / "demo.slk"), "--window", "4",
                     "--out", str(out)]) == 0
    record = read_manifest(f"{out}.manifest.txt")
    assert record["solver.max_iters"] == "1"
    assert record["solver.tol"] == "1e-14"
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(BENCH_CFG.format(out=tmp_path / "b.csv")
                   .replace("trials = 3", "trials = 1")
                   .replace("n_grid = 8, 16", "n_grid = 8"))
    assert main(["bench", str(cfg)]) == 0
    record = read_manifest(tmp_path / "b.csv.manifest.txt")
    assert record["solver.max_iters"] == "10000"
    assert record["solver.tol"] == "1e-14"


def _stage_times(manifest, keys, wall):
    """The manifest's stage times: finite, >= 0, adding up to at most the
    command's wall time."""
    record = read_manifest(manifest)
    times = [float(record[key]) for key in keys]
    assert all(np.isfinite(t) and t >= 0 for t in times)
    assert sum(times) <= wall


def test_solve_manifest_times_each_stage(scene, tmp_path):
    past = tmp_path / "past.csv"
    assert main(["solve", str(scene / "demo.slk.past.slk"), "--window", "4",
                 "--out", str(past)]) == 0
    out = tmp_path / "seq.csv"
    start = time.perf_counter()
    assert main(["solve", str(scene / "demo.slk.new.slk"), "--window", "4",
                 "--mode", "sequential", "--past-phases", str(past),
                 "--past-stack", str(scene / "demo.slk.past.slk"),
                 "--out", str(out)]) == 0
    wall = time.perf_counter() - start
    _stage_times(f"{out}.manifest.txt",
                 ("timing.read_s", "timing.fit_s", "timing.write_s"), wall)


def test_bench_manifest_times_each_stage(tmp_path):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(BENCH_CFG.format(out=tmp_path / "b.csv")
                   .replace("trials = 3", "trials = 1"))
    start = time.perf_counter()
    assert main(["bench", str(cfg)]) == 0
    wall = time.perf_counter() - start
    _stage_times(tmp_path / "b.csv.manifest.txt",
                 ("timing.fit_s", "timing.write_s"), wall)


@pytest.mark.parametrize("error, code, prefix", [
    (ConfigError("k", "bad"), 2, "error: k: bad"),
    (ValueError("bad value"), 2, "error: bad value"),
    (OSError("no disk"), 2, "error: no disk"),
    (NotPositiveDefinite("not PD"), 1, "runtime failure: not PD"),
    (SeqlinkError("solver broke"), 1, "runtime failure: solver broke"),
    (RuntimeError("bug"), 1, "runtime failure: bug"),
])
def test_exit_code_of_each_error_kind(monkeypatch, capsys, error, code, prefix):
    """Usage and validation errors, bad values and I/O errors exit 2; any
    other failure exits 1."""
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(seqlink.cli, "timing_experiment", fail)
    assert main(["timing", "--p", "8", "--k", "2"]) == code
    assert prefix in capsys.readouterr().err


def test_bench_writes_csv_and_manifest(tmp_path):
    cfg = tmp_path / "bench.cfg"
    out = tmp_path / "b.csv"
    cfg.write_text(BENCH_CFG.format(out=out))
    result = run_cli("bench", cfg)
    assert result.returncode == 0, result.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "mode,distance,estimator,regularizer,n,trials,excluded,mse,stderr"
    assert len(lines) == 5  # 2 experiments x 2 stack sizes
    assert lines[1].startswith("offline,kl,scm,none,8,3,")
    assert lines[3].startswith("sequential,frob,scm,none,8,3,")
    record = read_manifest(tmp_path / "b.csv.manifest.txt")
    assert record["command"] == "bench"
    assert record["rows"] == "4"
    assert record["blas.pinned"] == ("yes" if blas_pinnable() else "no")
    assert record["config.experiment_0.distance"] == "kl"
    assert record["config.experiment_1.mode"] == "sequential"


@pytest.mark.parametrize("header", ["", "out = {dir}/bench.csv\n"],
                         ids=["header-without-out", "header-with-out"])
def test_bench_refuses_out_inside_a_section(tmp_path, capsys, header):
    """One CSV holds every experiment's rows, so only the header sets out;
    a section's out is refused, not ignored."""
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(f"l=6\np=4\nk=2\ntrials=1\nn_grid=8\n"
                   f"{header.format(dir=tmp_path)}"
                   f"[experiment]\nout = {tmp_path}/inner.csv\n")
    assert main(["bench", str(cfg)]) == 2
    assert "error: out: " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


def test_bench_output_identical_across_thread_counts(tmp_path):
    texts = {}
    for threads in (1, 4):
        out = tmp_path / f"b{threads}.csv"
        cfg = tmp_path / f"bench{threads}.cfg"
        cfg.write_text(BENCH_CFG.format(out=out))
        result = run_cli("bench", cfg, "--threads", threads)
        assert result.returncode == 0, result.stderr
        texts[threads] = out.read_bytes()
    assert texts[1] == texts[4]


def test_timing_emits_csv_row(tmp_path):
    out = tmp_path / "t.csv"
    result = run_cli("timing", "--p", 8, "--k", 2, "--reps", 5,
                     "--out", out)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == ("p,k,distance,seq_ms,offline_ms,ratio,seq_fit_ms,"
                        "plugin_ms")
    fields = lines[1].split(",")
    assert fields[:3] == ["8", "2", "kl"]
    seq_ms, offline_ms, ratio = map(float, fields[3:6])
    assert seq_ms > 0 and offline_ms > 0
    assert ratio == pytest.approx(seq_ms / offline_ms)
    assert out.read_text() == result.stdout


def test_timing_runs_one_row_per_past_length(tmp_path):
    out = tmp_path / "t.csv"
    result = run_cli("timing", "--p", "8,12", "--k", 2, "--reps", 5,
                     "--out", out)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == ("p,k,distance,seq_ms,offline_ms,ratio,seq_fit_ms,"
                        "plugin_ms")
    assert [line.split(",")[:3] for line in lines[1:]] == [
        ["8", "2", "kl"], ["12", "2", "kl"]]
    # the sequential update timed as one fit call, Schur factors included,
    # and the plug-in it reads
    assert all(float(value) > 0 for line in lines[1:]
               for value in line.split(",")[6:8])
    assert out.read_text() == result.stdout
    manifest = read_manifest(f"{out}.manifest.txt")
    assert manifest["p"] == "8,12" and manifest["status"] == "ok"
    # the fixed budget the timings were taken with, and the BLAS pinning
    assert manifest["solver.max_iters"] == "30"
    assert manifest["solver.tol"] == "0.0"
    assert manifest["blas.pinned"] == ("yes" if blas_pinnable() else "no")


def test_timing_prints_the_rows_timed_before_a_failing_past_length(tmp_path):
    out = tmp_path / "t.csv"
    result = run_cli("timing", "--p", "8,1", "--k", 2, "--reps", 5,
                     "--out", out)
    assert result.returncode == 2
    assert "need p >= k >= 1" in result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == ("p,k,distance,seq_ms,offline_ms,ratio,seq_fit_ms,"
                        "plugin_ms")
    assert len(lines) == 2 and lines[1].split(",")[:3] == ["8", "2", "kl"]
    assert not out.exists()


def test_timing_rejects_bad_shape():
    result = run_cli("timing", "--p", 2, "--k", 5, "--reps", 5)
    assert result.returncode == 2
