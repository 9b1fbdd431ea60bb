"""End-to-end command-line tests (subprocess level).

Exit-code contract: 0 success, 1 runtime failure, 2 usage/validation error.
"""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from seqlink import (
    ImageStack,
    read_manifest,
    read_phase_raster,
    read_stack,
    write_stack,
)

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
    assert 1 <= float(record["iterations.p50"]) <= int(record["iterations.max"])
    raster = read_phase_raster(out)
    assert raster.count == 6


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


def test_solve_flags_pixels_that_run_out_of_iterations(tmp_path):
    cfg = tmp_path / "noisy.cfg"
    stack = tmp_path / "noisy.slk"
    cfg.write_text(SIM_CFG.format(out=stack).replace("noiseless = true",
                                                     "noiseless = false"))
    assert run_cli("simulate", cfg).returncode == 0
    out = tmp_path / "noisy.csv"
    result = run_cli("solve", stack, "--window", 4, "--max-iters", 1,
                     "--out", out)
    assert result.returncode == 0, result.stderr
    record = read_manifest(tmp_path / "noisy.csv.manifest.txt")
    count = int(record["pixels.nonconverged"])
    assert count > 0
    assert record["iterations.p50"] == "1.0"
    assert record["iterations.max"] == "1"
    assert f"{count} did not converge" in result.stderr
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
                     "--distance", "frob", "--binary", "--out", out)
    assert result.returncode == 0, result.stderr
    assert (scene / "phases.slk").read_bytes()[:8] == b"SLKSTACK"
    raster = read_phase_raster(out)
    assert raster.count == 6


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
    assert record["config.experiment_0.distance"] == "kl"
    assert record["config.experiment_1.mode"] == "sequential"


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


def test_bench_honors_threads_env_var(tmp_path):
    import os
    out = tmp_path / "env.csv"
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(BENCH_CFG.format(out=out))
    env = dict(os.environ, SEQLINK_THREADS="3")
    result = run_cli("bench", cfg, env=env)
    assert result.returncode == 0, result.stderr
    ref = tmp_path / "ref.csv"
    cfg.write_text(BENCH_CFG.format(out=ref))
    assert run_cli("bench", cfg, "--threads", 1).returncode == 0
    assert out.read_bytes() == ref.read_bytes()


def test_bench_rejects_garbage_threads_env(tmp_path):
    import os
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(BENCH_CFG.format(out=tmp_path / "x.csv"))
    env = dict(os.environ, SEQLINK_THREADS="lots")
    result = run_cli("bench", cfg, env=env)
    assert result.returncode == 2
    assert "SEQLINK_THREADS" in result.stderr


def test_timing_emits_csv_row(tmp_path):
    out = tmp_path / "t.csv"
    result = run_cli("timing", "--p", 8, "--k", 2, "--reps", 5,
                     "--out", out)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == "p,k,distance,seq_ms,offline_ms,ratio"
    fields = lines[1].split(",")
    assert fields[:3] == ["8", "2", "kl"]
    seq_ms, offline_ms, ratio = map(float, fields[3:])
    assert seq_ms > 0 and offline_ms > 0
    assert ratio == pytest.approx(seq_ms / offline_ms)
    assert out.read_text() == result.stdout


def test_timing_runs_one_row_per_past_length(tmp_path):
    out = tmp_path / "t.csv"
    result = run_cli("timing", "--p", "8,12", "--k", 2, "--reps", 5,
                     "--out", out)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == "p,k,distance,seq_ms,offline_ms,ratio"
    assert [line.split(",")[:3] for line in lines[1:]] == [
        ["8", "2", "kl"], ["12", "2", "kl"]]
    assert out.read_text() == result.stdout
    manifest = read_manifest(f"{out}.manifest.txt")
    assert manifest["p"] == "8,12" and manifest["status"] == "ok"


def test_timing_rejects_bad_shape():
    result = run_cli("timing", "--p", 2, "--k", 5, "--reps", 5)
    assert result.returncode == 2
