"""The scripts under scripts/ write config files and pass them to the
command line. This suite checks that every config a script writes still
loads, so that a key a script writes cannot be dropped unnoticed."""
import importlib.util
from pathlib import Path

import pytest

from seqlink.config import load_experiments, load_simulate_job

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# per bench script: its config at 2 trials (and one sample size where the
# script takes them), and the number of experiments in it
BENCH_CONFIGS = {
    "run_sample_size_benchmark": (
        lambda script: script.CONFIG_TEMPLATE.format(trials=2), 4),
    "run_multiblock_benchmark": (
        lambda script: script.CONFIG_TEMPLATE.format(n_grid="45", trials=2),
        1),
    "run_heavy_tail_benchmark": (
        lambda script: script.build_config(nu=1.0, n_grid="45", trials=2), 8),
}


def test_every_bench_script_is_covered():
    assert sorted(BENCH_CONFIGS) == sorted(
        path.stem for path in SCRIPTS.glob("run_*_benchmark.py"))


@pytest.mark.parametrize("name", sorted(BENCH_CONFIGS))
def test_every_bench_script_config_loads(name):
    build, count = BENCH_CONFIGS[name]
    configs, _, _ = load_experiments(build(load_script(name)))
    assert len(configs) == count
    assert all(cfg.trials == 2 for cfg in configs)


def test_the_raster_demo_config_loads(tmp_path):
    script = load_script("run_raster_demo")
    job, _ = load_simulate_job(
        script.CONFIG_TEMPLATE.format(out=tmp_path / "demo.slk"))
    assert job.noiseless and job.out == str(tmp_path / "demo.slk")
