"""Config-file parsing and job construction."""
import numpy as np
import pytest

import seqlink.bench
from seqlink import (
    ConfigError,
    ExperimentConfig,
    MMConfig,
    PluginSpec,
    SimulateJob,
    SimulationConfig,
    build_experiment,
    build_plugin,
    build_simulate_job,
    build_simulation,
    fit,
    load_experiments,
    load_simulate_job,
    mc_mse_experiment,
    parse_config,
    parse_regularizer_token,
)
from seqlink.solvers import check_distance

SIM_TEXT = """
# synthetic scene
l = 8
p = 6
k = 2
rho = 0.9        # coherence decay
height = 16
width = 12
out = demo.slk
"""

BENCH_TEXT = """
l = 8
p = 6
k = 2
rho = 0.9
trials = 4
n_grid = 12, 24
out = demo_bench.csv

[experiment]
distance = kl

[experiment]
distance = frob
estimator = po
"""


def test_parse_config_strips_comments_and_blanks():
    defaults, sections = parse_config(SIM_TEXT)
    assert defaults["l"] == "8"
    assert defaults["rho"] == "0.9"
    assert sections == []


def test_parse_config_sections_inherit_and_override():
    defaults, sections = parse_config(BENCH_TEXT)
    assert len(sections) == 2
    assert sections[0]["distance"] == "kl"
    assert sections[0]["l"] == "8"  # inherited
    assert sections[1]["estimator"] == "po"
    assert "estimator" not in sections[0]


def test_parse_config_rejects_unknown_section():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config("[jobs]\nl = 8\n")


def test_parse_config_rejects_malformed_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("l = 8\nnot a key value\n")


def test_coercion_types():
    job, _ = load_simulate_job(
        "l=6\np=4\nk=2\nrho=0.5\nnu=2.0\nnoiseless=yes\nheight=4\nwidth=4\n")
    assert job.sim.l == 6 and isinstance(job.sim.l, int)
    assert job.sim.rho == 0.5
    assert job.noiseless is True


def test_boolean_coercion_rejects_garbage():
    with pytest.raises(ConfigError, match="noiseless"):
        load_simulate_job("l=6\np=4\nk=2\nnoiseless=maybe\n")


def test_unknown_key_is_named_in_the_error():
    with pytest.raises(ConfigError, match="wavelength") as info:
        load_simulate_job("l=6\np=4\nk=2\nwavelength=0.05\n")
    assert info.value.key == "wavelength"
    assert "unknown key" in str(info.value)


@pytest.mark.parametrize("load, key, text", [
    (load_simulate_job, "total_phase", "l=6\np=4\nk=2\ntotal_phase=3.0\n"),
    (load_experiments, "total_phase", "l=6\np=4\nk=2\ntotal_phase=3.0\n"),
    (load_experiments, "solver_tol", "l=6\np=4\nk=2\nsolver_tol=1e-10\n"),
    (load_experiments, "solver_max_iters",
     "l=6\np=4\nk=2\n[experiment]\nsolver_max_iters=50\n"),
    (load_simulate_job, "n", "l=6\np=4\nk=2\nn=128\n"),
    (load_experiments, "n", "l=6\np=4\nk=2\nn=128\n"),
    (load_experiments, "seed", "l=6\np=4\nk=2\n[experiment]\nseed=3\n"),
])
def test_phase_span_and_solver_budget_are_not_config_keys(load, key, text):
    with pytest.raises(ConfigError, match=key) as info:
        load(text)
    assert info.value.key == key
    assert "unknown key" in str(info.value)


def test_rho_out_of_range_message():
    with pytest.raises(ConfigError, match="rho out of range") as info:
        build_simulation({"l": 8, "p": 6, "k": 2, "rho": 1.5})
    assert info.value.key == "rho"


def test_rho_zero_and_one_are_out_of_range():
    for bad in (0.0, 1.0, -0.2):
        with pytest.raises(ConfigError, match="rho out of range"):
            build_simulation({"rho": bad})


def test_nu_must_be_positive():
    with pytest.raises(ConfigError, match="nu"):
        build_simulation({"nu": 0.0})


def test_block_sizes_must_sum():
    with pytest.raises(ConfigError, match="l: p \\+ k = 6") as info:
        build_simulation({"l": 8, "p": 4, "k": 2})
    assert info.value.key == "l"


def _multiblock(**kwargs):
    return ExperimentConfig(sim=SimulationConfig(l=8, p=6, k=2),
                            mode="multiblock", **kwargs)


@pytest.mark.parametrize("key, make", [
    ("l", lambda: SimulationConfig(l=9, p=6, k=2)),
    ("p", lambda: SimulationConfig(l=2, p=0, k=2)),
    ("k", lambda: SimulationConfig(l=6, p=6, k=0)),
    ("rho", lambda: SimulationConfig(rho=1.0)),
    ("nu", lambda: SimulationConfig(nu=0.0)),
    ("distribution", lambda: SimulationConfig(distribution="cauchy")),
    ("n", lambda: SimulationConfig(n=0)),
    ("estimator", lambda: PluginSpec(estimator="mle")),
    ("regularizer", lambda: PluginSpec(regularizer="ridge")),
    ("beta", lambda: PluginSpec(beta=1.5)),
    ("bandwidth", lambda: PluginSpec(bandwidth=-1)),
    ("distance", lambda: ExperimentConfig(distance="l2")),
    ("mode", lambda: ExperimentConfig(mode="online")),
    ("trials", lambda: ExperimentConfig(trials=0)),
    ("n_grid", lambda: ExperimentConfig(n_grid=())),
    ("n_grid", lambda: ExperimentConfig(n_grid=(12, 0))),
    ("sizes", lambda: _multiblock(sizes=(8,))),
    ("sizes", lambda: _multiblock(sizes=(8, 0))),
    ("sizes", lambda: _multiblock(sizes=(4, 2))),
    ("sizes", lambda: ExperimentConfig(sizes=(35, 5))),
    ("max_iters", lambda: MMConfig(max_iters=0)),
    ("tol", lambda: MMConfig(tol=-1.0)),
    ("height", lambda: SimulateJob(SimulationConfig(), height=0)),
    ("width", lambda: SimulateJob(SimulationConfig(), width=0)),
    ("window", lambda: SimulateJob(SimulationConfig(), window=0)),
    ("distance", lambda: check_distance("l2")),
])
def test_a_bad_setting_raises_a_config_error_naming_it(key, make):
    with pytest.raises(ConfigError) as info:
        make()
    assert info.value.key == key
    assert isinstance(info.value, ValueError)


def test_build_simulate_job_defaults():
    job, echo = load_simulate_job(SIM_TEXT)
    assert job.height == 16 and job.width == 12
    assert job.out == "demo.slk"
    assert job.truth_out == "demo.slk.truth.csv"
    assert job.noiseless is False
    assert echo["out"] == "demo.slk"


def test_load_simulate_job_rejects_sections():
    with pytest.raises(ConfigError, match="section"):
        load_simulate_job("l=8\np=6\nk=2\n[experiment]\ndistance=kl\n")


def test_regularizer_tokens():
    assert parse_regularizer_token("none") == {"regularizer": "none"}
    assert parse_regularizer_token("shrink") == {"regularizer": "shrink"}
    assert parse_regularizer_token("shrink:0.5") == {
        "regularizer": "shrink", "beta": 0.5}
    assert parse_regularizer_token("taper:3") == {
        "regularizer": "taper", "bandwidth": 3}


@pytest.mark.parametrize("token", ["none:1", "shrink:abc", "taper:wide",
                                   "ridge"])
def test_regularizer_token_validation(token):
    with pytest.raises(ConfigError, match="regularizer"):
        parse_regularizer_token(token)


def test_build_plugin_combines_estimator_and_regularizer():
    spec = build_plugin({"estimator": "po", "regularizer": "shrink:0.5"})
    assert spec.estimator == "po"
    assert spec.regularizer == "shrink"
    assert spec.beta == 0.5
    assert spec.label() == ("po", "shrink:0.5")


def test_build_plugin_rejects_unknown_estimator():
    with pytest.raises(ConfigError, match="estimator"):
        build_plugin({"estimator": "mle"})


def test_build_experiment_full_mapping():
    cfg = build_experiment({
        "l": "8", "p": "6", "k": "2", "rho": "0.9", "trials": "4",
        "n_grid": "12,24", "distance": "frob", "mode": "sequential",
        "estimator": "po", "regularizer": "taper:5", "master_seed": "3",
    })
    assert cfg.distance == "frob"
    assert cfg.mode == "sequential"
    assert cfg.n_grid == (12, 24)
    assert cfg.trials == 4
    assert cfg.master_seed == 3
    assert cfg.plugin.label() == ("po", "taper:5")


def test_build_experiment_rejects_bad_distance_and_mode():
    base = {"l": "8", "p": "6", "k": "2"}
    with pytest.raises(ConfigError, match="distance"):
        build_experiment({**base, "distance": "l2"})
    with pytest.raises(ConfigError, match="mode"):
        build_experiment({**base, "mode": "online"})


def test_build_experiment_rejects_sizes_outside_multiblock():
    with pytest.raises(ConfigError, match="sizes") as info:
        build_experiment({"l": "8", "p": "6", "k": "2", "sizes": "4,2,2"})
    assert info.value.key == "sizes"


def test_build_experiment_multiblock_sizes():
    cfg = build_experiment({"l": "8", "p": "6", "k": "2",
                            "mode": "multiblock", "sizes": "4,2,2"})
    assert cfg.mode == "multiblock"
    assert cfg.sizes == (4, 2, 2)


def test_load_experiments_without_sections_uses_defaults():
    configs, out, echo = load_experiments("l=8\np=6\nk=2\ntrials=3\n")
    assert len(configs) == 1
    assert out == "bench.csv"
    assert configs[0].trials == 3
    assert echo["experiment_0.l"] == "8"


def test_load_experiments_with_sections():
    configs, out, echo = load_experiments(BENCH_TEXT)
    assert len(configs) == 2
    assert out == "demo_bench.csv"
    assert configs[0].distance == "kl"
    assert configs[1].distance == "frob"
    assert configs[1].plugin.estimator == "po"
    # both sections share the scenario defaults
    assert configs[0].sim == configs[1].sim
    assert echo["experiment_1.estimator"] == "po"


def test_solver_defaults_applied_when_unset(monkeypatch):
    """A bench run fits with MMConfig(), whose budget the config does not
    set: 10000 iterations at tol 1e-14."""
    solvers = []

    def spy(sigma, cfg, distance, w_past=None):
        solvers.append(cfg)
        return fit(sigma, cfg, distance, w_past)

    monkeypatch.setattr(seqlink.bench, "fit", spy)
    configs, _, _ = load_experiments("l=8\np=6\nk=2\ntrials=2\nn_grid=12\n")
    mc_mse_experiment(configs[0])
    assert solvers and all(cfg == MMConfig() for cfg in solvers)
    assert (MMConfig().max_iters, MMConfig().tol) == (10000, 1e-14)
