"""Flat key=value configuration files.

Grammar: one `key=value` per line; `#` starts a comment (whole-line or
trailing); blank lines ignored. A line of `[experiment]` opens a new
experiment section; keys above the first section are shared defaults that
every section inherits and may override. Files with no sections describe a
single job from the top-level keys alone.
"""
from __future__ import annotations

from dataclasses import dataclass

from .bench import BENCH_SOLVER, MODES, ExperimentConfig
from .errors import ConfigError
from .plugins import ESTIMATORS, PluginSpec
from .simulate import DISTRIBUTIONS, SimulationConfig
from .solvers import DISTANCES, MMConfig

_INT_KEYS = frozenset({
    "l", "p", "k", "n", "seed", "height", "width", "window", "trials",
    "master_seed", "solver_max_iters",
})
_FLOAT_KEYS = frozenset({"rho", "nu", "total_phase", "solver_tol"})
_BOOL_KEYS = frozenset({"noiseless", "inject_truth"})
_STR_KEYS = frozenset({
    "distribution", "estimator", "regularizer", "distance", "mode", "out",
    "truth_out",
})
_INT_LIST_KEYS = frozenset({"n_grid", "sizes"})

_SIM_KEYS = frozenset({"l", "p", "k", "rho", "nu", "distribution", "n",
                       "seed", "total_phase"})
SIMULATE_KEYS = _SIM_KEYS | frozenset({
    "height", "width", "noiseless", "window", "out", "truth_out"})
EXPERIMENT_KEYS = _SIM_KEYS | frozenset({
    "estimator", "regularizer", "distance", "mode", "sizes", "n_grid",
    "trials", "master_seed", "inject_truth", "solver_max_iters",
    "solver_tol", "out",
})


def parse_config(text: str):
    """(defaults, sections): key=value maps for the shared header and each
    [experiment] section (defaults already folded in)."""
    defaults: dict[str, str] = {}
    sections: list[dict[str, str]] = []
    current = defaults
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name != "experiment":
                raise ConfigError(name, f"unknown section on line {lineno}")
            current = dict(defaults)
            sections.append(current)
            continue
        key, eq, value = line.partition("=")
        if not eq or not key.strip():
            raise ConfigError(line, f"expected key=value on line {lineno}")
        current[key.strip()] = value.strip()
    return defaults, sections


def _coerce(key: str, raw: str):
    try:
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS:
            return float(raw)
        if key in _BOOL_KEYS:
            low = raw.lower()
            if low in ("true", "1", "yes"):
                return True
            if low in ("false", "0", "no"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if key in _INT_LIST_KEYS:
            return tuple(int(part.strip()) for part in raw.split(",") if part.strip())
        return raw
    except ValueError as exc:
        raise ConfigError(key, str(exc)) from None


def _typed(mapping: dict[str, str], allowed: frozenset) -> dict:
    out = {}
    for key, raw in mapping.items():
        if key not in allowed:
            raise ConfigError(key, "unknown key")
        out[key] = _coerce(key, raw)
    return out


def build_simulation(values: dict) -> SimulationConfig:
    if "rho" in values and not 0.0 < values["rho"] < 1.0:
        raise ConfigError("rho", "rho out of range")
    if "nu" in values and values["nu"] <= 0.0:
        raise ConfigError("nu", "nu out of range")
    if "distribution" in values and values["distribution"] not in DISTRIBUTIONS:
        raise ConfigError("distribution",
                          f"must be one of {', '.join(DISTRIBUTIONS)}")
    sim_values = {key: values[key] for key in _SIM_KEYS if key in values}
    try:
        return SimulationConfig(**sim_values)
    except ValueError as exc:
        raise ConfigError("simulation", str(exc)) from None


@dataclass(frozen=True)
class SimulateJob:
    """A cmd-simulate run: scenario plus raster geometry and output paths."""

    sim: SimulationConfig
    height: int = 32
    width: int = 32
    noiseless: bool = False
    window: int = 8
    out: str = "stack.slk"
    truth_out: str = ""

    def __post_init__(self):
        if self.height < 1 or self.width < 1:
            raise ConfigError("height", "raster dims must be >= 1")
        if self.window < 1:
            raise ConfigError("window", "window must be >= 1")
        if not self.truth_out:
            object.__setattr__(self, "truth_out", f"{self.out}.truth.csv")


def build_simulate_job(mapping: dict[str, str]) -> SimulateJob:
    values = _typed(mapping, SIMULATE_KEYS)
    sim = build_simulation(values)
    extras = {key: values[key] for key in
              ("height", "width", "noiseless", "window", "out", "truth_out")
              if key in values}
    return SimulateJob(sim=sim, **extras)


def parse_regularizer_token(token: str) -> dict:
    """Split a regularizer token (none | shrink[:BETA] | taper[:B]) into
    PluginSpec keyword arguments."""
    name, _, arg = token.partition(":")
    if name == "none":
        if arg:
            raise ConfigError("regularizer", "none takes no parameter")
        return {"regularizer": "none"}
    if name == "shrink":
        out = {"regularizer": "shrink"}
        if arg:
            try:
                out["beta"] = float(arg)
            except ValueError:
                raise ConfigError("regularizer",
                                  f"bad shrink weight {arg!r}") from None
        return out
    if name == "taper":
        out = {"regularizer": "taper"}
        if arg:
            try:
                out["bandwidth"] = int(arg)
            except ValueError:
                raise ConfigError("regularizer",
                                  f"bad taper bandwidth {arg!r}") from None
        return out
    raise ConfigError("regularizer", f"unknown regularizer {name!r}")


def build_plugin(values: dict) -> PluginSpec:
    kwargs = {}
    if "estimator" in values:
        if values["estimator"] not in ESTIMATORS:
            raise ConfigError("estimator",
                              f"must be one of {', '.join(ESTIMATORS)}")
        kwargs["estimator"] = values["estimator"]
    if "regularizer" in values:
        kwargs.update(parse_regularizer_token(values["regularizer"]))
    try:
        return PluginSpec(**kwargs)
    except ValueError as exc:
        raise ConfigError("regularizer", str(exc)) from None


def build_experiment(mapping: dict[str, str]) -> ExperimentConfig:
    values = _typed(mapping, EXPERIMENT_KEYS)
    sim = build_simulation(values)
    plugin = build_plugin(values)
    solver = MMConfig(
        max_iters=values.get("solver_max_iters", BENCH_SOLVER.max_iters),
        tol=values.get("solver_tol", BENCH_SOLVER.tol),
    )
    if "distance" in values and values["distance"] not in DISTANCES:
        raise ConfigError("distance", f"must be one of {', '.join(DISTANCES)}")
    if "mode" in values and values["mode"] not in MODES:
        raise ConfigError("mode", f"must be one of {', '.join(MODES)}")
    kwargs = {key: values[key] for key in
              ("distance", "mode", "sizes", "n_grid", "trials", "master_seed",
               "inject_truth") if key in values}
    try:
        return ExperimentConfig(sim=sim, plugin=plugin, solver=solver, **kwargs)
    except ValueError as exc:
        raise ConfigError("experiment", str(exc)) from None


def load_experiments(text: str):
    """All experiments in a bench config plus the output path.

    Returns (configs, out, echo) where echo maps manifest keys to the raw
    strings of each parsed section.
    """
    defaults, sections = parse_config(text)
    jobs = sections if sections else [defaults]
    configs = [build_experiment(job) for job in jobs]
    out = defaults.get("out", "bench.csv")
    echo = {}
    for index, job in enumerate(jobs):
        for key, value in sorted(job.items()):
            echo[f"experiment_{index}.{key}"] = value
    return configs, out, echo


def load_simulate_job(text: str):
    """The simulate job of a config file (sections not allowed) plus echo."""
    defaults, sections = parse_config(text)
    if sections:
        raise ConfigError("experiment",
                          "simulate configs do not take [experiment] sections")
    return build_simulate_job(defaults), dict(sorted(defaults.items()))
