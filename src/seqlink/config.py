"""Flat key=value configuration files.

Grammar: one `key=value` per line; `#` starts a comment (whole-line or
trailing); blank lines ignored. A line of `[experiment]` opens a new
experiment section; keys above the first section are shared defaults that
every section inherits and may override. Files with no sections describe a
single job from the top-level keys alone.

This module parses, types and routes keys: it refuses an unknown key or a
value of the wrong type, and splits regularizer tokens. Each value's range
or choice is checked once, by the dataclass that holds it (or
solvers.check_distance), which raises ConfigError naming the setting.
"""
from __future__ import annotations

from dataclasses import dataclass

from .bench import ExperimentConfig
from .errors import ConfigError
from .plugins import PluginSpec
from .simulate import SimulationConfig

_INT_KEYS = frozenset({
    "l", "p", "k", "seed", "height", "width", "window", "trials",
    "master_seed",
})
_FLOAT_KEYS = frozenset({"rho", "nu"})
_BOOL_KEYS = frozenset({"noiseless", "inject_truth"})
_INT_LIST_KEYS = frozenset({"n_grid", "sizes"})

# n is no key: simulate draws one sample per pixel and the bench each size
# of n_grid; seed is a simulate-job key, since bench trials draw from
# master_seed alone
_SIM_KEYS = frozenset({"l", "p", "k", "rho", "nu", "distribution"})
SIMULATE_KEYS = _SIM_KEYS | frozenset({
    "seed", "height", "width", "noiseless", "window", "out", "truth_out"})
EXPERIMENT_KEYS = _SIM_KEYS | frozenset({
    "estimator", "regularizer", "distance", "mode", "sizes", "n_grid",
    "trials", "master_seed", "inject_truth", "out",
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


def _coerce(key: str, raw: str, kind=None):
    """raw as key's type, or as kind if given; ConfigError(key) if it is not."""
    try:
        if kind is not None:
            return kind(raw)
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
    return SimulationConfig(**{key: values[key] for key in _SIM_KEYS | {"seed"}
                               if key in values})


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
            raise ConfigError("height" if self.height < 1 else "width",
                              "raster dims must be >= 1")
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
    PluginSpec(regularizer=name)  # refuses an unknown name
    if not arg:
        return {"regularizer": name}
    if name == "none":
        raise ConfigError("regularizer", "none takes no parameter")
    field, kind = ("beta", float) if name == "shrink" else ("bandwidth", int)
    return {"regularizer": name, field: _coerce("regularizer", arg, kind)}


def build_plugin(values: dict) -> PluginSpec:
    kwargs = {"estimator": values["estimator"]} if "estimator" in values else {}
    if "regularizer" in values:
        kwargs.update(parse_regularizer_token(values["regularizer"]))
    return PluginSpec(**kwargs)


def build_experiment(mapping: dict[str, str]) -> ExperimentConfig:
    values = _typed(mapping, EXPERIMENT_KEYS)
    kwargs = {key: values[key] for key in
              ("distance", "mode", "sizes", "n_grid", "trials", "master_seed",
               "inject_truth") if key in values}
    return ExperimentConfig(sim=build_simulation(values),
                            plugin=build_plugin(values), **kwargs)


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
