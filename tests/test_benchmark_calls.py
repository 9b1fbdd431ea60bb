"""The benchmark (perfbench/workloads.py) drives the program through its
command line and config files. This suite checks that every command line a
workload runs parses and that every config file it writes loads, so that a
flag or key the benchmark passes cannot be dropped unnoticed."""
import importlib.util
import shlex
import sys
from pathlib import Path

import pytest

from seqlink.cli import build_parser, main
from seqlink.config import load_experiments, load_simulate_job

SOURCE = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  SOURCE)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class is made
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.WORKLOADS


WORKLOADS = load_workloads()

# the loader of the config file that each command reads
LOADERS = {"simulate": load_simulate_job, "bench": load_experiments}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_benchmark_call_parses_and_every_config_loads(name, tmp_path):
    workload = WORKLOADS[name]
    calls = []

    def cli(argv):
        calls.append(argv)
        code = main(argv)
        assert code == 0, f"{name}: seqlink {shlex.join(argv)} exits {code}"
        return code

    workload.setup(str(tmp_path), 0, cli)
    calls += [argv for _, argv in workload.commands(str(tmp_path))]
    parser = build_parser()
    for argv in calls:
        try:
            args = parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"{name}: seqlink {shlex.join(argv)} does not parse")
        if args.command in LOADERS:
            LOADERS[args.command](Path(args.config).read_text())
