"""The traced benchmark run (perfbench/run.py --trace 1) wraps names that the
program's modules import or define. Deleting one of them makes that run exit
2, so this suite checks that every wrapped name is still there."""
import importlib.util
from pathlib import Path

import seqlink.bench
import seqlink.plugins

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists_and_is_restored():
    spans = load_spans()
    with spans.installed(spans.Recorder()):
        assert seqlink.bench.estimate is not seqlink.plugins.estimate
    assert seqlink.bench.estimate is seqlink.plugins.estimate
