"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/tests -q
"""
import json
import os
import re
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import spans  # noqa: E402
import workloads  # noqa: E402
from seqlink import bench, cli, plugins, raster  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def rec(span_id, parent, start, end, thread=1, name="x"):
    return [span_id, parent, name, thread, start, end, {}]


def test_self_time_of_nested_spans():
    got = spans.self_times([rec(0, None, 0.0, 10.0), rec(1, 0, 1.0, 4.0),
                            rec(2, 1, 2.0, 3.0), rec(3, 0, 6.0, 7.0)])
    assert got == pytest.approx({0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0})


def test_self_time_subtracts_union_of_two_thread_children():
    # two worker threads' children overlap in time: [1, 6] and [3, 8] cover 7
    got = spans.self_times([rec(0, None, 0.0, 10.0, thread=1),
                            rec(1, 0, 1.0, 6.0, thread=2),
                            rec(2, 0, 3.0, 8.0, thread=3),
                            rec(3, 0, 9.0, 12.0, thread=2)])
    # the last child runs past its parent's end; only [9, 10] is covered
    assert got[0] == pytest.approx(10.0 - 7.0 - 1.0)
    assert got[1] == pytest.approx(5.0) and got[2] == pytest.approx(5.0)


def test_worker_thread_spans_parent_to_the_spawning_span():
    recorder = spans.Recorder()
    barrier = threading.Barrier(2, timeout=10)

    def work(_):
        with recorder.span("child"):
            barrier.wait()  # both children are open at once
        return threading.get_ident()

    with recorder.span("parent"):
        with ThreadPoolExecutor(max_workers=2) as pool:
            threads = set(pool.map(work, range(2)))
    records = recorder.take()
    parent = next(r for r in records if r[spans.NAME] == "parent")
    children = [r for r in records if r[spans.NAME] == "child"]
    assert len(threads) == 2 and len(children) == 2
    assert {c[spans.THREAD] for c in children} == threads
    assert all(c[spans.PARENT] == parent[spans.ID] for c in children)
    assert all(r[spans.END] is not None for r in records)


def test_row_self_time_counts_a_worker_while_the_other_is_in_a_child():
    # worker 0 sits in a child span while worker 1 does untraced work; a
    # union of both workers' children would hide worker 1's work
    recorder = spans.Recorder()
    in_child, work_done = threading.Event(), threading.Event()
    pause = 0.2

    def worker(row):
        if row == 0:
            with recorder.span("plugins.estimate"):
                in_child.set()
                assert work_done.wait(10)
        else:
            assert in_child.wait(10)
            time.sleep(pause)  # per-pixel Python outside any child span
            work_done.set()

    with spans.installed(recorder):
        with recorder.span("raster.process"):
            raster._run_rows(2, worker, 2)
    records = recorder.take()
    rows = [r for r in records if r[spans.NAME] == "raster.row"]
    assert len({r[spans.THREAD] for r in rows}) == 2
    process = next(r for r in records if r[spans.NAME] == "raster.process")
    assert all(r[spans.PARENT] == process[spans.ID] for r in rows)
    metrics = spans.layer_metrics(records, 1.0)
    assert metrics["raster.self_s"] >= pause
    assert metrics["plugins.estimate_s"] >= pause


def test_a_missing_target_fails_loudly_and_restores_the_rest(monkeypatch):
    estimate = raster.estimate
    monkeypatch.delattr(raster, "schur_factors")
    with pytest.raises(spans.MissingTarget, match="schur_factors"):
        with spans.installed(spans.Recorder()):
            pass
    assert raster.estimate is estimate


def test_installed_restores_every_wrapped_function_on_error():
    before = {(m, a): getattr(sys.modules[m], a) for m, a, *_ in spans.TARGETS}
    f_inv = sys.modules["seqlink.linalg"].SchurFactors.f_inv
    with pytest.raises(RuntimeError):
        with spans.installed(spans.Recorder()):
            assert cli.read_stack is not before[("seqlink.cli", "read_stack")]
            raise RuntimeError("boom")
    for (module, attr), fn in before.items():
        assert getattr(sys.modules[module], attr) is fn
    assert sys.modules["seqlink.linalg"].SchurFactors.f_inv is f_inv
    assert raster._run_rows.__module__ == "seqlink.raster"


@pytest.mark.parametrize("threads", [1, 2])
def test_traced_raster_layers_add_up(threads):
    rng = np.random.default_rng(0)
    data = rng.standard_normal((6, 6, 7)) + 1j * rng.standard_normal((6, 6, 7))
    stack = raster.ImageStack(data)
    recorder = spans.Recorder()
    with spans.installed(recorder):
        with recorder.span("cli.main"):
            cli.process_stack_offline(stack, plugins.PluginSpec(), "kl", 5,
                                      threads=threads)
    records = recorder.take()
    root = next(r for r in records if r[spans.NAME] == "cli.main")
    wall = root[spans.END] - root[spans.START]
    metrics = spans.layer_metrics(records, wall)
    assert metrics["raster.pixels"] == 42
    assert metrics["plugins.calls"] == 42 and metrics["solvers.solves"] == 42
    assert metrics["linalg.eig_calls"] == 42
    assert metrics["solvers.iters_sum"] >= 42
    assert metrics["raster.self_s"] >= 0.0
    by_name = {r[spans.ID]: r[spans.NAME] for r in records}
    parents = {by_name[r[spans.PARENT]] for r in records
               if r[spans.NAME] == "plugins.estimate"}
    assert parents == {"raster.row"}
    if threads == 1:
        assert metrics["trace.self_sum_frac"] == pytest.approx(1.0, abs=1e-9)
    else:
        rows = [r for r in records if r[spans.NAME] == "raster.row"]
        assert len(rows) == 6
        assert metrics["trace.self_sum_frac"] >= 1.0 - 1e-9


def test_diff_sq_error_matches_bench_phase_diff_error():
    rng = np.random.default_rng(1)
    for _ in range(50):
        hat, true = rng.uniform(-4, 4, 6), rng.uniform(-4, 4, 6)
        want = bench.phase_diff_error(np.exp(1j * hat), np.exp(1j * true), 5, 0)
        got = workloads.diff_sq_error(hat[5], hat[0], true[5], true[0])
        assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("spec, beta", [
    (plugins.PluginSpec("scm"), None),
    (plugins.PluginSpec("po"), None),
    (plugins.PluginSpec("scm", "shrink", beta=0.9), 0.9),
])
def test_reference_plugin_and_window_match_the_program(spec, beta):
    rng = np.random.default_rng(2)
    data = rng.standard_normal((5, 9, 8)) + 1j * rng.standard_normal((5, 9, 8))
    stack = raster.ImageStack(data)
    for row, col in [(0, 0), (4, 4), (8, 7), (2, 6)]:
        ours = workloads.window_samples(data, row, col, 5)
        theirs = raster.sliding_window_extract(stack, row, col, 5)
        assert np.array_equal(ours, theirs)
        np.testing.assert_allclose(workloads.plugin(ours, spec.estimator, beta),
                                   plugins.estimate(theirs, spec), atol=1e-12)


def test_names_follow_the_benchmark_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(BENCH_DIR, "layer_map.json")) as fh:
        layer_map = json.load(fh)["per_layer"]
    workload_names = [w["name"] for w in spec["workloads"]]
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    names = workload_names + end_to_end + per_layer
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    assert set(workload_names) <= set(workloads.WORKLOADS)
    assert "setup_s" in end_to_end
    traced = spans.layer_metrics([], 1.0)
    assert set(per_layer) == set(traced) | {"trace.overhead_frac"}
    assert set(layer_map) == set(per_layer)
    figures = set(end_to_end) | {"offline_px_per_s", "update_px_per_s",
                                 "trials_per_s"}
    for entry in layer_map.values():
        assert set(entry["moves"]) <= figures
        assert set(entry["workloads"]) <= set(workloads.WORKLOADS)
