"""seqlink benchmark: run one workload for a fixed time and report metrics.

    python3 perfbench/run.py --workload archive-kl --seed 0 --seconds 20 --trace 0

Run from the repository root. The program under test is imported from
``src/``; nothing is installed. Each workload's set-up (simulate a scene,
write its input files) is repeated five times and timed; then the workload's
commands, all through ``seqlink.cli.main``, are repeated until ``--seconds``
would be exceeded. Outputs are checked once the runs end.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json. ``--trace 1``
alternates plain and traced repetitions and reports the per-layer metrics,
plus ``trace.overhead_frac``, the traced against the plain wall time.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. A result file with the machine
facts, every repetition's times and every check goes to
``.perfbench/BENCH_<workload>_seed<seed>_trace<0|1>.json``; a traced run also
writes its spans there. The exit code is 0 when every check passed, 1 when a
check or a command failed, and 2 when the program cannot be found or a
function the trace wraps is gone from it.
"""
from __future__ import annotations

import os

# BLAS is pinned to one thread before numpy loads; the workloads that use
# threads do so through seqlink's own pool.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import spans
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 5


def git_commit(root: str) -> str | None:
    """HEAD commit read from .git files (no git process, no parent dirs)."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def machine_facts() -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {key: deps.get("blas", {}).get(key)
                for key in ("name", "version", "openblas configuration")}
    except (TypeError, AttributeError):  # numpy < 1.26 has no dict mode
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "platform": platform.platform(),
        "git_commit": git_commit(ROOT),
    }


def import_seconds() -> float:
    """Median wall time of a fresh interpreter importing the CLI."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import seqlink.cli"], env=env,
                       check=True, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class CommandFailed(RuntimeError):
    pass


def call_cli(main, argv, recorder=None) -> None:
    """One user command; its chatter is captured, not printed."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        if recorder is None:
            code = main(argv)
        else:
            with recorder.span("cli.main"):
                code = main(argv)
    if code != 0:
        raise CommandFailed(f"{' '.join(argv[:1])} exited {code}: "
                            f"{sink.getvalue().strip()[-500:]}")


def run_once(main, workload, work, recorder=None) -> dict:
    times = {}
    for stage, argv in workload.commands(work):
        start = time.perf_counter()
        call_cli(main, argv, recorder)
        times[stage] = time.perf_counter() - start
    return times


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def median(values):
    return float(statistics.median(values))


def measure(main, workload, work, seconds, trace):
    """Repeat the workload until the next repetition would overrun.

    Returns (plain reps, traced reps, traced spans, output digests); in trace
    mode repetitions alternate plain, traced, plain, ...
    """
    plain, traced, all_spans, digests = [], [], [], set()
    recorder = spans.Recorder()
    start = time.perf_counter()
    while True:
        tracing = trace and len(traced) < len(plain)
        if tracing:
            with spans.installed(recorder):
                times = run_once(main, workload, work, recorder)
            rep_spans = recorder.take()
            traced.append((times, spans.layer_metrics(rep_spans,
                                                      sum(times.values()))))
            all_spans.append(rep_spans)
        else:
            times = run_once(main, workload, work)
            plain.append(times)
        digests.add(digest(workload.outputs(work)))
        elapsed = time.perf_counter() - start
        longest = max(sum(t.values()) for t in plain + [t for t, _ in traced])
        if trace and not traced:
            continue
        if elapsed + longest > seconds:
            return plain, traced, all_spans, digests


def end_to_end(workload, plain, setup_s, outcome) -> tuple[dict, dict]:
    """(bounded metrics of BENCHMARK.json, further figures for the file)."""
    walls = [sum(t.values()) for t in plain]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_s": (median(walls), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "phase_err_ratio": (outcome.phase_err_ratio, "ratio"),
    }
    info = {"phase_err_rad2": (outcome.phase_err_rad2, "rad2"),
            "failed_frac": (outcome.failed / outcome.attempted, "fraction")}
    stage_units = {"offline": "offline_px_per_s", "update": "update_px_per_s"}
    for stage, name in stage_units.items():
        if stage in plain[0]:
            info[name] = (workload.pixels() / median([t[stage] for t in plain]),
                          "1/s")
    if "bench" in plain[0]:
        info["trials_per_s"] = (workload.arm_trials()
                                / median([t["bench"] for t in plain]), "1/s")
    return metrics, info


def per_layer(plain, traced) -> dict:
    names = traced[0][1].keys()
    metrics = {name: (median([m[name] for _, m in traced]), "")
               for name in names}
    traced_wall = median([sum(t.values()) for t, _ in traced])
    plain_wall = median([sum(t.values()) for t in plain])
    metrics["trace.overhead_frac"] = (traced_wall / plain_wall - 1.0, "")
    metrics["wall_s"] = (traced_wall, "s")
    return metrics


def load_units(trace: int) -> dict:
    """Name -> unit of the metrics BENCHMARK.json lists for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main_bench(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "seqlink", "__init__.py")):
        print(f"error: no seqlink sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from seqlink.cli import main

    if args.trace:
        try:
            with spans.installed(spans.Recorder()):
                pass
        except spans.MissingTarget as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    workload = WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    work = os.path.join(OUT_DIR, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup(work, args.seed,
                           lambda argv: call_cli(main, argv))
            setup_times.append(time.perf_counter() - start)
        setup_s = import_seconds() + median(setup_times)

        checks = []
        try:
            plain, traced, rep_spans, digests = measure(
                main, workload, work, args.seconds, bool(args.trace))
            outcome = workload.evaluate(work, args.seed)
            checks = outcome.checks + [(
                "outputs_identical_across_reps", len(digests) == 1,
                f"{len(digests)} distinct")]
        except CommandFailed as exc:
            checks = [("commands_succeed", False, str(exc))]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = all(ok for _, ok, _ in checks)
    for name, ok, detail in checks:
        if not ok:
            print(f"CHECK FAILED {name}: {detail}", file=sys.stderr)
    if not correct and checks[0][0] == "commands_succeed":
        return 1

    reps = len(plain) + len(traced)
    attempted = outcome.attempted * reps
    failed = attempted if not correct else outcome.failed * reps
    if args.trace:
        metrics = per_layer(plain, traced)
        info = {}
    else:
        metrics, info = end_to_end(workload, plain, setup_s, outcome)
    units = load_units(args.trace)
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"error: no value for {missing}", file=sys.stderr)
        return 1
    # a value that could not be formed (no pixel solved) is null, not NaN;
    # its ceiling check has already failed the run
    shown = {name: {"value": metrics[name][0]
                    if math.isfinite(metrics[name][0]) else None, "unit": unit}
             for name, unit in units.items()}
    info.update({name: value for name, value in metrics.items()
                 if name not in units})
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "machine": machine_facts(),
        "setup_times_s": setup_times,
        "plain_reps": plain,
        "traced_reps": [t for t, _ in traced],
        "metrics": shown,
        "info": {name: {"value": v, "unit": u} for name, (v, u) in info.items()},
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
        "correct": correct, "attempted": attempted, "failed": failed,
    }
    base = os.path.join(OUT_DIR, f"BENCH_{args.workload}_seed{args.seed}"
                                 f"_trace{args.trace}.json")
    with open(base, "w") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        with open(base.replace("BENCH_", "SPANS_"), "w") as fh:
            json.dump(rep_spans, fh)

    print(f"{args.workload} seed={args.seed} reps={reps} "
          f"correct={correct} result={os.path.relpath(base, ROOT)}")
    for name, entry in list(shown.items()) + list(record["info"].items()):
        print(f"  {name:24s} {entry['value']} {entry['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": shown}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main_bench())
