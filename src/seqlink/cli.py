"""Command-line front end: simulate stacks, solve them, run Monte Carlo
benchmarks, and time sequential vs offline solves.

Exit codes: 0 success; 2 usage or validation error, bad value or I/O error
(ConfigError, ValueError, OSError); 1 any other failure ("runtime failure").
"""
from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace

import numpy as np

from .bench import (TIMING_SOLVER, mc_mse_experiment, rows_to_csv,
                    timing_experiment)
from .blas import blas_pinnable
from .config import build_plugin, load_experiments, load_simulate_job
from .errors import ConfigError
from .plugins import window_bounds
from .raster import (
    ImageStack,
    noiseless_raster,
    process_stack_offline,
    process_stack_sequential,
    wrap_angle,
)
from .simulate import ground_truth, sample_stack
from .solvers import DISTANCES, MMConfig
from .stackio import (
    append_manifest,
    manifest_path_for,
    read_phase_raster,
    read_stack,
    read_truth_csv,
    write_manifest,
    write_phase_raster_binary,
    write_phase_raster_csv,
    write_stack,
    write_truth_csv,
)


def _at_least_one(key: str, value: int) -> int:
    if value < 1:
        raise ConfigError(key, "must be >= 1")
    return value


def _read_text(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def cmd_simulate(args) -> int:
    job, echo = load_simulate_job(_read_text(args.config))
    manifest = manifest_path_for(job.out)
    write_manifest(manifest, "simulate", {
        "master_seed": job.sim.seed,
        "output.stack": job.out,
        "output.truth": job.truth_out,
    }, echo)
    psi, w_true, sigma = ground_truth(job.sim)
    if job.noiseless:
        stack = noiseless_raster(sigma, job.window, job.height, job.width)
    else:
        pixels = job.height * job.width
        draws = sample_stack(sigma, replace(job.sim, n=pixels), job.sim.seed)
        stack = ImageStack(draws.T.reshape(job.sim.l, job.height, job.width))
    write_stack(job.out, stack)
    write_truth_csv(job.truth_out, np.angle(w_true))
    extra = {}
    if args.split:
        past_path, new_path = f"{job.out}.past.slk", f"{job.out}.new.slk"
        write_stack(past_path, ImageStack(stack.data[:job.sim.p]))
        write_stack(new_path, ImageStack(stack.data[job.sim.p:]))
        extra = {"output.past_stack": past_path, "output.new_stack": new_path}
    append_manifest(manifest, {**extra, "status": "ok"})
    print(f"wrote {job.sim.l} x {job.height} x {job.width} stack to {job.out}")
    return 0


def _truth_metrics(raster, truth_angles, mode, win):
    """Max wrapped per-date error vs truth, split by full-window interior."""
    count = raster.count
    if count > truth_angles.size:
        raise ConfigError("truth", "truth file has fewer dates than the raster")
    if mode == "sequential":
        expected = truth_angles[truth_angles.size - count:]
    else:
        expected = truth_angles[:count]
    expected = wrap_angle(expected - truth_angles[0])
    gaps = np.abs(wrap_angle(raster.data - expected[:, None, None]))
    ok = ~raster.failed
    r0, r1 = window_bounds(raster.height, win)
    c0, c1 = window_bounds(raster.width, win)
    full = np.outer(r1 - r0 == win, c1 - c0 == win)
    def max_over(mask):
        if not mask.any():
            return float("nan")
        return float(np.nanmax(gaps[:, mask]))
    return {
        "error.max_interior": repr(max_over(ok & full)),
        "error.max_overall": repr(max_over(ok)),
    }


def _iteration_stats(prefix: str, counts) -> dict:
    """Manifest entries iterations.p50 and iterations.max (after prefix)
    over fit iteration counts, "nan" if there are none. The median is taken
    in Python: a process's first numpy sort maps about 0.5 MB of sort
    kernels, which a bench run would otherwise add to its peak RSS."""
    counts = sorted(map(int, counts))
    if not counts:
        return {f"{prefix}iterations.p50": "nan",
                f"{prefix}iterations.max": "nan"}
    half = len(counts) // 2
    return {f"{prefix}iterations.p50": repr((counts[half] + counts[~half]) / 2),
            f"{prefix}iterations.max": counts[-1]}


def cmd_solve(args) -> int:
    threads = _at_least_one("threads", args.threads)
    _at_least_one("window", args.window)
    start = time.perf_counter()
    stack = read_stack(args.stack)
    read_s = time.perf_counter() - start
    spec = build_plugin({"estimator": args.estimator,
                         "regularizer": args.regularizer})
    cfg = MMConfig()
    out = args.out or f"{args.stack}.phases.csv"
    manifest = manifest_path_for(out)
    entries = {
        "input.stack": args.stack,
        "mode": args.mode,
        "distance": args.distance,
        "estimator": spec.estimator,
        "regularizer": spec.label()[1],
        "window": args.window,
        "threads": threads,
        "solver.max_iters": cfg.max_iters,
        "solver.tol": repr(cfg.tol),
        "blas.pinned": "yes" if blas_pinnable() else "no",
        "output.raster": out,
    }
    if args.mode == "sequential":
        if not args.past_phases or not args.past_stack:
            raise ConfigError(
                "past-phases",
                "sequential mode needs --past-phases and --past-stack")
        entries["input.past_phases"] = args.past_phases
        entries["input.past_stack"] = args.past_stack
    elif args.past_phases or args.past_stack:
        raise ConfigError("past-phases",
                          "offline mode takes no --past-phases or --past-stack")
    write_manifest(manifest, "solve", entries)
    if args.mode == "sequential":
        start = time.perf_counter()
        past_raster = read_phase_raster(args.past_phases)
        past_stack = read_stack(args.past_stack)
        read_s += time.perf_counter() - start
        start = time.perf_counter()
        raster = process_stack_sequential(
            stack, past_raster, past_stack, spec, args.distance,
            args.window, cfg, threads)
    else:
        start = time.perf_counter()
        raster = process_stack_offline(
            stack, spec, args.distance, args.window, cfg, threads)
    fit_s = time.perf_counter() - start
    start = time.perf_counter()
    if out.endswith(".slk"):
        write_phase_raster_binary(out, raster)
    else:
        write_phase_raster_csv(out, raster)
    write_s = time.perf_counter() - start
    failed = int(raster.failed.sum())
    nonconverged = int(raster.nonconverged.sum())
    undersampled = int(raster.undersampled.sum())
    total = raster.height * raster.width
    if failed or nonconverged or undersampled:
        print(f"{failed} of {total} pixels failed; "
              f"{nonconverged} did not converge; "
              f"{undersampled} undersampled", file=sys.stderr)
    metrics = {"raster.block_rows": raster.block_rows,
               "pixels.failed": failed,
               "pixels.nonconverged": nonconverged,
               "pixels.undersampled": undersampled}
    metrics.update(_iteration_stats("", raster.iterations[~raster.failed]))
    if args.truth:
        truth_angles = read_truth_csv(args.truth)
        metrics.update(_truth_metrics(raster, truth_angles, args.mode,
                                      args.window))
    metrics.update({"timing.read_s": repr(read_s), "timing.fit_s": repr(fit_s),
                    "timing.write_s": repr(write_s), "status": "ok"})
    append_manifest(manifest, metrics)
    print(f"wrote {raster.count}-phase raster to {out}")
    return 0


def cmd_bench(args) -> int:
    threads = _at_least_one("threads", args.threads)
    configs, out, echo = load_experiments(_read_text(args.config))
    if args.out:
        out = args.out
    manifest = manifest_path_for(out)
    write_manifest(manifest, "bench", {
        "experiments": len(configs),
        "solver.max_iters": MMConfig().max_iters,
        "solver.tol": repr(MMConfig().tol),
        "blas.pinned": "yes" if blas_pinnable() else "no",
        "output.csv": out,
    }, echo)
    rows, iterations = [], {}
    start = time.perf_counter()
    for index, cfg in enumerate(configs):
        experiment = mc_mse_experiment(cfg, threads)
        rows.extend(experiment)
        iterations.update(_iteration_stats(
            f"experiment_{index}.",
            [count for row in experiment for count in row.iterations]))
    fit_s = time.perf_counter() - start
    start = time.perf_counter()
    with open(out, "w") as fh:
        fh.write(rows_to_csv(rows))
    write_s = time.perf_counter() - start
    nonconverged = sum(row.nonconverged for row in rows)
    if nonconverged:
        print(f"{nonconverged} kept trials had a fit that did not converge",
              file=sys.stderr)
    append_manifest(manifest, {"rows": len(rows), "fits.nonconverged": nonconverged,
                               **iterations,
                               "timing.fit_s": repr(fit_s),
                               "timing.write_s": repr(write_s),
                               "status": "ok"})
    print(f"wrote {len(rows)} rows to {out}")
    return 0


TIMING_HEADER = "p,k,distance,seq_ms,offline_ms,ratio,seq_fit_ms,plugin_ms"


def int_list(text: str) -> list[int]:
    return [int(token) for token in text.split(",")]


def cmd_timing(args) -> int:
    if args.out:
        manifest = manifest_path_for(args.out)
        write_manifest(manifest, "timing", {
            "p": ",".join(map(str, args.p)), "k": args.k,
            "distance": args.distance, "reps": args.reps,
            "solver.max_iters": TIMING_SOLVER.max_iters,
            "solver.tol": repr(TIMING_SOLVER.tol),
            "blas.pinned": "yes" if blas_pinnable() else "no",
            "output.csv": args.out,
        })
    # print each row as it is timed, so a failure at one p keeps earlier rows
    lines = [TIMING_HEADER]
    print(TIMING_HEADER, flush=True)
    for p in args.p:
        result = timing_experiment(p, args.k, args.distance, args.reps)
        ratio = result["seq_ms"] / result["offline_ms"]
        lines.append(f"{p},{args.k},{args.distance},{result['seq_ms']!r},"
                     f"{result['offline_ms']!r},{ratio!r},"
                     f"{result['seq_fit_ms']!r},{result['plugin_ms']!r}")
        print(lines[-1], flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        append_manifest(manifest, {"status": "ok"})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqlink",
        description="sequential and offline phase linking by covariance "
                    "fitting")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="write a synthetic stack + truth")
    p_sim.add_argument("config", help="key=value config file")
    p_sim.add_argument("--split", action="store_true",
                       help="also write past/new sub-stacks at the p|k split")
    p_sim.set_defaults(func=cmd_simulate)

    p_solve = sub.add_parser("solve", help="estimate phases for a stack file")
    p_solve.add_argument("stack", help="input stack (.slk)")
    p_solve.add_argument("--mode", choices=("offline", "sequential"),
                         default="offline")
    p_solve.add_argument("--distance", choices=DISTANCES, default="kl")
    p_solve.add_argument("--estimator", choices=("scm", "po"), default="scm")
    p_solve.add_argument("--regularizer", default="none",
                         help="none | shrink[:BETA] | taper[:B]")
    p_solve.add_argument("--window", type=int, default=8)
    p_solve.add_argument("--past-phases", help="phase raster of past dates")
    p_solve.add_argument("--past-stack", help="stack file of past dates")
    p_solve.add_argument("--truth", help="truth CSV for error reporting")
    p_solve.add_argument("--out", help="output raster path: unit phasors in "
                                       "the stack container if it ends in "
                                       ".slk, else CSV")
    p_solve.add_argument("--threads", type=int, default=1)
    p_solve.set_defaults(func=cmd_solve)

    p_bench = sub.add_parser("bench", help="run Monte Carlo MSE experiments")
    p_bench.add_argument("config", help="key=value config file")
    p_bench.add_argument("--out", help="output CSV path (overrides config)")
    p_bench.add_argument("--threads", type=int, default=1)
    p_bench.set_defaults(func=cmd_bench)

    p_time = sub.add_parser("timing", help="time one sequential vs offline "
                                           "solve, and the plug-in the "
                                           "update reads, per past length")
    p_time.add_argument("--p", type=int_list, required=True,
                        help="past length, or a comma list (one row each)")
    p_time.add_argument("--k", type=int, required=True)
    p_time.add_argument("--distance", choices=DISTANCES, default="kl")
    p_time.add_argument("--reps", type=int, default=7)
    p_time.add_argument("--out", help="also write the CSV here")
    p_time.set_defaults(func=cmd_timing)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
