"""Run every workload over several seeds and print each metric's median and
spread.

    python3 perfbench/summary.py --seeds 10            # end-to-end metrics
    python3 perfbench/summary.py --seeds 3 --trace 1   # per-layer metrics

Each (workload, seed) runs ``perfbench/run.py`` in its own process, one at a
time, for the ``run_seconds`` of BENCHMARK.json. The spread is the distance
between the first and third quartiles (``statistics.quantiles(n=4)``) as a
share of the median; for bounded metrics it is printed against the bound.
The table and every run's result line go to ``.perfbench/SUMMARY_*.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values) -> float:
    """Interquartile range over the median (0 when the median is 0)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": proc.returncode, "stderr": proc.stderr[-2000:]}
    return json.loads(lines[-1])


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    metrics = spec["per_layer" if args.trace else "end_to_end"]
    seeds = range(args.seeds)
    runs, table, ok = {}, [], True
    for workload in args.workloads.split(","):
        results = []
        for seed in seeds:
            result = run_one(workload, seed, args.seconds, args.trace)
            results.append(result)
            if not result.get("correct"):
                ok = False
                print(f"{workload} seed {seed}: FAILED {result}", file=sys.stderr)
        runs[workload] = results
        good = [r for r in results if r.get("correct")]
        for metric in metrics:
            values = [r["metrics"][metric["name"]]["value"] for r in good]
            if not values:
                continue
            row = {"workload": workload, "metric": metric["name"],
                   "unit": metric["unit"], "median": statistics.median(values),
                   "spread": spread(values), "bound": metric.get("bound"),
                   "runs": len(values)}
            table.append(row)
            bound = row["bound"]
            verdict = "" if bound is None else (
                f"bound {bound:<5} {'ok' if row['spread'] <= bound else 'WIDE'}")
            print(f"{workload:15s} {row['metric']:22s} {row['median']:12.6g} "
                  f"{row['unit']:6s} spread {row['spread']:7.4f} {verdict}",
                  flush=True)
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with open(os.path.join(ROOT, ".perfbench", f"SUMMARY_{stamp}.json"),
              "w") as fh:
        json.dump({"seeds": list(seeds), "seconds": args.seconds,
                   "trace": args.trace, "table": table, "runs": runs}, fh,
                  indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
