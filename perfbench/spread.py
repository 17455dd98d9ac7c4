"""Run one workload N times and print each metric's spread.

    python3 perfbench/spread.py --workload W [--runs 10] [--seconds S]
                                [--first-seed 1] [--trace 0]

Each run gets its own seed (``first-seed``, ``first-seed + 1``, ...).
For every metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), min and max, and the
spread: the distance between the quartiles as a share of the median.
With a ``BENCHMARK.json`` at the root it also prints each end-to-end
metric's bound and whether the spread stays under a third of it.  This
is the evidence behind the bounds; re-run it to set them anew after a
baseline change.  The summary is also written to
``.perfbench/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import common


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values),
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    config_path = os.path.join(common.ROOT, "BENCHMARK.json")
    bounds, seconds = {}, args.seconds
    if os.path.exists(config_path):
        with open(config_path) as f:
            config = json.load(f)
        bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
        seconds = seconds or config["run_seconds"]
    seconds = seconds or 10

    runs = []
    for i in range(args.runs):
        seed = args.first_seed + i
        proc = subprocess.run(
            [sys.executable, os.path.join(common.ROOT, "perfbench", "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=common.ROOT)
        if proc.returncode != 0:
            print(proc.stderr[-2000:], file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        common.log(f"seed {seed}: attempted {result['attempted']} "
                   f"failed {result['failed']} correct {result['correct']} "
                   + " ".join(f"{k}={v['value']:.6g}"
                              for k, v in result["metrics"].items()))

    summary = {}
    print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'min':>12} {'max':>12} {'spread':>8} {'bound':>6}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        row = summary[name] = spread(values)
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = "ok" if row["spread"] < bound / 3 else "WIDE"
        print(f"{name:32} {row['median']:12.6g} {row['q1']:12.6g} "
              f"{row['q3']:12.6g} {row['min']:12.6g} {row['max']:12.6g} "
              f"{row['spread']:8.4f} {bound if bound is not None else '':>6} "
              f"{verdict}")
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed share per run: {sorted(shares)}; "
          f"all correct: {all(r['correct'] for r in runs)}")
    common.write_record(f"spread-{args.workload}.json",
                        {"workload": args.workload, "seconds": seconds,
                         "runs": runs, "summary": summary,
                         "environment": common.environment()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
