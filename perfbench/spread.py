#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

Runs one workload once per seed and prints, for each metric, the median
of the runs and the distance between their first and third quartiles as
a share of that median (statistics.quantiles(values, n=4)).

    python3 perfbench/spread.py --workload fig7-warm --seeds 1-10 [--trace 1]
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--trace", default="0")
    args = p.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    runs = []
    for seed in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", args.trace]
        out = subprocess.run(cmd, capture_output=True, text=True)
        last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
        if out.returncode != 0:
            print(f"seed {seed}: exit {out.returncode}: {last}", file=sys.stderr)
            continue
        result = json.loads(last)
        runs.append(result)
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)
    if len(runs) < 2:
        sys.exit("fewer than two successful runs")
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None else (" ok" if spread < bound / 3 else
                                         " over a third of its bound" if spread < bound else
                                         " OVER BOUND")
        print(f"{name:32s} median {med:12.5g}  spread {spread:7.3f}"
              + ("" if bound is None else f"  bound {bound}") + flag)


if __name__ == "__main__":
    main()
