#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and summarise each metric.

Run from the root of a source checkout:

    python3 perfbench/baseline.py --workload procs-rpc --runs 10 [--trace 1]
        [--first-seed 1] [--seconds 10] [--json out.json]

Each run uses the next seed. For every metric it prints the median, the
first and third quartiles (`statistics.quantiles(values, n=4)`) and the
spread, the distance between the quartiles as a share of the median.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    elapsed = time.monotonic() - start
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("run failed (exit %d): %s" % (out.returncode, " ".join(cmd)))
    result = json.loads(lines[-1])
    provenance = json.loads(lines[-2])["provenance"] if len(lines) > 1 else {}
    return result, provenance, elapsed


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json")
    args = ap.parse_args()

    values, units, steal, elapsed = {}, {}, [], []
    for i in range(args.runs):
        result, prov, secs = run_once(args.workload, args.first_seed + i,
                                      args.seconds, args.trace)
        if not result["correct"]:
            sys.exit("seed %d: incorrect result" % (args.first_seed + i))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        steal.append(prov.get("steal_share", 0.0))
        elapsed.append(secs)

    summary = {}
    print("%-44s %14s %14s %14s %8s" % ("metric", "median", "q1", "q3", "spread"))
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        summary[name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3,
                         "spread": spread, "values": vals}
        print("%-44s %14.6g %14.6g %14.6g %8.4f" % (name, med, q1, q3, spread))
    print("runs %d, wall per run median %.1f s (max %.1f), steal share median %.3f"
          % (args.runs, statistics.median(elapsed), max(elapsed), statistics.median(steal)))
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "trace": args.trace,
                       "seconds": args.seconds, "first_seed": args.first_seed,
                       "runs": args.runs, "metrics": summary,
                       "wall_s": elapsed, "steal_share": steal}, f, indent=1)


if __name__ == "__main__":
    main()
