#!/usr/bin/env python3
"""Steadiness of the benchmark, the way its acceptance check measures it.

Runs each workload of BENCHMARK.json once per seed through the driver's
contract and prints, per end-to-end metric, the median over the seeds
and the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median. A bound in
BENCHMARK.json should be at least three times the worst spread seen for
its metric on any workload. Run from the repository root:

    python3 benchmark/calibrate.py                 # seeds 1..10, every workload
    python3 benchmark/calibrate.py 11-20 lossy     # other seeds, one workload
"""
import json
import statistics
import subprocess
import sys

manifest = json.load(open("BENCHMARK.json"))
first, last = (sys.argv[1] if len(sys.argv) > 1 else "1-10").split("-")
seeds = range(int(first), int(last) + 1)
names = sys.argv[2:] or [w["name"] for w in manifest["workloads"]]
bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}

for name in names:
    values = {}
    for seed in seeds:
        cmd = manifest["command"] + ["--workload", name, "--seed", str(seed),
                                     "--seconds", str(manifest["run_seconds"]), "--trace", "0"]
        run = subprocess.run(cmd, capture_output=True, text=True)
        if run.returncode != 0:
            sys.exit(f"{name} seed {seed}: exit {run.returncode}\n{run.stderr[-2000:]}")
        result = json.loads(run.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(f"{name} seed {seed}: correct={result['correct']} failed={result['failed']}")
        for metric, v in result["metrics"].items():
            values.setdefault(metric, []).append(v["value"])
    print(f"== {name}")
    for metric, v in values.items():
        q1, _, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        spread = (q3 - q1) / med
        mark = "" if spread * 3 <= bounds[metric] or metric == "setup_s" else "  (above a third of the bound)"
        print(f"  {metric:18s} median {med:14.4f}  spread {spread:.4f}  bound {bounds[metric]:.2f}{mark}")
    sys.stdout.flush()
