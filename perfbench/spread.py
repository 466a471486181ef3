#!/usr/bin/env python3
"""Measure the run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] \
        [--seconds S] [--out FILE]

Runs perfbench/run.py once per (workload, seed), untraced, serially.
For each end-to-end metric of BENCHMARK.json it prints the median over
the seeds and the spread: the distance between the first and third
quartile (statistics.quantiles(values, n=4)) as a share of the median,
next to the metric's bound and a third of it. With --out, every result
line and the summary are written as JSON (the form of the baselines
recorded in perfbench/BASELINE.json).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_one(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: run.py exited "
                         f"{done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--out")
    args = p.parse_args()

    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs, summary = {}, {}
    worst = 0.0
    for workload in args.workloads.split(","):
        results = [run_one(workload, s, args.seconds) for s in seeds]
        runs[workload] = results
        summary[workload] = {}
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"{workload}: {attempted} ops attempted, {failed} failed, "
              f"correct={all(r['correct'] for r in results)}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / median if median else float("inf")
            else:
                spread = 0.0
            summary[workload][name] = {"median": median, "spread": spread,
                                       "values": values}
            flag = "ok" if spread < bound / 3 else (
                "within bound" if spread <= bound else "OVER BOUND")
            if name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"  {name:18s} median {median:14.6g}  spread "
                  f"{spread:7.4f}  bound {bound:.3f} (1/3 = "
                  f"{bound / 3:.4f})  {flag}")
    print(f"largest spread/bound (setup_s excluded): {worst:.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seeds": seeds, "seconds": args.seconds, "summary": summary,
             "runs": runs}, indent=1) + "\n")


if __name__ == "__main__":
    main()
