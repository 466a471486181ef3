#!/usr/bin/env python3
"""Run one workload of the repo benchmark and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds the dnastore
library and the perfbench binary from source with CMake (Release) into
.bench_build/ (or $CARGO_TARGET_DIR when set); later runs only check the
build is current. The binary runs the workload closed-loop for S seconds
on inputs made from seed N and checks every output.

Standard output: a readable summary, the binary's full JSON report
(host block, every metric of the workload with its unit and sample count,
each failed op, and for traced runs the attribution table), and as the
last line the result object {"correct", "attempted", "failed",
"metrics"}. Its metrics are the end_to_end metrics of BENCHMARK.json
(--trace 0) or its per_layer metrics (--trace 1).

Workloads: unit-roundtrip, unit-clustered, daemon-rw, lab-sweep.
--smoke runs the smallest size (one op); --layout picks the unit-*
layout (baseline, gini, dnamapper). Both serve perfbench/smoke.py.

Exit status: 0 with a result line; 1 when the build, the run or the
result check fails; 2 on a usage error. No result line is printed
unless the exit status is 0.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("unit-roundtrip", "unit-clustered", "daemon-rw", "lab-sweep")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configure (once) and build the binary; return its path."""
    if not (ROOT / "src").is_dir():
        raise BenchError("no src/ next to perfbench/: run from a checkout "
                         "of the repository")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (out / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                      "-j", jobs])
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=sys.stderr,
                                      stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as e:
                raise BenchError(f"build step {cmd[:2]} failed: {e}")
            if done.returncode != 0:
                raise BenchError(f"build step {' '.join(cmd[:2])} exited "
                                 f"{done.returncode}")
    binary = out / "perfbench"
    if not binary.is_file():
        raise BenchError(f"build produced no {binary}")
    return binary


def metric_spec():
    """(end_to_end, per_layer) metric lists of BENCHMARK.json."""
    path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(path.read_text())
        return spec["end_to_end"], spec["per_layer"]
    except (OSError, ValueError, KeyError) as e:
        raise BenchError(f"cannot read the metric list from {path}: {e}")


def run_binary(binary, args):
    scratch = build_dir() / "run"
    scratch.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--scratch", str(scratch), "--layout",
           args.layout]
    if args.smoke:
        cmd.append("--smoke")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, text=True)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"perfbench did not finish: {e}")
    if done.returncode != 0:
        raise BenchError(f"perfbench exited {done.returncode}")
    lines = [l for l in done.stdout.splitlines() if l.strip()]
    if not lines:
        raise BenchError("perfbench printed no report")
    try:
        return json.loads(lines[-1])
    except ValueError as e:
        raise BenchError(f"perfbench report is not JSON: {e}")


def result_line(report, wanted):
    """The result object: the wanted metrics, their units checked."""
    metrics = {}
    for spec in wanted:
        name = spec["name"]
        got = report["metrics"].get(name)
        if got is None:
            raise BenchError(f"the {report['workload']} report has no "
                             f"metric {name}")
        if got["unit"] != spec["unit"]:
            raise BenchError(f"{name}: unit {got['unit']} in the report, "
                             f"{spec['unit']} in BENCHMARK.json")
        if got["value"] is None:
            raise BenchError(f"{name}: no value")
        metrics[name] = {"value": got["value"], "unit": got["unit"]}
    return {"correct": bool(report["correct"]) and report["failed"] == 0,
            "attempted": int(report["attempted"]),
            "failed": int(report["failed"]), "metrics": metrics}


def summary(report):
    lines = [f"# {report['workload']} seed={report['seed']} "
             f"trace={report['trace']} host={json.dumps(report['host'])}"]
    for name, m in report["metrics"].items():
        n = f" (n={m['samples']})" if "samples" in m else ""
        lines.append(f"#   {name} = {m['value']} {m['unit']}{n}")
    for f in report["failures"]:
        lines.append(f"#   FAILED op {f['op']}: {f['reason']}")
    for note in report["notes"]:
        lines.append(f"#   note: {note}")
    return "\n".join(lines)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--layout", default="gini",
                   choices=("baseline", "gini", "dnamapper"))
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv):
    args = parse_args(argv)
    try:
        end_to_end, per_layer = metric_spec()
        report = run_binary(build(), args)
        result = result_line(report, per_layer if args.trace else end_to_end)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(summary(report))
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
