#!/usr/bin/env python3
"""The benchmark's own smoke test.

    python3 perfbench/smoke.py

Runs every workload at its smallest size (one op) through
perfbench/run.py, untraced and traced, and asserts that:
  - every run is correct, with no failed op;
  - every metric BENCHMARK.json names (end_to_end untraced, per_layer
    traced) is printed with its unit;
  - the full report prints the workload's own end-to-end metrics
    (write_ms_p50, get_us_p99, trials_per_s, ...) with their units;
  - the traced replay reproduces the library exactly on all three
    layouts (Baseline, Gini, DnaMapper), clustered and not.
Exits 0 when all hold, 1 otherwise. Takes about a minute.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# The workload-specific end-to-end metrics of the full report. Tail
# percentiles are absent at smoke size (too few samples), by design.
RAW = {"op_ms_p50": "ms", "throughput_per_s": "1/s", "fail_rate": "ratio"}
OWN_METRICS = {
    "unit-roundtrip": {"write_ms_p50": "ms", "read_ms_p50": "ms",
                       "payload_MBps": "MB/s", **RAW},
    "daemon-rw": {"get_us_p50": "us", "put_us_p50": "us",
                  "req_per_s": "1/s", **RAW},
    "lab-sweep": {"trials_per_s": "1/s", **RAW},
}
OWN_METRICS["unit-clustered"] = OWN_METRICS["unit-roundtrip"]


def run(workload, trace, layout="gini"):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke",
           "--layout", layout]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise AssertionError(f"{' '.join(cmd[1:])}: exit {done.returncode}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def check(label, report, result, wanted):
    assert result["correct"] and result["failed"] == 0, \
        f"{label}: failures {report['failures']}"
    assert result["attempted"] >= 1, f"{label}: no op attempted"
    for name, unit in wanted.items():
        got = result["metrics"].get(name) or report["metrics"].get(name)
        assert got is not None, f"{label}: metric {name} not printed"
        assert got["unit"] == unit, \
            f"{label}: {name} unit {got['unit']}, expected {unit}"


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failed = 0
    cases = [(w["name"], trace, "gini") for w in spec["workloads"]
             for trace in (0, 1)]
    cases += [("unit-roundtrip", 1, "baseline"),
              ("unit-roundtrip", 1, "dnamapper"),
              ("unit-clustered", 1, "dnamapper")]
    for workload, trace, layout in cases:
        label = f"{workload} trace={trace} layout={layout}"
        try:
            report, result = run(workload, trace, layout)
            wanted = dict(per_layer) if trace else dict(end_to_end)
            if not trace:
                wanted.update(OWN_METRICS[workload])
            check(label, report, result, wanted)
            print(f"ok    {label}")
        except AssertionError as e:
            failed += 1
            print(f"FAIL  {e}")
    print("smoke: " + ("ok" if failed == 0 else f"{failed} case(s) failed"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
