#!/usr/bin/env python3
"""bench_suite_smoke: runs every workload of BENCHMARK.json at --smoke scale
with --trace 1 (one traced pass, every correctness check) and checks that

  * the run exits 0 with correct == true and failed == 0;
  * every end-to-end and per-layer metric is printed with a finite value,
    and the result line carries exactly the per-layer set;
  * the traced pass dropped no spans and, on the fleet workloads, the tick
    stage spans cover at least 95% of TickOnce;
  * the whole smoke run stays under 20 seconds.

usage: smoke.py <ipool_bench binary> <BENCHMARK.json>
"""
import json
import math
import os
import subprocess
import sys
import time

SMOKE_SEED = "2"
BUDGET_SECONDS = 20.0
FLEET = ("fleet-tick", "fleet-retune")


def check_workload(binary, name, spec, trace_root):
    proc = subprocess.run(
        [binary, "--workload", name, "--seed", SMOKE_SEED, "--smoke",
         "--trace", "1", "--trace-dir",
         os.path.join(trace_root, name)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=120)
    errors = []
    if proc.returncode != 0:
        errors.append("exit code %d: %s" % (proc.returncode,
                                            proc.stderr.strip()[-400:]))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return errors + ["no output"]
    result = json.loads(lines[-1])
    if result["correct"] is not True or result["failed"] != 0:
        errors.append("correct=%s failed=%s" % (result["correct"],
                                                result["failed"]))
    printed = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == name:
            printed[parts[1]] = float(parts[2])
    for metric in spec["end_to_end"] + spec["per_layer"]:
        value = printed.get(metric["name"])
        if value is None or not math.isfinite(value):
            errors.append("metric %s missing or not finite" % metric["name"])
    expected = {m["name"] for m in spec["per_layer"]}
    if set(result["metrics"]) != expected:
        errors.append("result line metrics differ from per_layer: %s" %
                      sorted(set(result["metrics"]) ^ expected))
    if printed.get("obs.spans_dropped", 0.0) != 0.0:
        errors.append("spans dropped: %s" % printed["obs.spans_dropped"])
    if name in FLEET and printed.get("live.stage_coverage", 0.0) < 0.95:
        errors.append("tick stage coverage %.3f < 0.95" %
                      printed.get("live.stage_coverage", 0.0))
    return errors


def main():
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    binary, spec_path = sys.argv[1], sys.argv[2]
    with open(spec_path) as f:
        spec = json.load(f)
    trace_root = os.path.join(os.getcwd(), "bench_suite_smoke_trace")
    start = time.monotonic()
    failures = 0
    for workload in spec["workloads"]:
        begun = time.monotonic()
        errors = check_workload(binary, workload["name"], spec, trace_root)
        print("%-13s %5.1f s %s" % (workload["name"],
                                    time.monotonic() - begun,
                                    "ok" if not errors else "FAILED"))
        for error in errors:
            print("  " + error)
        failures += bool(errors)
    elapsed = time.monotonic() - start
    if elapsed > BUDGET_SECONDS:
        print("smoke took %.1f s, budget %.0f s" % (elapsed, BUDGET_SECONDS))
        failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
