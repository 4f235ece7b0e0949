#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

From the root of a checkout: runs every workload of BENCHMARK.json,
and whale_minnows, which BENCHMARK.json leaves out (DESIGN.md says
why), in a short mode (one second per window), untraced and traced,
and checks
the result line against BENCHMARK.json: every end-to-end (untraced) or
per-layer (traced) metric printed, with its declared unit, and the gate
passing. The traced run must leave a trace file Perfetto can load. Then
it reruns every workload with a bit flip injected into encoded frames
(ServiceParams::postEncodeFaultHook) and checks that the correctness
gate fails: failed_frames_ratio > 0 and "correct" false. Exits non-zero
on the first failed check.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS = "1"
# Runnable workloads that BENCHMARK.json does not list.
UNLISTED = ["whale_minnows"]


def check(cond, msg):
    if not cond:
        print(f"FAIL: {msg}", file=sys.stderr)
        sys.exit(1)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", SECONDS,
           "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    check(proc.returncode == 0,
          f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    check(len(lines) >= 2, f"{workload}: no run record before the result")
    record = json.loads(lines[-2])["run_record"]
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{workload}: result keys {sorted(result)}")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
          f"{workload}: attempted {result['attempted']}")
    for key in ("nproc", "simd_level", "revision", "seed",
                "frames_measured", "latency_samples"):
        check(key in record, f"{workload}: run record lacks {key}")
    return record, result


def check_metrics(workload, result, specs, nonzero):
    metrics = result["metrics"]
    check(set(metrics) == {s["name"] for s in specs},
          f"{workload}: metrics {sorted(metrics)}")
    for spec in specs:
        m = metrics[spec["name"]]
        check(m["unit"] == spec["unit"],
              f"{workload}: {spec['name']} unit {m['unit']}")
        check(isinstance(m["value"], (int, float)) and
              math.isfinite(m["value"]),
              f"{workload}: {spec['name']} = {m['value']}")
        if nonzero:
            check(m["value"] != 0, f"{workload}: {spec['name']} is 0")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for wl in [w["name"] for w in bench["workloads"]] + UNLISTED:
        _, result = run(wl, 0)
        check(result["correct"] and result["failed"] == 0,
              f"{wl}: gate failed without a fault: {result}")
        check_metrics(wl, result, bench["end_to_end"], nonzero=True)

        record, result = run(wl, 1)
        check(result["correct"], f"{wl}: traced gate failed")
        check_metrics(wl, result, bench["per_layer"], nonzero=False)
        with open(os.path.join(ROOT, record["trace_file"])) as f:
            events = json.load(f)["traceEvents"]
        check(any(e.get("ph") == "X" for e in events),
              f"{wl}: trace has no spans")

        _, result = run(wl, 1, "--inject-fault")
        ratio = result["metrics"]["failed_frames_ratio"]["value"]
        check(result["failed"] > 0 and not result["correct"] and ratio > 0,
              f"{wl}: injected bit flips went undetected: {result['failed']}"
              f" failed, failed_frames_ratio {ratio}")
        print(f"ok {wl}: metrics, trace and gate")
    print("selftest passed")


if __name__ == "__main__":
    main()
