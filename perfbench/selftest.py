#!/usr/bin/env python3
"""Self-test of the benchmark at tiny scale.

Run from the root of a checkout:

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it checks that
  * both passes (--trace 0 and --trace 1) print every metric BENCHMARK.json
    names for them, exactly once, with its unit, and nothing else;
  * on unmodified code every run passes the correctness gate;
  * a doctored RunResult (--doctor 1) is counted as failed in both passes;
  * a different seed changes the trace but not the metric set.
Exits 0 when all checks pass, 1 otherwise.
"""

import json
import subprocess
import sys

SCALE = "0.05"


def run(workload, seed, trace, doctor=0):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
           "--scale", SCALE, "--doctor", str(doctor)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True,
                         timeout=600).stdout.strip().splitlines()
    detail = json.loads(out[0])["detail"]
    pairs = json.loads(out[-1], object_pairs_hook=lambda kv: kv)
    return detail, pairs


def metric_pairs(result_pairs):
    return dict(result_pairs)["metrics"]


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    expected = {
        0: [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        1: [(m["name"], m["unit"]) for m in spec["per_layer"]],
    }
    failures = []

    def check(cond, what):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            failures.append(what)

    for wl in spec["workloads"]:
        name = wl["name"]
        digests = {}
        for trace in (0, 1):
            detail, pairs = run(name, 1, trace)
            result = dict(pairs)
            metrics = metric_pairs(pairs)
            names = [k for k, _ in metrics]
            printed = sorted((k, dict(v)["unit"]) for k, v in metrics)
            check(len(names) == len(set(names)),
                  f"{name} trace={trace}: no metric printed twice")
            check(printed == sorted(expected[trace]),
                  f"{name} trace={trace}: metric set and units match "
                  "BENCHMARK.json")
            check(result["correct"] is True and result["failed"] == 0 and
                  result["attempted"] >= 1,
                  f"{name} trace={trace}: every run passes the gate")
            digests[1] = detail["trace_digest"]

            _, bad = run(name, 1, trace, doctor=1)
            bad = dict(bad)
            check(bad["correct"] is False and bad["failed"] >= 1,
                  f"{name} trace={trace}: a doctored RunResult counts as "
                  "failed")

            detail2, pairs2 = run(name, 2, trace)
            names2 = sorted(k for k, _ in metric_pairs(pairs2))
            check(detail2["trace_digest"] != digests[1],
                  f"{name} trace={trace}: seed 2 changes the trace")
            check(names2 == sorted(names),
                  f"{name} trace={trace}: seed 2 keeps the metric set")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
