#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json at reduced size (--smoke: 150-job
traces, one-second runs), untraced and traced, with each workload's default
seed from perfbench/seeds.json. Checks that every run exits 0 and prints a
result line with exactly the keys correct/attempted/failed/metrics, that
every correctness check passed, and that the metrics are exactly the
end_to_end (untraced) or per_layer (traced) names of BENCHMARK.json, each
with its unit and a finite value; end-to-end values must also be positive.
Exit code 0 means all passed.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_run(workload, seed, trace, expected):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    label = f"{workload} --trace {trace}"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return [f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    errors = []
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"{label}: not correct, {result.get('failed')} of "
                      f"{result.get('attempted')} failed\n{proc.stderr[-2000:]}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"{label}: attempted {result.get('attempted')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        errors.append(f"{label}: missing {sorted(set(expected) - set(metrics))}"
                      f", unexpected {sorted(set(metrics) - set(expected))}")
    for name, m in metrics.items():
        if name not in expected:
            continue
        value = m.get("value")
        if m.get("unit") != expected[name]:
            errors.append(f"{label}: {name} unit {m.get('unit')}, "
                          f"expected {expected[name]}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{label}: {name} value {value}")
        elif trace == 0 and value <= 0:
            errors.append(f"{label}: {name} is {value}, expected > 0")
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "seeds.json")) as f:
        seeds = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    errors = []
    for w in bench["workloads"]:
        seed = seeds[w["name"]]["default"]
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            found = check_run(w["name"], seed, trace, expected)
            print(f"{w['name']:<14} trace {trace}: "
                  f"{'ok' if not found else 'FAIL'}")
            errors += found
    for e in errors:
        print("FAIL:", e)
    print("smoke:", "PASS" if not errors else "FAIL")
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
