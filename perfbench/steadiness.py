#!/usr/bin/env python3
"""Steadiness report: do two sets of benchmark runs agree within the bounds?

    python3 perfbench/steadiness.py [--workloads contended] [--runs 10]
                                    [--seconds S]

For every workload it makes two sets of --runs untraced runs of the same
code. Pair i runs seed i in both sets, and the pairs alternate which set
goes first, so that drift of the host hits both alike. Within a set every
run has another seed, so a set's spread holds the seed-to-seed change of
the work as well as the host's noise; between the sets the inputs are the
same. For each end-to-end metric of BENCHMARK.json it prints each set's
median and quartiles (statistics.quantiles(n=4)), the spread
(Q3 - Q1) / median, and how far set B's median lies from set A's, both
against the metric's bound. The "pair" column is the median of
|B_i / A_i - 1| over the pairs: same seed, run back to back, so it shows
the host's noise without the seed's. A spread or a set-to-set difference,
either way, above the bound fails the report, as does any run that is not
correct. Raw results go to .bench_out/steadiness.json. Exit code 0 means
every check passed.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / statistics.median(values)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()

    raw = {}
    ok = True
    for workload in args.workloads.split(","):
        sets = {"A": [], "B": []}
        for i in range(args.runs):
            order = ["A", "B"] if i % 2 == 0 else ["B", "A"]
            for name in order:
                seed = i + 1
                r = run_once(workload, seed, args.seconds)
                r["seed"] = seed
                sets[name].append(r)
                if not r["correct"]:
                    ok = False
                    print(f"{workload} seed {seed}: NOT CORRECT "
                          f"({r['failed']} of {r['attempted']} failed)")
        raw[workload] = sets
        walls = [r["wall_s"] for s in sets.values() for r in s]
        print(f"\n{workload}: {len(walls)} runs, run wall time "
              f"median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
        print(f"  {'metric':<18} {'set':>3} {'median':>12} {'Q1':>12} "
              f"{'Q3':>12} {'spread':>7}  {'B vs A':>7} {'pair':>6} "
              f"{'bound':>6}  verdict")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            stats = {}
            for s in ("A", "B"):
                stats[s] = spread([r["metrics"][name]["value"]
                                   for r in sets[s]])
            diff = (stats["B"][1] - stats["A"][1]) / stats["A"][1]
            # Same seed, run back to back: the host's noise without the
            # seed-to-seed change of the work.
            pair = statistics.median(
                abs(b["metrics"][name]["value"] / a["metrics"][name]["value"]
                    - 1) for a, b in zip(sets["A"], sets["B"]))
            verdict = "ok"
            for s in ("A", "B"):
                if stats[s][3] > bound:
                    verdict = f"FAIL spread {s}"
            if abs(diff) > bound:
                verdict = "FAIL drift"
            if verdict != "ok":
                ok = False
            for s in ("A", "B"):
                q1, med, q3, sp = stats[s]
                tail = (f"  {100 * diff:+6.1f}% {100 * pair:5.1f}% "
                        f"{100 * bound:5.0f}%  {verdict}"
                        if s == "B" else "")
                print(f"  {name if s == 'A' else '':<18} {s:>3} {med:12.6g} "
                      f"{q1:12.6g} {q3:12.6g} {100 * sp:6.1f}%{tail}")
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_out", "steadiness.json"), "w") as f:
        json.dump(raw, f, indent=1)
    print("\nsteadiness:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
