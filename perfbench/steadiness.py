#!/usr/bin/env python3
"""Steadiness check for the ledger benchmark.

Runs every workload repeatedly, interleaved (each round visits the
workloads in a rotated order, with a fresh seed), then prints, per
end-to-end metric, the median and quartiles of the per-run values and
their spread (Q3 - Q1) / median against the bound in BENCHMARK.json.
It also gates the exact work counts: each workload's per-rep counts must
be identical in every run. (The chain12 / chain12_2shard fingerprint is
checked inside every chain run, against a reference rep on the other
shard count.)

    python3 perfbench/steadiness.py                  # 10 rounds, every benchmark workload
    python3 perfbench/steadiness.py --runs 5 --workloads chain12
    python3 perfbench/steadiness.py --sets 2         # also compare two sets' medians

Exit status 0 when every spread is within its bound (and,
with --sets 2, no second-set median is worse than the first by more
than the bound) and every count gate holds; 1 otherwise.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    counts = next((m.group(1) for m in map(re.compile(r".*counts per rep \[(.*)\]").match, lines)
                   if m), None)
    return done.returncode, result, counts


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    parser.add_argument("--sets", type=int, default=1, choices=[1, 2])
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--seed-base", type=int, default=100)
    parser.add_argument("--workloads", default=",".join(names))
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    for w in workloads:
        if w not in names:
            parser.error(f"unknown workload {w}")
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    ok = True
    values = {}  # (set, workload, metric) -> [value per run]
    counts = {}  # workload -> set of count strings
    for s in range(args.sets):
        for i in range(args.runs):
            seed = args.seed_base + s * args.runs + i
            order = workloads[i % len(workloads):] + workloads[:i % len(workloads)]
            for w in order:
                code, result, count_text = run_once(w, seed, args.seconds)
                if code != 0 or result is None or not result["correct"]:
                    print(f"set {s + 1} run {i + 1} {w} seed {seed}: FAILED (exit {code})")
                    ok = False
                    continue
                for name, m in result["metrics"].items():
                    values.setdefault((s, w, name), []).append(m["value"])
                counts.setdefault(w, set()).add(count_text)
                shown = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
                print(f"set {s + 1} run {i + 1:2d} {w:15s} seed {seed}: {shown}", flush=True)

    print()
    print(f"{'set':>3} {'workload':15s} {'metric':12s} {'Q1':>12} {'median':>12} {'Q3':>12} "
          f"{'spread':>8} {'bound':>6}  verdict")
    for s in range(args.sets):
        for w in workloads:
            for name, m in metrics.items():
                v = values.get((s, w, name), [])
                if len(v) < 2:
                    print(f"{s + 1:>3} {w:15s} {name:12s} too few runs")
                    ok = False
                    continue
                q1, med, q3, sp = spread(v)
                verdict = ("ok" if sp <= m["bound"] / 3 else
                           "within bound" if sp <= m["bound"] else "OVER BOUND")
                ok = ok and sp <= m["bound"]
                print(f"{s + 1:>3} {w:15s} {name:12s} {q1:12.6g} {med:12.6g} {q3:12.6g} "
                      f"{sp:8.3f} {m['bound']:6.2f}  {verdict}")
    if args.sets == 2:
        print()
        for w in workloads:
            for name, m in metrics.items():
                a, b = values.get((0, w, name), []), values.get((1, w, name), [])
                if not a or not b:
                    continue
                m1, m2 = statistics.median(a), statistics.median(b)
                drift = (m2 - m1) / m1 if m["better"] == "lower" else (m1 - m2) / m1
                good = drift <= m["bound"]
                ok = ok and good
                print(f"drift {w:15s} {name:12s} {m1:12.6g} -> {m2:12.6g} "
                      f"{100 * drift:+7.2f}% (bound {100 * m['bound']:.0f}%)"
                      f"  {'ok' if good else 'WORSE THAN BOUND'}")

    print()
    for w, seen in counts.items():
        same = len(seen) == 1
        ok = ok and same
        print(f"counts {w:15s} {'identical in every run' if same else 'DIFFER: ' + str(seen)}")
    print(json.dumps({"steady": ok}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
