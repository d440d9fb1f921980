#!/usr/bin/env python3
"""End-to-end P4Auth ledger benchmark: build, run one workload, report.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (which compiles ../src)
into .bench_build/perfbench; later calls only re-check the build. The
workload's output is passed through, and its last line is the result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--self-test seeds every defect the workloads check for, one run each,
and fails unless each run fails its check while clean runs pass.
"""

import argparse
import fcntl
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = "p4auth_ledger"
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

# Seeded defect -> (workload, trace, text of each check that must catch it).
DEFECTS = {
    "probe_misses_sink": ("chain12", 0, "missed S12"),
    "verify_failure": ("chain12", 0, "verify failure"),
    "rep_count_drift": ("chain12", 0, "work counts differ"),
    "shard_fingerprint": ("chain12", 0, "fingerprint differs"),
    "tamper_accepted": ("fig17_incast", 0, "tampered probe(s) accepted"),
    "clean_rejected": ("fig17_incast", 0, "clean probe(s) rejected"),
    "tamper_and_clean": ("fig17_incast", 0,
                         ("tampered probe(s) accepted", "clean probe(s) rejected")),
    "data_lost": ("fig17_incast", 0, "not delivered"),
    "register_error": ("ctrl_rotation", 0, "write failed"),
    "stale_read": ("ctrl_rotation", 0, "read-back mismatch"),
    "rotation_failure": ("ctrl_rotation", 0, "not rotated"),
    "unattributed_time": ("chain12", 1, "layer sum"),
}
WORKLOADS = ["chain12", "chain12_2shard", "fig17_incast", "ctrl_rotation"]


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures once, then lets the build tool bring the binary up to date."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    if shutil.which("cmake") is None:
        log("cmake not found")
        return None
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", out, "--target", TARGET, "-j", jobs])
        for step in steps:
            # Build output goes to stderr: stdout's last line is the result.
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                log(f"build step failed: {' '.join(step)}")
                return None
    binary = os.path.join(out, TARGET)
    return binary if os.path.exists(binary) else None


def source_digest():
    """sha256 over the simulator and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or shutil.which("git") is None:
        return "none"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "none"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_binary(binary, workload, seed, seconds, trace, defect=None, echo=True):
    """Runs one workload; returns (exit code, stdout lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if trace:
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out", os.path.join(spans, f"{workload}-seed{seed}.jsonl")]
    if defect:
        cmd += ["--defect", defect]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        return 124, []
    if done.stderr:
        sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    if echo:
        sys.stdout.write(done.stdout)
        sys.stdout.flush()
    return done.returncode, lines


def parse_result(lines):
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) and set(result) == RESULT_KEYS else None


def self_test(binary):
    rows = []
    ok = True
    for workload in WORKLOADS:
        code, lines = run_binary(binary, workload, 1, 1, 0, echo=False)
        result = parse_result(lines)
        passed = code == 0 and result is not None and result["correct"]
        rows.append(("none", workload, 0, "passes" if passed else "FAILS (clean run)"))
        ok = ok and passed
    for defect, (workload, trace, checks) in DEFECTS.items():
        code, lines = run_binary(binary, workload, 1, 1, trace, defect=defect, echo=False)
        result = parse_result(lines)
        checks = (checks,) if isinstance(checks, str) else checks
        whys = [next((l[len("CHECK FAILED: "):] for l in lines
                      if l.startswith("CHECK FAILED") and check in l), None) for check in checks]
        caught = (code != 0 and result is not None and not result["correct"]
                  and None not in whys)
        rows.append((defect, workload, trace,
                     f"caught: {'; '.join(whys)}" if caught else "NOT CAUGHT"))
        ok = ok and caught
    for defect, workload, trace, verdict in rows:
        print(f"{defect:20s} {workload:16s} trace={trace}  {verdict}")
    print(json.dumps({"self_test": "pass" if ok else "fail"}))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if binary is None:
        log("build failed; no result")
        return 3
    if args.self_test:
        return self_test(binary)

    print("provenance(host): " + json.dumps({
        "git_sha": git_sha(), "source_digest": source_digest(), "cpu": cpu_model(),
        "nproc": os.cpu_count()}), flush=True)
    code, lines = run_binary(binary, args.workload, args.seed, args.seconds, args.trace)
    if parse_result(lines) is None:
        log("the workload printed no result line")
        return code or 4
    return code


if __name__ == "__main__":
    sys.exit(main())
