#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The first form configures and builds perfbench/ (which compiles the darnet
libraries it drives from ../src) into .bench_build/perfbench, then runs one
workload; the binary prints its report and, as the last line of standard
output, the JSON result. The second form is the smoke-scale self-test
described in README.md. See README.md for workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "darnet_perfbench")
# One run must end within 180 s; leave room for start-up and teardown.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def cached_source_dir():
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if not os.path.exists(cache):
        return None
    with open(cache, encoding="utf-8", errors="replace") as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return line.split("=", 1)[1].strip()
    return None


def build():
    """Configures (once per checkout) and builds the benchmark binary."""
    source = cached_source_dir()
    if source is not None and os.path.realpath(source) != os.path.realpath(HERE):
        shutil.rmtree(BUILD_DIR)  # a cache from another checkout path
        source = None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if source is None:
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "darnet_perfbench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the report.
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S, check=False)
        if result.returncode != 0:
            log("build step failed: " + " ".join(cmd))
            return False
    return True


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             check=False)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    commit = out.stdout.strip()
    return commit if out.returncode == 0 and commit else "unknown"


def run_binary(workload, seed, seconds, trace, capture=False):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--commit", git_commit()]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False,
                              capture_output=capture, text=capture)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        return None


def self_test():
    """Smoke-scale check of the benchmark contract (README.md)."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    names = {0: [m["name"] for m in spec["end_to_end"]],
             1: [m["name"] for m in spec["per_layer"]]}
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        digests = {}
        for seed, trace, seconds in ((1, 0, 1), (2, 0, 1), (1, 1, 2)):
            label = f"{workload} seed={seed} trace={trace}"
            proc = run_binary(workload, seed, seconds, trace, capture=True)
            if proc is None or proc.returncode != 0:
                problems.append(f"{label}: exit {proc and proc.returncode}")
                if proc is not None:
                    sys.stderr.write(proc.stdout[-4000:])
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if result["correct"] is not True:
                problems.append(f"{label}: output checks failed")
            emitted = sorted(result["metrics"])
            if emitted != sorted(names[trace]):
                missing = sorted(set(names[trace]) - set(emitted))
                extra = sorted(set(emitted) - set(names[trace]))
                problems.append(f"{label}: missing {missing} extra {extra}")
            for line in lines:
                if line.startswith("# input_digest="):
                    digests[(seed, trace)] = line.split("=", 1)[1]
            log(f"{label}: ok ({len(emitted)} metrics)")
        if digests.get((1, 0)) == digests.get((2, 0)):
            problems.append(f"{workload}: seeds 1 and 2 generated the same inputs")
    for p in problems:
        log("SELF-TEST FAILED: " + p)
    if not problems:
        log("self-test passed")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    if not build():
        return 1
    if args.self_test:
        return self_test()
    proc = run_binary(args.workload, args.seed, args.seconds, args.trace)
    return 1 if proc is None else proc.returncode


if __name__ == "__main__":
    sys.exit(main())
