#!/usr/bin/env python3
"""Builds the publish benchmark from this checkout's sources and runs it.

Usage, from the root of the checkout:

    python3 perfbench/run.py --workload publish_cold --seed 1 \
        --seconds 30 --trace 0

The benchmark is compiled (Release) into .bench_build/perfbench on first
use; later runs rebuild only what changed. Build output goes to stderr, so
the last line of standard output is the benchmark's JSON result. With
--trace 1 the traced run's spans are written as JSON lines to
.bench_build/spans/<workload>-seed<seed>.jsonl.

Exits non-zero without a result when the library sources (src/) are not
next to this directory or the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SPANS_DIR = os.path.join(ROOT, ".bench_build", "spans")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("publish_cold", "republish_delta", "service_mix")
# A run measures for --seconds; set-up, reference publishes and the last
# plan cycle add a few seconds more. Anything far beyond that is a hang.
SLACK_SECONDS = 60
BUILD_TIMEOUT_SECONDS = 840


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no library sources at %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                  timeout=BUILD_TIMEOUT_SECONDS)
        except (OSError, subprocess.TimeoutExpired) as err:
            print("perfbench: build step failed: %s" % err, file=sys.stderr)
            return False
        if done.returncode != 0:
            print("perfbench: build step failed: %s" % " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not build():
        return 1
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        command += ["--spans", os.path.join(
            SPANS_DIR, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        done = subprocess.run(command, cwd=ROOT,
                              timeout=args.seconds + SLACK_SECONDS)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s and was killed"
              % (args.seconds + SLACK_SECONDS), file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
