#!/usr/bin/env python3
"""Checks that the traced run's deterministic counters repeat exactly.

Runs every workload twice with --trace 1 and the same seed, then fails if
any work counter differs between the two runs, if a run reports a failed
operation, or if a workload's cache counters contradict its design (the
cache is bypassed on publish_cold and service_mix). Timings are not
compared: they move with the host.

Usage, from the root of the checkout:

    python3 perfbench/check_determinism.py [--seed N] [--seconds S]
"""

import argparse
import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
WORKLOADS = ("publish_cold", "republish_delta", "service_mix")

# Per-operation means over a fixed window of the seeded operation sequence
# (or whole-database sizes): identical for identical seeds.
COUNTERS = (
    "silkroute.greedy_oracle_requests",
    "silkroute.components",
    "engine.rows_scanned",
    "engine.rows_joined",
    "engine.rows_sorted",
    "engine.hash_joins",
    "engine.keys_encoded",
    "engine.wire_bytes",
    "silkroute.tag_rows_consumed",
    "silkroute.tag_instances",
    "xml.bytes",
    "xml.flushes",
    "engine.cache_hits",
    "engine.cache_misses",
    "engine.cache_splices",
    "engine.cache_lookups",
    "engine.cache_evictions",
    "engine.cache_resident_bytes",
    "relational.db_bytes",
    "relational.rows",
    "service.shed",
)
CACHE_COUNTERS = ("engine.cache_hits", "engine.cache_misses",
                  "engine.cache_splices", "engine.cache_lookups")


def traced_run(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise RuntimeError("%s: exit code %d" % (workload, done.returncode))
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("%s: no result line" % workload)
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise RuntimeError("%s: %d of %d operations failed" %
                           (workload, result["failed"], result["attempted"]))
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=5)
    args = parser.parse_args()

    problems = []
    for workload in WORKLOADS:
        first = traced_run(workload, args.seed, args.seconds)
        second = traced_run(workload, args.seed, args.seconds)
        for name in COUNTERS:
            if name not in first or name not in second:
                problems.append("%s: %s missing" % (workload, name))
            elif first[name] != second[name]:
                problems.append("%s: %s differs: %r vs %r" %
                                (workload, name, first[name], second[name]))
        if workload != "republish_delta":
            for name in CACHE_COUNTERS:
                if first.get(name) != 0:
                    problems.append("%s: %s should be 0, reads %r" %
                                    (workload, name, first.get(name)))
        elif first.get("engine.cache_hits", 0) == 0:
            problems.append("republish_delta: the cache is never hit")
        print("%-16s %d counters compared" % (workload, len(COUNTERS)),
              flush=True)
    for problem in problems:
        print("MISMATCH " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
