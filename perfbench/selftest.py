#!/usr/bin/env python3
"""Self-test of the benchmark: exact work counts repeat across same-seed runs.

    python3 perfbench/selftest.py [--seed N] [--seconds S] [workload ...]

For each workload (default: all three) this runs perfbench/run.py twice
with the same seed, once untraced and once traced, and compares every
registry counter delta the two records hold, phase by phase (set-up
training, measured phase, recovery). Counts are work, not time, so they
must match exactly; a count that differs is named. Counts listed in
TIMING_DEPENDENT below are known to follow how arrivals fell against
drains and are reported but not failed. The traced run's end-to-end
figures against the untraced run's give the tracing overhead.

Exit code 0 when every other count repeats exactly.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["fleet_paced", "fleet_saturated", "archive_batch"]
# workload -> counters that legitimately depend on timing. On the open loop
# a drain that overruns the next cohort's arrival scores two cohorts in one
# drain: the same passes then take fewer drains, so fewer pool batches and
# same-shape groups.
TIMING_DEPENDENT = {
    "fleet_paced": {"parallel.batches", "serve.single_core_groups"},
}


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit("selftest: %s run failed (exit %d)"
                 % (workload, proc.returncode))
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = os.path.join(build_root, "perfbench", "records",
                        "%s-seed%d-trace%d.json" % (workload, seed, trace))
    with open(path) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("workloads", nargs="*", default=WORKLOADS)
    args = parser.parse_args()

    ok = True
    for workload in args.workloads:
        plain = run(workload, args.seed, args.seconds, 0)
        traced = run(workload, args.seed, args.seconds, 1)
        allowed = TIMING_DEPENDENT.get(workload, set())
        compared = 0
        for phase, counts in sorted(plain["counters"].items()):
            other = traced["counters"].get(phase, {})
            for name in sorted(set(counts) | set(other)):
                a, b = counts.get(name, 0), other.get(name, 0)
                compared += 1
                if a == b:
                    continue
                kind = "timing-dependent" if name in allowed else "MISMATCH"
                print("%s %s/%s: %d vs %d (%s)"
                      % (workload, phase, name, a, b, kind))
                ok = ok and name in allowed
        print("%s: %d counts compared across two seed-%d runs"
              % (workload, compared, args.seed))
        for name, m in sorted(plain["end_to_end"].items()):
            if m["timing"] != 0 and m["raw"]:
                over = traced["end_to_end"][name]["raw"] / m["raw"] - 1.0
                if m["timing"] < 0:
                    over = m["raw"] / traced["end_to_end"][name]["raw"] - 1.0
                print("  tracing overhead %-20s %+.1f%% (one pair; raw)"
                      % (name, 100.0 * over))
    print("selftest " + ("passed" if ok else "FAILED"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
