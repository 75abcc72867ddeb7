#!/usr/bin/env python3
"""End-to-end benchmark of the TriAD program: one command, three workloads.

    python3 perfbench/run.py --workload fleet_paced --seed 1 --seconds 30 --trace 0

Run from the repository root. The first run configures and builds the
program from source (CMake, Release) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later runs reuse the
build. The last line of stdout is the result:

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (and writes the span log next to the build). The exit code
is nonzero when an output check fails. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
# Workload -> lanes: the program's pool size, the CPUs the run is pinned to
# and the threads the host-speed index samples on.
WORKLOADS = {"fleet_paced": 2, "fleet_saturated": 2, "archive_batch": 1}


def run_timeout(seconds):
    """Backstop for a workload that hangs. The fixed-work workloads stop
    starting new work at twice --seconds into their measured phase, so a
    slow program still reports its figures before this; 170 s at the
    30 s runs BENCHMARK.json asks for."""
    return 50 + 4 * seconds


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def refuse_knobs():
    knobs = sorted(k for k in os.environ
                   if k.startswith("TRIAD_") and k != "TRIAD_NUM_THREADS")
    if knobs:
        fail("refusing to run with program knobs set: " + ", ".join(knobs)
             + " (the benchmark measures the default configuration)")


def build(build_dir):
    src = os.path.join(ROOT, "src", "CMakeLists.txt")
    if not os.path.isfile(src):
        fail("program sources not found under " + os.path.join(ROOT, "src")
             + "; run from the repository root")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    binary = os.path.join(build_dir, "triad_perfbench")
    log = sys.stderr
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        os.makedirs(build_dir, exist_ok=True)
        rc = subprocess.call(
            ["cmake", "-S", BENCH_DIR, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"], stdout=log, stderr=log)
        if rc != 0:
            fail("configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    rc = subprocess.call(
        ["cmake", "--build", build_dir, "-j", jobs, "--target",
         "triad_perfbench"], stdout=log, stderr=log)
    if rc != 0 or not os.path.isfile(binary):
        fail("build failed")
    return binary


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    refuse_knobs()
    spec = load_spec()
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(build_root, "perfbench"))
    binary = build(build_dir)

    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    state_dir = os.path.join(build_dir, "state", "%s-%d" % (tag, os.getpid()))
    out_dir = os.path.join(build_dir, "records")
    os.makedirs(out_dir, exist_ok=True)
    span_path = os.path.join(out_dir, tag + ".spans.jsonl")
    shutil.rmtree(state_dir, ignore_errors=True)

    lanes = WORKLOADS[args.workload]
    env = {k: v for k, v in os.environ.items() if not k.startswith("TRIAD_")}
    env["TRIAD_NUM_THREADS"] = str(lanes)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--lanes", str(lanes), "--state-dir", state_dir]
    if args.trace:
        cmd += ["--trace-out", span_path]
    # Pin the workload to its lanes' worth of CPUs (the highest-numbered
    # ones allowed), so the host-speed samples run on the cores the work
    # runs on.
    allowed = sorted(os.sched_getaffinity(0))
    cpus = set(allowed[-lanes:])
    timeout = run_timeout(args.seconds)
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              timeout=timeout, text=True,
                              preexec_fn=lambda: os.sched_setaffinity(0, cpus))
    except subprocess.TimeoutExpired:
        fail("workload timed out after %d s" % timeout, 3)
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        fail("workload exited with code %d" % proc.returncode, 3)
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("workload printed no record", 3)
    record["wall_s"] = wall
    with open(os.path.join(out_dir, tag + ".json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = record["per_layer"] if args.trace else record["end_to_end"]
    metrics = {}
    print("workload %s  seed %d  lanes %d  nproc %s  simd %s  build %s"
          % (args.workload, args.seed, record["lanes"],
             record["notes"].get("nproc"), record["notes"].get("simd"),
             record["notes"].get("build")))
    speed = record["speed"]
    print("host speed index %.4f (median sample %.2f us over %d samples, "
          "reference %.2f us)" % (
              speed["index"], speed["median_us"], speed["samples"],
              speed["reference_us"]))
    for m in wanted:
        got = source.get(m["name"])
        value = 0.0 if got is None else got["value"]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        raw = "" if got is None or got["timing"] == 0 else \
            "   (raw %.6g)" % got["raw"]
        print("  %-36s %14.6g %-9s%s" % (m["name"], value, m["unit"], raw))
    if args.trace:
        # Timings of layers only some workloads reach (serve, streaming),
        # and per-span self times: in the record and here, not in the
        # result line, which holds what every workload measures.
        listed = {m["name"] for m in wanted}
        for name, got in sorted(source.items()):
            if name not in listed:
                print("  %-36s %14.6g %-9s(record only)"
                      % (name, got["value"], got["unit"]))
    for key in sorted(record["notes"]):
        if key not in ("nproc", "simd", "build"):
            print("  note %s = %s" % (key, record["notes"][key]))
    for problem in record["mismatches"]:
        print("MISMATCH: " + problem)
    if args.trace:
        print("span log: " + span_path)
    correct = not record["mismatches"]
    print(json.dumps({"correct": correct,
                      "attempted": int(record["attempted"]),
                      "failed": int(record["failed"]),
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
