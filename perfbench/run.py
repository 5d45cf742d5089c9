#!/usr/bin/env python3
"""Run one workload of the odbgc benchmark and print its result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree. The script builds the library and the
harness (perfbench/main.cc) from source into .bench_build/perfbench, runs the
workload, and prints one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`attempted` counts simulations (grid cells or tenants) run; `failed` counts
those that returned an error or failed an output check, including a digest
that differs from the one perfbench/workloads.json records for the default
seed.

With --trace 0 the harness is started again and again, each time in a fresh
process, for as many repetitions as fit in --seconds (judged by the
repetitions so far; there is always at least one); repetition k replays the
workload at seed + 1000 * k. alloc_mb_per_s is the application allocation
(megabytes) all repetitions replayed over the seconds they spent replaying
it, tenant_done_s_p50/p68 are percentiles of the completion times of all
their simulations, and every other metric of BENCHMARK.json's end_to_end list
is the median over the repetitions. Fresh processes give each repetition its
own memory layout, so one unlucky layout does not set a whole run's number.
With --trace 1 the harness runs once and reports the per_layer list.

Each run's report (environment, checks, digests, every metric of every
repetition) and, when traced, its spans (Chrome trace-event JSON) are kept
under .bench_build/perfbench/results.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD_DIR, "odbgc_perfbench")
SEED_STRIDE = 1000
# One repetition takes well under a minute; the whole run, whose last
# repetition starts before --seconds (at most a minute) have passed, must end
# within three.
HARNESS_TIMEOUT_S = 100


def nearest_rank(values, p):
    """The smallest of `values` with at least a share p of them at or below."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p * len(ordered))) - 1]


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no odbgc sources (src/CMakeLists.txt) next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if (not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt"))
            and shutil.which("ninja") is not None):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for command in (configure,
                    ["cmake", "--build", BUILD_DIR, "--target",
                     "odbgc_perfbench", "-j", jobs]):
        done = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(command))


def run_harness(workload, seed, trace, stem):
    results_dir = os.path.join(BUILD_DIR, "results")
    work_dir = os.path.join(BUILD_DIR, "work")
    os.makedirs(results_dir, exist_ok=True)
    os.makedirs(work_dir, exist_ok=True)
    report_path = os.path.join(results_dir, stem + ".json")
    if os.path.exists(report_path):
        os.remove(report_path)
    command = [HARNESS, "--workload", workload, "--seed", str(seed),
               "--trace", str(trace), "--work-dir", work_dir,
               "--report", report_path]
    if trace:
        command += ["--spans", os.path.join(results_dir, stem + "-spans.json")]
    try:
        done = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("harness timed out")
    if done.returncode != 0:
        fail("harness exited with %d" % done.returncode)
    with open(report_path) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "workloads.json")) as f:
        recorded = json.load(f)
    if args.workload not in recorded["workloads"]:
        fail("unknown workload " + args.workload)

    build()

    stem = "%s-s%d-trace%d" % (args.workload, args.seed, args.trace)
    reports = []
    start = time.monotonic()
    while True:
        seed = args.seed + SEED_STRIDE * len(reports)
        reports.append(run_harness(args.workload, seed, args.trace,
                                  "%s-rep%d" % (stem, len(reports))))
        # Start another repetition only if one as long as the average so
        # far still ends within the run's time.
        average = (time.monotonic() - start) / len(reports)
        if args.trace or average * (len(reports) + 1) > args.seconds:
            break

    attempted = sum(r["sims_attempted"] for r in reports)
    failed = sum(r["sims_failed"] for r in reports)
    checks_ok = all(r["checks_ok"] for r in reports)

    # The default seed's digests must match what this tree simulates.
    mismatched = []
    if args.seed == recorded["default_seed"]:
        expected = recorded["workloads"][args.workload]["digests"]
        actual = reports[0]["digests"]
        mismatched = sorted(name for name, digest in expected.items()
                            if actual.get(name) != digest)
        if mismatched:
            print("perfbench: digests differ from workloads.json for: "
                  + ", ".join(mismatched), file=sys.stderr)
            failed += len(mismatched)
    failed = min(failed, attempted)

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {}
    for entry in wanted:
        values = []
        for report in reports:
            measured = report["metrics"].get(entry["name"])
            if measured is None or measured["unit"] != entry["unit"]:
                fail("harness did not report %s in %s"
                     % (entry["name"], entry["unit"]))
            values.append(measured["value"])
        metrics[entry["name"]] = {"value": statistics.median(values),
                                  "unit": entry["unit"]}
    if not args.trace:
        # Over the whole run rather than per repetition: the host's speed
        # drifts over tens of seconds, and every second of the run counts
        # the same.
        timed_s = sum(r["timed_s"] for r in reports)
        done_s = [s for r in reports for s in r["done_s"]]
        if timed_s <= 0 or not done_s:
            fail("no timed phase")
        metrics["alloc_mb_per_s"]["value"] = (
            sum(r["allocated_mb"] for r in reports) / timed_s)
        for name, p in (("tenant_done_s_p50", 0.50),
                        ("tenant_done_s_p68", 0.68)):
            metrics[name]["value"] = nearest_rank(done_s, p)

    summary = {"workload": args.workload, "seed": args.seed,
               "trace": args.trace, "repetitions": len(reports),
               "environment": reports[0]["env"], "metrics": metrics,
               "reports": reports}
    with open(os.path.join(BUILD_DIR, "results", stem + ".json"), "w") as f:
        json.dump(summary, f, indent=1, sort_keys=True)
    print("environment: " + json.dumps(reports[0]["env"], sort_keys=True))
    correct = checks_ok and failed == 0 and attempted >= 1
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
