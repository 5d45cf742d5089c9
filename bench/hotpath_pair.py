#!/usr/bin/env python3
"""Measure bench/hotpath for two builds side by side: a change and its parent.

    python3 bench/hotpath_pair.py --parent <hotpath> --change <hotpath> \\
        [--parent-label <rev>] [--change-label <rev>] \\
        [--out BENCH_hotpath.json]

Snapshots of BENCH_hotpath.json recorded at different times cannot be
compared: the host's speed drifts between them by more than most changes
move a probe. So each snapshot carries the parent's figures, measured
alongside the change's. The script runs the two hotpath binaries alternately,
five full runs each (RUNS), switching which side goes first every time
(parent, change, change, parent, ...); every run is itself five rounds
that interleave all seven probes. A slow spell therefore falls on both
sides alike.

The output is the change's last run (its per-phase wall times and memory
marks), with each probe's events_per_sec replaced by the spread over all of
the change's runs, and a "parent" spread beside it measured the same way:
the median of the runs' medians, the lowest min and the highest max. Each
spread also lists every run's median, in the order the runs were made.
Run it from any directory; the binaries write their own files into a
temporary one.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

# Full runs per side. The host's speed can change between runs; with
# three runs a side, one slow or fast spell could set a probe's median.
RUNS = 5


def run_once(binary, workdir, name):
    out = os.path.join(workdir, name + ".json")
    done = subprocess.run([binary, out], cwd=workdir,
                          stdout=subprocess.DEVNULL)
    if done.returncode != 0:
        sys.exit("hotpath_pair: %s exited %d" % (binary, done.returncode))
    with open(out) as f:
        return json.load(f)


def spread(runs, name):
    rates = [next(p for p in run["probes"] if p["name"] == name)
             ["events_per_sec"] for run in runs]
    return {"median": statistics.median(r["median"] for r in rates),
            "min": min(r["min"] for r in rates),
            "max": max(r["max"] for r in rates),
            "run_medians": [r["median"] for r in rates]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--parent-label", default="parent")
    parser.add_argument("--change-label", default="change")
    parser.add_argument("--out", default="BENCH_hotpath.json")
    args = parser.parse_args()

    sides = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as workdir:
        for i in range(RUNS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                binary = os.path.abspath(getattr(args, side))
                print("run %d of %d: %s" % (i + 1, RUNS, side),
                      file=sys.stderr)
                sides[side].append(run_once(binary, workdir,
                                            "%s%d" % (side, i)))

    result = sides["change"][-1]
    result["runs_per_side"] = RUNS
    result["parent_label"] = args.parent_label
    result["change_label"] = args.change_label
    for probe in result["probes"]:
        probe["events_per_sec"] = spread(sides["change"], probe["name"])
        probe["parent"] = {"events_per_sec":
                           spread(sides["parent"], probe["name"])}
        change = probe["events_per_sec"]["median"]
        parent = probe["parent"]["events_per_sec"]["median"]
        print("%-16s parent %12.0f  change %12.0f  (%+.1f%%)"
              % (probe["name"], parent, change, 100 * (change / parent - 1)))
    with open(args.out, "w") as f:
        json.dump(result, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    main()
