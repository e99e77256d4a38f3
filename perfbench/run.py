#!/usr/bin/env python3
"""Builds and runs the SemTree benchmark.

    python3 perfbench/run.py --workload semtree-zipf --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload

Run from the repository root. The first run configures and builds
perfbench/ (and with it the library under src/) into .bench_build/;
later runs rebuild incrementally. Each run prints one JSON object as its
last stdout line: correct, attempted, failed, and the metrics
BENCHMARK.json names (end_to_end with --trace 0, per_layer with
--trace 1). The full result, with the workload-specific figures, is kept
in .bench_build/results/<workload>-seed<N>.json (untraced) or
-layers.json plus -spans.csv (traced). Exit status is non-zero on a
build failure, a wrong answer or a missing metric.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(ROOT, ".bench_build", "results")
WORKLOADS = ["semtree-zipf", "kdtree-rw", "requirements"]
# A run measures --seconds and then checks, sweeps and (traced) probes;
# none takes longer than this.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "query_engine.h")):
        fail("no SemTree sources under %s/src; run from a full checkout" % ROOT)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j4", "--target", "perfbench"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def run_one(spec, workload, seed, seconds, trace):
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out-dir", RESULTS]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("%s printed no result (exit %d)" % (workload, done.returncode))
    full = json.loads(lines[-1])
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = full["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail("%s did not report %s in %s" % (workload, m["name"], m["unit"]))
        metrics[m["name"]] = got
    extra = {k: v for k, v in full["metrics"].items() if k not in metrics}
    print("%s seed %d: %s" % (workload, seed,
          ", ".join("%s=%.6g%s" % (k, v["value"], v["unit"])
                    for k, v in extra.items())), file=sys.stderr)
    for mismatch in full.get("first_mismatches", []):
        print("%s: wrong answer: %s" % (workload, mismatch), file=sys.stderr)
    print(json.dumps({"correct": full["correct"],
                      "attempted": full["attempted"],
                      "failed": full["failed"],
                      "metrics": metrics}), flush=True)
    return done.returncode == 0 and full["correct"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds within 1..60")

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("no BENCHMARK.json at " + ROOT)
    with open(spec_path) as f:
        spec = json.load(f)
    build()
    os.makedirs(RESULTS, exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    ok = True
    for w in workloads:
        ok = run_one(spec, w, args.seed, args.seconds, args.trace) and ok
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
