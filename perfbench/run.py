#!/usr/bin/env python3
"""Builds and runs the apspark end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload cb-uniform --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Run from the repository root. The first run configures and builds the
library and the perfbench binary under $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); later runs only rebuild what changed. Each workload
runs in a fresh process. The last stdout line is the JSON result; with
--trace 1 the Chrome-trace file goes to <build dir>/traces/<workload>.json.
The exit code is non-zero when the build fails or any answer is wrong.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["cb-uniform", "fw2d-zipf", "kssp-shuffle"]
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(out_dir):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("perfbench: no apspark sources next to " + HERE)
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout ends with the JSON result.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(step))
    return os.path.join(out_dir, "perfbench")


def run_one(binary, out_dir, workload, args, capture):
    work_dir = os.path.join(out_dir, "work-%d-%s" % (os.getpid(), workload))
    command = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    if args.trace:
        os.makedirs(os.path.join(out_dir, "traces"), exist_ok=True)
        command += ["--trace-out",
                    os.path.join(out_dir, "traces", workload + ".json")]
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out" % workload, file=sys.stderr)
        return 1, None
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if not capture:
        return done.returncode, None
    sys.stdout.write(done.stdout)
    lines = done.stdout.strip().splitlines()
    try:
        return done.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        return done.returncode or 1, None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    if args.workload != "all":
        code, _ = run_one(binary, out_dir, args.workload, args, False)
        return code

    # Every workload in its own process, then one summary table.
    status = 0
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        code, result = run_one(binary, out_dir, workload, args, True)
        if code != 0 or result is None:
            status = 1
            summary["correct"] = False
            continue
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][workload + "." + name] = metric
    print("\n%-14s %-30s %20s %s" % ("workload", "metric", "value", "unit"))
    for key, metric in summary["metrics"].items():
        workload, name = key.split(".", 1)
        print("%-14s %-30s %20.6f %s" % (workload, name, metric["value"],
                                         metric["unit"]))
    print(json.dumps(summary))
    return status


if __name__ == "__main__":
    sys.exit(main())
