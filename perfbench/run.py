#!/usr/bin/env python3
"""Build and run the PredictDDL serving benchmark on the checkout it sits in.

    python3 perfbench/run.py --workload hot_repeat --seed 1 --seconds 10 --trace 0

Configures and builds perfbench/ (which compiles ../src) into
.bench_build/perfbench under the checkout root, then runs the benchmark
binary.  Build output goes to stderr; the binary's stdout is passed through,
so the last stdout line is the JSON result.  Exits non-zero without a result
when the sources are missing, the build fails, or the run fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("hot_repeat", "cold_miss", "rank_batch")
# The predictor is trained from scratch every run from this seed; --seed
# drives the traffic (cluster sizes, request order, shares, noise).
TRAIN_SEED = 1
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no PredictDDL sources under %s/src" % ROOT)
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs,
                    "--target", "perfbench"], check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "perfbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: %s" % e)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--train-seed", str(TRAIN_SEED),
           "--trace-dir", os.path.join(BUILD, "traces")]
    try:
        rc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(rc)


if __name__ == "__main__":
    main()
