#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload present-pfa --seed 1 --seconds 10 --trace 0

Builds perfbench/ (which builds the core library from src/) in
$CARGO_TARGET_DIR, or .bench_build when that is unset, then runs one
workload and relays its output; the last line is the JSON result. Build
output goes to stderr. The exit status is the benchmark's: 0 only when
every correctness check held.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("present-pfa", "aes-defences", "daemon-sweeps")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--workers", type=int, default=0,
                        help="closed-loop workers (default min(nproc, 4))")
    args = parser.parse_args()

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        sys.exit("perfbench: run from the root of a full checkout "
                 "(CMakeLists.txt and src/ are missing here)")

    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    jobs = str(os.cpu_count() or 1)
    steps = [["cmake", "--build", build, "-j", jobs, "--target", "perfbench"]]
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        # Later builds re-configure by themselves when a CMakeLists changes.
        steps.insert(0, ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(step))

    command = [os.path.join(build, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workers", str(args.workers),
               "--scratch", os.path.join(build, "scratch")]
    sys.stdout.flush()
    sys.exit(subprocess.run(command).returncode)


if __name__ == "__main__":
    main()
