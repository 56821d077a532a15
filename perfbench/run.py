#!/usr/bin/env python3
"""camad's end-to-end benchmark: builds perfbench from the checkout's
sources, then runs one workload.

    python3 perfbench/run.py --workload sim_sweep|mc_reach|synth_pareto|serve_mix \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The build goes to .bench_build/perfbench
(configured once, then rebuilt incrementally); build output goes to stderr so
the last stdout line stays the result JSON. With --trace 1 the spans are
written to .bench_build/perfbench-trace-<workload>-<seed>.json.
"""

import argparse
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("sim_sweep", "mc_reach", "synth_pareto", "serve_mix")

BUILD_TIMEOUT_S = 840
# A pass of the schedule takes --seconds plus the three 3 s probes, their
# set-ups and the gates; --trace 1 runs two passes and the serve replay.
PASS_OVERHEAD_S = 45


def build():
    """Configures (first time) and builds perfbench; returns the binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"perfbench: no camad sources under {ROOT}/src")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(step)}")
    return BUILD / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true",
                        help="every activity at self-test size")
    parser.add_argument("--perturb-expected", action="store_true",
                        help="gates compare against wrong expected values")
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in [1, 600]")

    binary = build()
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--root", str(ROOT)]
    if args.trace:
        trace = ROOT / ".bench_build" / (
            f"perfbench-trace-{args.workload}-{args.seed}.json")
        command += ["--trace-out", str(trace)]
    if args.tiny:
        command.append("--tiny")
    if args.perturb_expected:
        command.append("--perturb-expected")
    passes = 2 if args.trace else 1
    timeout = passes * (args.seconds + PASS_OVERHEAD_S) + 20
    # The child inherits stdout; run() waits for it to exit, and on a
    # timeout kills it and waits again before raising.
    try:
        done = subprocess.run(command, timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {timeout} s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
