#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload app-amortize --seed 1 \
        --seconds 45 --trace 0

Builds the `perfbench` program (and the library it links, from ../src)
into `.bench_build/` at the repository root, then runs one workload.
Build output goes to stderr, so the last line of stdout is the
program's one-line JSON result.  `--tiny` shrinks every input (used by
`selftest.py`).  Exits non-zero, without a result, when the build or
the run fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            sys.exit("run.py: build step failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    build()
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", WORK,
           "--benchmark", os.path.join(ROOT, "BENCHMARK.json")]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("run.py: %s did not finish within %d s"
                 % (args.workload, RUN_TIMEOUT_S))
    sys.exit(code)


if __name__ == "__main__":
    main()
