#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload lookup|scan|ingest --seed N \
        --seconds S --trace 0|1

It compiles the pinot library and the benchmark program from source into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload, and passes the program's output through. The last line of standard
output is the run's JSON result. A traced run (--trace 1) also writes its
spans to spans/<workload>-seed<N>.jsonl in the build directory.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("lookup", "scan", "ingest")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
BUILD_JOBS = "4"


def fail(message, code):
    print("perfbench: " + message, file=sys.stderr)
    return code


def build(build_dir):
    """Configures (once) and builds the program; returns its path or None."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", "perfbench", "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            return None
    compile_cmd = ["cmake", "--build", build_dir, "--target", "perfbench",
                   "-j", BUILD_JOBS]
    if subprocess.run(compile_cmd, stdout=sys.stderr,
                      timeout=BUILD_TIMEOUT_S).returncode != 0:
        return None
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")
            and os.path.isfile(os.path.join("perfbench", "CMakeLists.txt"))):
        return fail("run from the repository root: the program's sources "
                    "(CMakeLists.txt, src/) are not here", 2)

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR")
                             or ".bench_build", "perfbench")
    try:
        binary = build(build_dir)
    except subprocess.TimeoutExpired:
        return fail("build timed out", 3)
    if binary is None:
        return fail("build failed", 3)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans", os.path.join(
            spans_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("run timed out after %ds" % RUN_TIMEOUT_S, 4)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        return fail("program exited with code %d" % run.returncode, 5)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        sys.stderr.write(run.stdout)
        return fail("program printed no result line", 5)
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
