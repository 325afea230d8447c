#!/usr/bin/env python3
"""Serving benchmark of the bench-scale DOT oracle.

Run from the repository root:

    python3 perfbench/run.py --workload cold|hot|adapt --seed N \
        --seconds S --trace 0|1

Builds the benchmark binary from source into .bench_build (the first run
also trains and seals the oracle checkpoint once, under
.bench_build/cache), runs one workload, and prints the result JSON object
as the last line of standard output. Full results, and for traced runs the
per-layer table and chrome trace, are written to .bench_build/results.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
BINARY = os.path.join(BUILD_DIR, "perfbench_oracle")
# Limits that keep a first run (configure, build, train) under 15 minutes
# and a measured run under 3.
CONFIGURE_TIMEOUT_S = 60
BUILD_TIMEOUT_S = 300
PREPARE_TIMEOUT_S = 360
RUN_TIMEOUT_S = 160


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_quiet(cmd, timeout):
    """Runs a command with its output sent to stderr; True on success."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(cmd)}")
        return False
    return done.returncode == 0


def source_id(root):
    """git sha of the checkout, or a hash of the sources the binary uses."""
    if os.path.exists(os.path.join(root, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                 capture_output=True, text=True, timeout=10)
            if sha.returncode == 0 and sha.stdout.strip():
                return sha.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "tree-" + digest.hexdigest()[:16]


def build(root):
    """Configures (once) and builds the benchmark binary."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"], CONFIGURE_TIMEOUT_S):
            return False
    return run_quiet(["cmake", "--build", BUILD_DIR, "--target",
                      "perfbench_oracle", "-j", jobs], BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["cold", "hot", "adapt"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    for needed in ("CMakeLists.txt", os.path.join("src", "serve", "server.h")):
        if not os.path.exists(needed):
            log(f"{needed} is missing: run from a full source checkout")
            return 1

    if not build(root):
        log("build failed")
        return 1
    cache = os.path.join(BUILD_DIR, "cache")
    if not run_quiet([BINARY, "--prepare", "--cache", cache],
                     PREPARE_TIMEOUT_S):
        log("checkpoint preparation failed")
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--cache", cache, "--out", os.path.join(BUILD_DIR, "results"),
           "--source", source_id(root)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log("benchmark run timed out")
        return 1
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log(f"benchmark exited with {done.returncode}")
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"unparsable result line: {lines[-1]!r}")
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
