#!/usr/bin/env python3
"""Build the benchmark program from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload functional --seed 1 --seconds 16 --trace 0

The program's standard output is passed through: a host line, then, as the
last line, the JSON result.  Build output goes to standard error.  The exit
code is the program's (1 when a verdict is wrong), or the build's when the
build fails.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["functional", "extraction", "stimuli", "service"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def commit(env):
    """The checked-out commit, or "unknown" outside a git work tree."""
    ceiling = os.path.dirname(os.getcwd())
    try:
        r = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            env=dict(env, GIT_CEILING_DIRECTORIES=ceiling),
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    # the shared dune cache lives outside the checkout; keep every write
    # inside it
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        built = subprocess.run(
            ["dune", "build", "--root", ".", "--build-dir", build_dir,
             "--profile", "release", "./perfbench/main.exe"],
            stdout=sys.stderr,
            env=env,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode

    exe = os.path.join(build_dir, "default", "perfbench", "main.exe")
    env["PERFBENCH_COMMIT"] = commit(env)
    env["PERFBENCH_TMP"] = build_dir
    try:
        ran = subprocess.run(
            [exe, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env=env,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
