#!/usr/bin/env python3
"""Build and run the Runtime benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `aas-perfbench` package in
release mode (into $CARGO_TARGET_DIR, default `.bench_build`), runs it
with the given arguments and passes its output through: a run-record
line, then the result line. Exits non-zero, printing no result, when
the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def tool_output(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    env = dict(os.environ)
    env["PERFBENCH_RUSTC"] = tool_output(["rustc", "--version"])
    env["PERFBENCH_GIT_REV"] = tool_output(
        ["git", "-C", HERE, "rev-parse", "HEAD"])
    binary = os.path.join(target, "release", "aas-perfbench")
    try:
        run = subprocess.run([binary] + sys.argv[1:], stdout=subprocess.PIPE,
                             text=True, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
