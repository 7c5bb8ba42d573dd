#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <fleet_oltp|online_drift|tune_banking>
                             [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root. It builds the `perfbench` package (release,
offline) into $CARGO_TARGET_DIR, or `.bench_build` when that is unset, then
runs the binary with the same arguments. The binary's standard output passes
through unchanged, so its last line is the JSON result; build output goes to
standard error. The exit code is the binary's (1 when an output check
failed), or non-zero without a result when the build fails.
"""

import os
import subprocess
import sys

RUN_TIMEOUT_S = 175


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(here, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    try:
        run = subprocess.run([binary, *sys.argv[1:]], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 124
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
