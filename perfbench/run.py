#!/usr/bin/env python3
"""Builds the FS+GAN benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload serve_mix --seed 1 --seconds 44 --trace 0

The binary is built with cargo (offline, release profile) into
``$CARGO_TARGET_DIR``, or ``.bench_build`` under the current directory when
that is unset. Build output goes to standard error; the benchmark's own
standard output, whose last line is the JSON result, passes through
unchanged. The exit code is the benchmark's, or 1 when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "perfbench")
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
