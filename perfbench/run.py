#!/usr/bin/env python3
"""Build the benchmark and run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
                             [--corrupt drop-record|swap-flow|shift-cycle]

Run from the repository root. Builds this directory's cargo package in
release mode into $CARGO_TARGET_DIR (default: .bench_build), with all
build output on stderr, then runs the benchmark binary with the given
arguments. Traced runs write their span log to perfbench/out/. The last
line of stdout is the JSON result; the exit code is the binary's (0 only
when every check passed), or 3 if the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        built = subprocess.run(build, stdout=sys.stderr, env=env).returncode == 0
    except OSError as e:
        sys.stderr.write(f"perfbench: cannot run cargo: {e}\n")
        built = False
    if not built:
        sys.stderr.write("perfbench: build failed\n")
        return 3
    binary = os.path.join(target, "release", "perfbench")
    cmd = [binary, *sys.argv[1:], "--spans-dir", os.path.join(HERE, "out")]
    code = subprocess.run(cmd).returncode
    return code if code >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())
