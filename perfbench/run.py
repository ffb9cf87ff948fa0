#!/usr/bin/env python3
"""Builds the server and the load generator from source, then runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 8 --trace 0

Build output goes to stderr; the last line of stdout is the JSON result.
Builds land in $CARGO_TARGET_DIR (default .bench_build); traced runs write
their spans under <target dir>/perfbench-trace/.
"""

import os
import subprocess
import sys


def main() -> int:
    if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates/cli")):
        print("perfbench: run from the repository root (crates/cli not found)", file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "streamcolor-cli", "--bin", "streamcolor"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for cmd in builds:
        built = subprocess.run(cmd, env=env, stdout=sys.stderr)
        if built.returncode != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return built.returncode
    release = os.path.join(target, "release")
    bench = os.path.join(release, "perfbench")
    args = sys.argv[1:] + [
        "--server", os.path.join(release, "streamcolor"),
        "--trace-dir", os.path.join(target, "perfbench-trace"),
    ]
    sys.stdout.flush()
    return subprocess.run([bench] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
