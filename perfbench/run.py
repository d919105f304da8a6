#!/usr/bin/env python3
"""Builds the simulator and the benchmark from source, then runs one workload.

    python3 perfbench/run.py --workload <dct-local|uniform-heavy|serve-jobs> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. Build output goes to $CARGO_TARGET_DIR
(default .bench_build); results and traces go to perfbench/out/. Any other
arguments are passed to the benchmark binary (see perfbench/src/main.rs).
The last line on stdout is the JSON result; a failed build or run exits
non-zero without printing one.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(env):
    """Builds the benchmark and the `mempool-serve` daemon in release mode."""
    for manifest, extra in (
        ("perfbench/Cargo.toml", []),
        ("Cargo.toml", ["--bin", "mempool-serve"]),
    ):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", manifest, *extra]
        # Cargo's own output goes to stderr; stdout is kept for the result.
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            return False
    return True


def main():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, env["CARGO_TARGET_DIR"])
    if not build(env):
        print("run.py: build failed", file=sys.stderr)
        return 1
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"), *sys.argv[1:],
           "--serve-bin", os.path.join(release, "mempool-serve")]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
