#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The benchmark is built with
`cargo build --release --offline` into `$CARGO_TARGET_DIR` (default
`.bench_build` at the checkout root); build output goes to stderr, and
the benchmark's own result line is the last line of stdout. Exits non-zero
without a result when the library crates are missing or the build fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
LIBRARIES = ("crates/campaign", "crates/fleet", "crates/obs", "crates/exec", "crates/testbed")


def main():
    missing = [p for p in LIBRARIES if not os.path.isfile(os.path.join(ROOT, p, "Cargo.toml"))]
    if missing:
        print(f"perfbench: library crates missing from {ROOT}: {', '.join(missing)}",
              file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "lazyeye-perfbench")
    return subprocess.run([binary, *sys.argv[1:]], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
