#!/usr/bin/env python3
"""Build hypersweep and its benchmark from source, then run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the `hypersweep` binary (the
daemon the serve workloads talk to) and the `perfbench` runner in release
mode into $CARGO_TARGET_DIR (default `.bench_build`), then hands over to
the runner, whose last stdout line is the JSON result. Exits non-zero
without printing a result when the build fails.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent


def build(target: Path, args: list) -> None:
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    # Build output goes to stderr: stdout carries only the result line.
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, check=False)
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def main() -> None:
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    if not (ROOT / "Cargo.toml").is_file():
        sys.exit("perfbench: run from the root of a hypersweep checkout")
    build(target, ["-p", "hypersweep-cli"])
    build(target, ["--manifest-path", str(BENCH_DIR / "Cargo.toml")])
    release = target / "release"
    runner = release / "perfbench"
    argv = [str(runner)] + sys.argv[1:] + [
        "--cli", str(release / "hypersweep"),
        "--state-dir", str(target / "perfbench"),
    ]
    os.execv(str(runner), argv)


if __name__ == "__main__":
    main()
