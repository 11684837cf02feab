#!/usr/bin/env python3
"""Builds and runs the RePaGer serving benchmark (perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload cold|reload --seed N \
        --seconds S --trace 0|1

The first run configures and builds perfbench/CMakeLists.txt (the
library from src/ plus the load generator) into .bench_build/perfbench;
later runs rebuild incrementally. Every run first executes the
benchmark's self-tests. The last line of stdout is the result JSON;
build output and the human-readable report go to stderr.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build_dir() -> Path:
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = Path(base)
    if not path.is_absolute():
        path = ROOT / path
    return path / "perfbench"


def run_quiet(cmd) -> bool:
    """Runs a build step with its output sent to stderr."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def keep_temporaries_in(out: Path) -> None:
    """Points TMPDIR (compiler and run temporaries) into the build tree."""
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)


def build(out: Path) -> Path:
    binary = out / "rpg_perfbench"
    if not (out / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        if not run_quiet(["cmake", "-S", str(HERE), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=Release", *generator]):
            sys.exit("perfbench: configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if not run_quiet(["cmake", "--build", str(out), "-j", jobs]):
        sys.exit("perfbench: build failed")
    return binary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["cold", "reload"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    out = build_dir()
    keep_temporaries_in(out)
    binary = build(out)
    if subprocess.run([str(binary), "--self-test"],
                      stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        sys.exit("perfbench: self-test failed")

    tag = f"{args.workload}-{args.seed}-{os.getpid()}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(out / f"run-{tag}")]
    if args.trace:
        cmd += ["--spans", str(out / f"spans-{tag}.json")]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
