#!/usr/bin/env python3
"""Build and run the ABG simulator benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload fig6-sets --seed 1 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds libabg from ./src plus the benchmark in
perfbench/src (Release) under .bench_build/perfbench; later calls only
re-check the build.  Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result.  See perfbench/README.md.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
SCRATCH = ROOT / ".bench_build" / "scratch"
BINARY = BUILD / "abg_perfbench"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no library sources at src/ — run from a full "
                 "checkout of the repository")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target", "abg_perfbench",
                  "-j", jobs])
    for cmd in steps:
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                check=False)
        if result.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")


def revision():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for base in (ROOT / "src", BENCH):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    build()
    SCRATCH.mkdir(parents=True, exist_ok=True)
    common = ["--revision", revision(), "--scratch", str(SCRATCH),
              "--digests", str(BENCH / "expected_digests.txt")]
    if args.self_test:
        cmd = [str(BINARY), "--self-test"] + common
    else:
        cmd = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace] + common
    sys.stdout.flush()
    return subprocess.run(cmd, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
