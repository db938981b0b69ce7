#!/usr/bin/env python3
"""Builds the benchmark from source, then runs one workload.

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 20 --trace 0

Run from the repository root. The build goes to .bench_build/ (or to
$CARGO_TARGET_DIR when set) as a Release build of perfbench/CMakeLists.txt,
which compiles the webtx library from ../src. The last line of stdout is
the JSON result the benchmark binary prints; everything before it is
commentary. Exits non-zero, without a result line, if the build or the
run fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("paper_sweep", "huge_workflow", "twin_onoff")
RUN_TIMEOUT_S = 170


def source_rev():
    """The git revision when the checkout is a git repository, else a
    digest of the tracked source files, so every result names the code
    it measured."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10)
        lines = rev.stdout.split()
        if (rev.returncode == 0 and len(lines) == 2
                and os.path.realpath(lines[0]) == os.path.realpath(ROOT)):
            return "git:" + lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def build(build_dir):
    """Configures and builds the benchmark; output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no program sources next to perfbench/",
              file=sys.stderr)
        return 1
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    print("# source %s" % source_rev(), flush=True)
    binary = os.path.join(build_dir, "perfbench")
    try:
        done = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write("\n".join("# " + l for l in lines) + "\n")
        print("perfbench: run failed (exit %d)" % done.returncode,
              file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
