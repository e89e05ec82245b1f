#!/usr/bin/env python3
"""Builds and runs fsbench, FanStore's training read-path benchmark.

Run from the repository root:

    python3 fsbench/run.py --workload epoch_cold --seed 1 --seconds 50 --trace 0

The first run configures and builds fsbench/ (which compiles ../src) into
.bench_build/fsbench; later runs rebuild incrementally. Build output goes to
stderr. Standard output carries the benchmark's header line and, last, one
JSON result line. With --trace 1 the spans of the traced half are written to
.bench_build/fsbench/spans-<workload>-seed<seed>.json. The exit status is
the benchmark's: non-zero on a wrong byte, a registry cross-check failure, a
missing source tree or a build error. See fsbench/NOTES.md.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("epoch_warm", "epoch_cold", "socket_warm")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "fsbench")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"fsbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_rev():
    """git revision when available, plus a digest of the sources built."""
    digest = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    rev = "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            rev = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return f"{rev}+src:{digest.hexdigest()[:12]}"


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"FanStore sources not found under {ROOT}/src")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "fsbench", "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    cmd = [os.path.join(BUILD_DIR, "fsbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--rev", source_rev()]
    if args.trace:
        cmd += ["--spans", os.path.join(BUILD_DIR,
                                        f"spans-{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    for line in lines:
        print(line)
    if proc.returncode != 0:
        fail(f"benchmark exited with status {proc.returncode}", proc.returncode)
    result = json.loads(lines[-1]) if lines else {}
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("benchmark printed no result line", 1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
