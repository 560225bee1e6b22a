#!/usr/bin/env python3
"""Build klebsim's end-to-end benchmark from this checkout and run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout.  The program (src/) and the benchmark
binary are built with CMake under $CARGO_TARGET_DIR (default .bench_build).
The binary prints its metrics, the last line one JSON object; see
perfbench/NOTES.md.  Exits nonzero, printing no result, when the
build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Set-up-only launches made before the measured one; setup_s is the
# median of their set-up times and the measured launch's own.
SETUP_LAUNCHES = 10


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure and build incrementally; returns the build dir.  CMake
    refuses a build dir configured from another checkout's sources."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no program sources in {ROOT / 'src'}")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (ROOT / target / "perfbench").resolve()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(HERE), "-B", str(build_dir),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(build_dir), "-j", jobs]]
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return build_dir


def selftest(build_dir):
    """The benchmark's arithmetic self-checks, and BENCHMARK.json agreeing
    with the metrics the binary prints."""
    if subprocess.run([str(build_dir / "perfbench_selftest")]).returncode:
        fail("selftest failed")
    listed = subprocess.run([str(build_dir / "perfbench"), "--list-metrics"],
                            capture_output=True, text=True, check=True)
    printed = [tuple(line.split()) for line in listed.stdout.splitlines()]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [(kind, m["name"], m["unit"])
                for kind in ("end_to_end", "per_layer") for m in spec[kind]]
    if printed != declared:
        fail("BENCHMARK.json metrics differ from the binary's")
    print("perfbench: BENCHMARK.json matches the binary's metrics")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="42")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        fail("--workload is required")

    build_dir = build()
    if args.selftest:
        selftest(build_dir)
        return 0

    binary = str(build_dir / "perfbench")
    common = ["--workload", args.workload, "--seed", args.seed,
              "--golden-dir", str(HERE / "golden"),
              "--out-dir", str(build_dir / "out")]
    setups = []
    for _ in range(SETUP_LAUNCHES):
        spawned = time.monotonic_ns()
        done = subprocess.run(
            [binary, *common, "--setup-only", "--spawn-ns", str(spawned)],
            capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            fail("set-up failed")
        setups.append(done.stdout.split()[-1])

    spawned = time.monotonic_ns()
    return subprocess.run(
        [binary, *common, "--seconds", args.seconds, "--trace", args.trace,
         "--spawn-ns", str(spawned), "--prior-setups", ",".join(setups)]
    ).returncode


if __name__ == "__main__":
    sys.exit(main())
