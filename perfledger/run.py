#!/usr/bin/env python3
"""Builds the ledger program and runs one workload of the benchmark.

Run from the root of a checkout:

    python3 perfledger/run.py --workload node_step --seed 1 --seconds 15 --trace 0

The program is built (CMake, Release) from perfledger/ against src/ into
$CARGO_TARGET_DIR, or .bench_build when that is unset; the first run builds,
later runs only check that the build is current. Dumps and checkpoints go
to .bench_out/ and are removed when the run ends; traced runs leave their
chrome trace and per-layer table in .bench_out/trace/. The last line of
standard output is the run's JSON result.

    python3 perfledger/run.py --self-test

builds and runs the benchmark's own tests instead.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build(build_dir, target):
    """Configures (once) and builds `target`; returns the path of the build log."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "ledger-build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", target, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            r = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                               timeout=BUILD_TIMEOUT_S)
            if r.returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("run.py: build step failed: %s\n" % " ".join(cmd))
                sys.exit(2)
    return log_path


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true", help="build and run the tests")
    args = ap.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    out_dir = os.path.join(ROOT, ".bench_out")

    if args.self_test:
        build(build_dir, "ledger_tests")
        exe = os.path.join(build_dir, "ledger_tests")
        sys.exit(subprocess.run([exe], cwd=ROOT).returncode)

    if not args.workload:
        ap.error("--workload is required")
    build(build_dir, "ledger")
    cmd = [os.path.join(build_dir, "ledger"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--out", out_dir]
    sys.stdout.flush()
    try:
        r = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: workload exceeded %d s\n" % RUN_TIMEOUT_S)
        sys.exit(3)
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
