#!/usr/bin/env python3
"""Build and run the dohbench end-to-end benchmark.

Run from the repository root:

    python3 dohbench/run.py --workload warm_stream --seed 1 --seconds 10 --trace 0

The first call configures and builds dohbench (Release) from the sources in
src/ into .bench_build/dohbench; later calls only rebuild what changed. The
benchmark's output passes through unchanged, so the last line of stdout is
its JSON result. Build output goes to stderr. Each run also writes its
dohperf-bench-v1 report (and, with --trace 1, its span file) under
.bench_build/results/; two reports diff with tools/perf_compare.

Exits non-zero, without printing a result, if the sources are missing or
the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("warm_stream", "fresh_connection", "page_load", "tier_overload")


def build(source_dir, build_dir):
    """Configure (once) and build the dohbench target; returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", source_dir, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr,
                       stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "dohbench",
                    "-j", jobs], check=True, stdout=sys.stderr,
                   stderr=sys.stderr)
    return os.path.join(build_dir, "dohbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    source_dir = os.path.join(root, "dohbench")
    build_root = os.path.join(root, ".bench_build")
    try:
        binary = build(source_dir, os.path.join(build_root, "dohbench"))
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"dohbench: build failed: {err}", file=sys.stderr)
        return 1

    results = os.path.join(build_root, "results")
    os.makedirs(results, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--json", os.path.join(results, stem + ".json")]
    if args.trace:
        command += ["--spans", os.path.join(results, stem + "-spans.json")]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
