#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 e2e_bench/run.py [--log-level LEVEL] --workload NAME --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds the
benchmark (and the repository's libraries it links) in .bench_build/ as an
optimized, unsanitized build; later calls rebuild only what changed. Build
output goes to stderr, so the last line on stdout is the benchmark's JSON
result. With --trace 1 the spans are written as Chrome trace JSON to
.bench_build/traces/<workload>-seed<N>.json.

Workloads: request_path, adapt_churn, fleet_failover, gateway_http (see
e2e_bench/src/workloads.hpp and the header comment of each wl_*.cpp).
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2e_bench")
BINARY = os.path.join(BUILD, "e2e_bench")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release",
         "-DRCS_SANITIZE="],
        ["cmake", "--build", BUILD, "--target", "e2e_bench", "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("e2e_bench: build failed: " + " ".join(step))


def option(args, name):
    if name in args:
        at = args.index(name)
        if at + 1 < len(args):
            return args[at + 1]
    return None


def main():
    args = sys.argv[1:]
    build()
    if option(args, "--trace") == "1":
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        name = "%s-seed%s.json" % (option(args, "--workload"),
                                   option(args, "--seed"))
        args += ["--trace-out", os.path.join(traces, name)]
    sys.stdout.flush()
    return subprocess.run([BINARY] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
