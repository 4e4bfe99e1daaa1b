#!/usr/bin/env bash
# Write every output that a CI cmp gate checks into OUTDIR, so two builds
# (say, a parent commit and a change) can be compared with one `diff -r`:
#
#   tools/gate_outputs.sh OUTDIR [BUILD_DIR]
#   diff -r parent-gates change-gates
#
# BUILD_DIR defaults to ./build and must hold the tools, the examples and the
# message-plane and scheduler benches. Every output here is deterministic for
# a given build; a byte difference is a behaviour change.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  echo "usage: $0 OUTDIR [BUILD_DIR]" >&2
  exit 2
fi
out=$1
build=${2:-build}
mkdir -p "$out"
out=$(cd "$out" && pwd)
tools="$build/tools"

# Chaos sweeps (smoke sweep and the serial side of the --jobs merge gate).
"$tools/chaos_runner" --seeds 25 --transitions 6 > "$out/chaos-25x6.txt"
"$tools/chaos_runner" --seeds 10 --transitions 2 > "$out/chaos-10x2.txt"

# Fault-simulation coverage sweep: stdout and the JSON report.
"$tools/chaos_runner" --coverage-sweep --quick \
  --coverage-out "$out/coverage.json" > "$out/sweep.txt"

# Load ramp curve.
"$tools/load_runner" --seed 11 --clients 10 \
  --rps-from 60 --rps-to 180 --steps 3 --warmup 1 --window 3 \
  --out "$out/curve.jsonl" > /dev/null

# Adaptation-under-load scenario: stdout, trace and metrics.
"$tools/load_runner" --scenario adapt --seed 1 \
  --trace-out "$out/adapt-trace.json" \
  --metrics-out "$out/adapt-metrics.jsonl" > "$out/adapt-load.txt"

# Traced transition campaign.
"$tools/chaos_runner" --replay 3 --ftm PBR --delta on --transition-to LFR \
  --trace-out "$out/trace.json" --metrics-out "$out/trace-metrics.jsonl" \
  > /dev/null

# Bench counted fields.
"$build/bench/bench_message_plane" --quick > "$out/message-plane.jsonl"
"$build/bench/bench_scheduler" --quick > "$out/scheduler.jsonl"

# The five examples.
for example in quickstart replica_group satellite_mission automotive_ota \
               custom_ftm; do
  "$build/examples/$example" > "$out/example-$example.txt"
done

echo "gate outputs written to $out"
