#!/usr/bin/env bash
# The repository's one benchmark. From the repo root:
#
#   benchmark/run.sh [--seed N] [--quick] [--workload NAME] [--seconds S]
#       builds release, runs every workload (or NAME) untraced then traced,
#       each in a process of its own, prints every metric by name with its
#       unit, runs the correctness gate (non-zero exit on failure) and
#       writes benchmark/out/results.json + benchmark/out/trace-<workload>.json
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run of one workload; the last line of stdout is its result as
#       one JSON object (the form a harness drives; see BENCHMARK.json)
#   benchmark/run.sh compare A.json B.json
#
# See benchmark/README.md.
set -euo pipefail

here="$(dirname "$0")"
# A harness may point CARGO_TARGET_DIR elsewhere; otherwise build inside
# benchmark/ so nothing outside this directory is touched.
target="${CARGO_TARGET_DIR:-$here/target}"

cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2

TEENET_BENCH_OUT="$here/out" exec "$target/release/teenet-benchmark" "$@"
