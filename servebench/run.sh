#!/usr/bin/env bash
# Builds the serving benchmark from this checkout's sources and runs it:
#
#   bash servebench/run.sh --workload hot-multi --seed 1 --seconds 20 --trace 0
#
# Run from the checkout's root. Build output goes to stderr, so the last
# stdout line is the benchmark's JSON result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}/servebench"
cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" -j "$(nproc)" >&2
"$build/servebench_selfcheck" >&2
exec "$build/servebench" "$@"
