#!/usr/bin/env bash
# Builds the benchmark in release (offline) and runs it from the root of
# the checkout.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--smoke] [--sets K]
#       the whole suite: five workloads untraced, then traced, with
#       correctness checks; prints every metric and writes
#       benchmark/out/results.json
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one run, as the benchmark driver starts it
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# Cargo resolves a relative CARGO_TARGET_DIR against the directory it is
# started from, which is the checkout root here.
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml \
    --target-dir "$target" >&2

BENCH_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"
BENCH_GIT_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
export BENCH_RUSTC BENCH_GIT_COMMIT

exec "$target/release/uvpu-benchmark" "$@"
