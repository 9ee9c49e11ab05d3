#!/usr/bin/env sh
# The full local CI gate, exactly as a checkout with no network runs it:
# release build, the whole test suite, formatting, and zero-warning lints.
# The test suite runs twice — single-threaded and with a 4-worker host
# pool — because every result is required to be bit-identical regardless
# of the UVPU_THREADS setting.
set -eu
cd "$(dirname "$0")/.."

cargo build --workspace --release --offline
# The repository benchmark (BENCHMARK.json) is a separate workspace over
# the public crate APIs; build it as benchmark/run.sh does, so a change
# that breaks its use of those APIs fails here.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
UVPU_THREADS=1 cargo test --workspace -q --offline
UVPU_THREADS=4 cargo test --workspace -q --offline
cargo fmt --all --check
cargo clippy --workspace --all-targets --offline -- -D warnings
# Metrics determinism sweep + snapshot regression gate (smoke variant):
# fails on any drift in cycle totals, utilization, or energy attribution
# against the committed baseline.
sh scripts/bench_metrics.sh --smoke
# Fault-campaign determinism sweep + coverage regression gate (smoke
# variant): fails if injection, detection, or recovery behavior drifts
# from the committed baseline, or differs across UVPU_THREADS.
sh scripts/bench_fault.sh --smoke
# Kernel digest + allocations-per-op regression gate (smoke variant):
# fails if any fused lazy-reduction kernel's output drifts or a
# steady-state heap allocation sneaks back into a pooled hot path.
# Includes one large-ring case (N=2^14) where the four-step transform
# must produce a digest byte-identical to the direct stage loop.
sh scripts/bench_kernels.sh --smoke
# Cross-accelerator comparison determinism sweep + report regression
# gate (smoke variant): fails if any backend's attributed cycles,
# component energy, model area/power, or ratio vs Ours drifts from the
# committed baseline, or differs across UVPU_THREADS.
sh scripts/bench_compare.sh --smoke
# Observability determinism sweep + call-tree snapshot regression gate
# (smoke variant): fails if the hierarchical profile — tree shape,
# self/inclusive cycles, per-path energy, latency percentiles, or the
# flamegraph digest — drifts from the committed baseline, or differs
# across UVPU_THREADS (swept at 1/2/4/7). The binary also asserts the
# tree sums reproduce the flat profiler bins bit-exactly.
sh scripts/bench_obs.sh --smoke
# Service-layer determinism sweep + snapshot regression gate (smoke
# variant): fails if the multi-tenant overload scenario's accept/reject
# digests, per-reason rejection counts, breaker trip/close counts,
# latency percentiles, or wire fault-campaign cells drift from the
# committed baseline, differ across UVPU_THREADS (swept at 1/2/4/7), or
# if the campaign reports any silent corruption.
sh scripts/bench_serve.sh --smoke
# Batch-executor determinism sweep + snapshot regression gate (smoke
# variant): fails if the mixed-tenant wave trace's digest folds,
# occupancy/wave-fill ppm, makespans, stream-sharing savings, or
# per-wave spans drift from the committed baseline, differ across
# UVPU_THREADS (swept at 1/2/4/7), if batched digests diverge from
# sequential execution, or if batching stops beating sequential
# occupancy.
sh scripts/bench_batch.sh --smoke
# Every committed BENCH_*baseline*.json must be read by some gate above.
sh scripts/check_baselines.sh
echo "ci: all green"
