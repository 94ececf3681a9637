#!/usr/bin/env bash
# Emits the machine-readable performance reports at the repo root:
#
#   BENCH_batch.json — measured host throughput (samples/sec) of the
#     residual MobileNet per batch size and backend.
#   BENCH_walk.json  — the SIMD × workers scaling table of batch-8
#     evaluation: forced-scalar vs auto-detected SIMD, each with whole
#     batches sharded across 1, 2 and 4 workers (4-worker target
#     null/skipped on hosts with fewer than 4 cores).
#   BENCH_serve.json — the serving-load table: p50/p99 latency, shed and
#     degradation splits of the mixq-serve runtime per offered
#     inter-arrival gap × worker count (4-worker target null/skipped on
#     hosts that cannot run 4 genuine workers).
#
# Unlike the deterministic goldens under tests/goldens/ (shape math,
# byte-diffed in CI), these files hold *measured* numbers: commit them
# after an intentional perf change so future PRs have a throughput
# trajectory to compare against. Never golden-diffed. Each report stamps
# the rustc host target, detected CPU features and core count so a
# number is never read without its machine context.
set -euo pipefail
cd "$(dirname "$0")/.."
root="$PWD"
MIXQ_RUSTC_TARGET="$(rustc -vV | sed -n 's/^host: //p')"
export MIXQ_RUSTC_TARGET
cargo bench --bench table_batch_throughput -- \
  --bench-json "$root/BENCH_batch.json"
cargo bench --bench table_walk_scaling -- \
  --bench-json "$root/BENCH_walk.json"
cargo bench --bench table_serve_load -- \
  --bench-json "$root/BENCH_serve.json"
echo "perf reports written:"
cat "$root/BENCH_batch.json" "$root/BENCH_walk.json" "$root/BENCH_serve.json"
