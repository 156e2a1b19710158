#!/usr/bin/env bash
# Builds the flow/engine test suite under ThreadSanitizer and runs it, so
# data races in the stream engine (channels, exchanges, metrics, the ICPE
# pipeline) are caught mechanically instead of by luck.
#
# Usage: scripts/check_tsan.sh [build-dir]   (default: build-tsan)
set -euo pipefail

BUILD_DIR="${1:-build-tsan}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

# The concurrency-relevant suites: everything under src/flow plus the
# engine-level pipelines that exercise them end to end, the
# fault-tolerance layer (barrier alignment, coordinator acks from every
# worker thread handing bundles and staged epochs to the checkpoint
# committer thread, crash-and-recover engine runs), and the socket path
# (PeerLink reader threads racing senders, the split exchange's close
# accounting, multi-process runs whose workers re-exec this very
# TSan-instrumented binary).
TESTS=(
  channel_test
  exchange_test
  flow_utils_test
  metrics_test
  metrics_sampler_test
  stage_stats_test
  trace_test
  snapshot_assembler_test
  reorder_buffer_test
  icpe_engine_test
  icpe_replay_test
  simd_kernel_test
  multi_query_test
  soak_test
  barrier_alignment_test
  checkpoint_test
  recovery_test
  enum_soak_test
  net_frame_test
  transport_conformance_test
  net_pipeline_test
  net_observability_test
)

cmake -B "$BUILD_DIR" -S "$ROOT" \
  -DCOMOVE_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$(nproc)" --target "${TESTS[@]}"

# Death tests fork and abort by design; keep TSan quiet about the fork and
# strict about everything else.
export TSAN_OPTIONS="halt_on_error=1 die_after_fork=0 ${TSAN_OPTIONS:-}"

status=0
for t in "${TESTS[@]}"; do
  echo "== TSan: $t =="
  if ! "$BUILD_DIR/tests/$t"; then
    status=1
  fi
done

if [ "$status" -ne 0 ]; then
  echo "TSan run FAILED" >&2
else
  echo "TSan run clean"
fi
exit "$status"
