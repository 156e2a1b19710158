#ifndef COMOVE_APPS_JSON_EXPORT_H_
#define COMOVE_APPS_JSON_EXPORT_H_

#include <iosfwd>
#include <vector>

#include "common/types.h"
#include "core/icpe_engine.h"

/// \file
/// JSON export of detection results for downstream tooling (dashboards,
/// notebooks). Hand-rolled writer - the schema is small and fixed, and
/// the library carries no third-party dependencies.

namespace comove::apps {

/// Version stamped into WriteResultJson output as "schema_version".
/// History: 1 - metrics + patterns + per-stage backpressure counters;
/// 2 - checkpoint health (per-stage barrier/alignment/snapshot counters,
/// run-level crashed/last_checkpoint_id/checkpoints_{completed,failed});
/// 3 - tracing/time-series observability: run-level trace_events and
/// trace_dropped, per-stage last_watermark (stages now mirror
/// flow::StageStatsFields exactly), optional "time_series" (sampler
/// ticks) and "worst_snapshots" (per-stage latency breakdown) arrays;
/// 4 - enumeration-stage counters: the five run-level enum_* keys (the
/// join-cache counters' precedent applied to the pattern stage);
/// 5 - cross-process observability: per-stage bytes_pushed, bytes_popped
/// and crc_rejects (nonzero on transport "link:*" rows), and distributed
/// runs emit worker-labelled stage rows ("w<i>:assembler->cluster", ...)
/// plus per-PeerLink "link:*" rows merged from worker STATS frames;
/// 6 - every run counter of core::kCounterFields as a run-level key, in
/// list order (adds cluster_member_sum, snapshot_count, delta_* and
/// arena_*, which earlier versions lacked);
/// 7 - drops the three delta_* join-cache counters together with the
/// incremental join they measured, leaving ten run counters.
inline constexpr int kResultJsonSchemaVersion = 7;

/// Writes `patterns` as a JSON array of {"objects": [...], "times": [...]}.
void WritePatternsJson(const std::vector<CoMovementPattern>& patterns,
                       std::ostream& out);

/// Writes a full run result: metrics plus patterns.
/// {
///   "snapshots": N, "avg_latency_ms": ..., "p50_latency_ms": ...,
///   "p95_latency_ms": ..., "p99_latency_ms": ..., "throughput_tps": ...,
///   "avg_cluster_ms": ..., "avg_enum_ms": ..., "avg_cluster_size": ...,
///   "cluster_count": N, ...  // every run counter, in list order
///   "stages": [...],     // present only when collect_stats was set
///   "patterns": [...]
/// }
void WriteResultJson(const core::IcpeResult& result, std::ostream& out);

/// Writes per-stage observability counters as a JSON array of objects,
/// one per exchange in pipeline order:
/// [{"stage": "...", "records_pushed": N, ..., "pop_blocked_ms": X}, ...]
void WriteStageStatsJson(
    const std::vector<flow::StageStatsSnapshot>& stages,
    std::ostream& out);

}  // namespace comove::apps

#endif  // COMOVE_APPS_JSON_EXPORT_H_
