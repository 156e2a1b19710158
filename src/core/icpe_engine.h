#ifndef COMOVE_CORE_ICPE_ENGINE_H_
#define COMOVE_CORE_ICPE_ENGINE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cluster/clustering.h"
#include "common/constraints.h"
#include "common/types.h"
#include "core/pipeline_counters.h"
#include "core/recovery.h"
#include "flow/checkpoint/snapshot_store.h"
#include "flow/metrics.h"
#include "flow/metrics_sampler.h"
#include "flow/stage_stats.h"
#include "flow/trace.h"
#include "trajgen/dataset.h"

/// \file
/// The end-to-end ICPE framework (Fig. 3) on the comove::flow engine:
///
///   Ingest (1)  - one subtask: the source replays a dataset as a record
///                 stream with "last time" links and birth bounds straight
///                 into the §4 assembler (records -> complete snapshots),
///                 which routes each snapshot to a cluster subtask.
///   Cluster (N) - indexed clustering per snapshot (RJC / SRJ / GDC),
///                 parallel across snapshots per §5.3, pipelined via
///                 bounded channels.
///   Enumerate(N)- id-based partitioning routes P_t(o) by hash(o); each
///                 subtask runs BA / FBA / VBA over its owners, releasing
///                 ticks in order via aligned watermarks.
///
/// Latency is the per-snapshot response time (ingest at the assembler to
/// the moment every enumeration subtask has processed the snapshot);
/// throughput is snapshots per second - the paper's §7 metrics.

namespace comove::core {

/// Which §6 enumerator the pipeline runs.
enum class EnumeratorKind {
  kBA,   ///< exponential baseline (Algorithm 3)
  kFBA,  ///< fixed-length bit compression (Algorithm 4)
  kVBA,  ///< variable-length bit compression (Algorithm 5)
  kNone, ///< clustering-only pipeline (Fig. 10/11 experiments)
};

/// Printable enumerator name ("BA", "FBA", "VBA", "none").
const char* EnumeratorKindName(EnumeratorKind kind);

/// One additional pattern query evaluated on the shared cluster stream
/// (multi-query mode): clustering cost is paid once, enumeration runs per
/// query. See IcpeOptions::extra_queries.
struct PatternQuery {
  PatternConstraints constraints{2, 4, 2, 2};
  EnumeratorKind enumerator = EnumeratorKind::kFBA;
};

/// Full pipeline configuration.
struct IcpeOptions {
  cluster::ClusteringMethod clustering = cluster::ClusteringMethod::kRJC;
  EnumeratorKind enumerator = EnumeratorKind::kFBA;
  cluster::ClusteringOptions cluster_options;
  PatternConstraints constraints{2, 4, 2, 2};
  std::int32_t parallelism = 4;  ///< subtasks per parallel stage (N)

  /// Elements each consumer channel holds before its producers block:
  /// snapshots on assembler->cluster and partition groups - one per
  /// (snapshot, destination subtask) - on cluster->enumerate. So it bounds
  /// the snapshots in flight per subtask, however many partitions a
  /// snapshot makes. Records cross no edge: the source feeds the
  /// assembler inside the ingest subtask.
  std::size_t channel_capacity = 128;

  /// When > 0, the replay source delivers records *out of order* within a
  /// sliding window of this many time units (deterministically shuffled
  /// by `shuffle_seed`). This exercises the §4 "last time"
  /// synchronisation under realistic network reordering; results are
  /// identical to ordered replay by construction.
  Timestamp replay_shuffle_window = 0;
  std::uint64_t shuffle_seed = 1;

  /// When > 0, the source sleeps this many microseconds every time the
  /// replayed stream advances to a new snapshot time - simulating a live
  /// arrival rate instead of full-speed replay. Combine with `on_pattern`
  /// for real-time dashboards (see examples/live_dashboard).
  std::int64_t replay_delay_us = 0;

  /// Optional real-time pattern callback, invoked as soon as any
  /// enumeration subtask proves a pattern (before deduplication, so the
  /// same object set may be reported more than once with different
  /// witnesses). Invocations are serialised by the engine; the callback
  /// need not be thread-safe but must not block for long. In multi-query
  /// mode the callback receives patterns of ALL queries.
  std::function<void(const CoMovementPattern&)> on_pattern;

  /// When true, every inter-stage exchange reports per-stage counters
  /// (records/watermarks moved, queue depths, blocked-time split into
  /// backpressure and starvation) into IcpeResult::stage_stats. Off by
  /// default: the instrumented path adds a few atomic ops per element, the
  /// disabled path only untaken branches.
  bool collect_stats = false;

  /// Additional pattern queries sharing the clustering stage (the join
  /// and DBSCAN cost is paid once for all queries; each enumeration
  /// subtask runs one enumerator per query). Id-based partitions are
  /// computed with the smallest M across all queries - a superset of each
  /// query's own partitions, which is harmless: enumeration enforces the
  /// per-query M (Lemma 3 only ever removes work, never results).
  std::vector<PatternQuery> extra_queries;

  /// When > 0, the source injects a checkpoint barrier every this many
  /// snapshot times; every operator snapshots its state at the aligned
  /// barrier (a consistent cut) and the completed checkpoint is persisted
  /// to `snapshot_store`. Requires ordered replay (replay_shuffle_window
  /// == 0) and a non-null store. 0 disables checkpointing.
  std::int64_t checkpoint_interval = 0;

  /// Where completed checkpoints go (not owned; must outlive the run).
  flow::SnapshotStore* snapshot_store = nullptr;

  /// When true, the run restores the store's latest completed checkpoint
  /// before processing: the source rewinds to the saved offset, every
  /// stateful operator reloads its snapshot, and patterns already emitted
  /// before the cut are re-seeded - the run's output is bit-identical to
  /// a failure-free run over the same dataset. A cold store falls back to
  /// a normal run.
  bool recover = false;

  /// Fault injection (tests/benches): crash a named stage while it
  /// snapshots a given checkpoint. Empty stage = no fault.
  FaultSpec fault;

  /// When non-empty, the run records per-stage spans (see flow/trace.h)
  /// and writes them as Chrome trace_event JSON to this path - loadable
  /// in chrome://tracing or Perfetto. Tracing also retains per-snapshot
  /// latencies to build IcpeResult::worst_snapshots.
  std::string trace_path;

  /// External span recorder (not owned; must outlive the run). When set,
  /// the engine records into it instead of (or in addition to - see
  /// trace_path) its own recorder; useful for tests and for aggregating
  /// several runs into one timeline. Null + empty trace_path = tracing
  /// fully off (the hot paths pay one untaken branch).
  flow::TraceRecorder* trace = nullptr;

  /// When > 0, a MetricsSampler thread snapshots every stage's counters
  /// at this cadence into IcpeResult::time_series (implies stats
  /// collection for the run). 0 disables sampling.
  std::int64_t sample_interval_ms = 0;
};

/// Everything a pipeline run reports. The run counters (cluster_count,
/// snapshot_count, the arena_* and enum_* families) come from
/// RunCounters; core/pipeline_counters.h lists and documents them.
struct IcpeResult : RunCounters {
  std::vector<CoMovementPattern> patterns;  ///< deduplicated (primary query)
  /// Per-extra-query deduplicated patterns, index-aligned with
  /// IcpeOptions::extra_queries.
  std::vector<std::vector<CoMovementPattern>> extra_patterns;
  flow::RunMetrics snapshots;      ///< latency (avg/max/p50/p95/p99) + tps
  /// Per-exchange counters in pipeline order (assembler -> cluster ->
  /// enumerate, then checkpoint); empty unless
  /// IcpeOptions::collect_stats was set. See flow::StageStatsSnapshot for
  /// how to read a backpressure report.
  std::vector<flow::StageStatsSnapshot> stage_stats;
  double avg_cluster_ms = 0.0;     ///< mean per-snapshot clustering compute
  double avg_enum_ms = 0.0;        ///< mean per-tick enumeration compute
  double avg_cluster_size = 0.0;   ///< mean members per emitted cluster

  /// True when an injected fault killed the pipeline mid-run. Pattern
  /// folds commit only at a normal exit, so `patterns` and every
  /// `extra_patterns` entry are then empty; the recovery run
  /// (IcpeOptions::recover) that is expected to follow reports them.
  bool crashed = false;
  std::int64_t last_checkpoint_id = 0;    ///< newest persisted checkpoint
  std::int64_t checkpoints_completed = 0; ///< persisted this run
  std::int64_t checkpoints_failed = 0;    ///< aborted by store failures

  /// Sampled time series (one entry per tick); empty unless
  /// IcpeOptions::sample_interval_ms > 0.
  std::vector<flow::MetricsSample> time_series;
  /// Worst-k snapshots by measured latency with their per-stage span-time
  /// breakdown; empty unless tracing was on.
  std::vector<flow::SnapshotStageBreakdown> worst_snapshots;
  std::int64_t trace_events = 0;   ///< spans/instants recorded (0 = off)
  std::int64_t trace_dropped = 0;  ///< lost to ring wraparound
};

/// Fingerprint of (dataset, pipeline shape) stamped into every checkpoint
/// bundle; a recovery whose fingerprint differs refuses to restore.
/// Channel capacity and stats collection are deliberately excluded - they
/// do not affect results.
std::string BuildFingerprint(const trajgen::Dataset& dataset,
                             const IcpeOptions& options);

/// Runs the full ICPE pipeline over a dataset replayed as a stream.
/// Thread usage: 1 + 2 * parallelism workers for the run's duration (one
/// ingest subtask, then parallelism cluster and enumerate subtasks each).
IcpeResult RunIcpe(const trajgen::Dataset& dataset,
                   const IcpeOptions& options);

}  // namespace comove::core

#endif  // COMOVE_CORE_ICPE_ENGINE_H_
