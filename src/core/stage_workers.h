#ifndef COMOVE_CORE_STAGE_WORKERS_H_
#define COMOVE_CORE_STAGE_WORKERS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/completion_tracker.h"
#include "core/icpe_engine.h"
#include "core/pipeline_counters.h"
#include "flow/channel.h"
#include "flow/element.h"
#include "flow/net/transport.h"
#include "pattern/enumerator.h"
#include "pattern/partition.h"
#include "pattern/streaming_enumerator.h"

/// \file
/// The ICPE pipeline's subtask bodies, factored out of RunIcpe so that
/// every deployment - single process (core/icpe_engine.cc) and
/// multi-process over sockets (core/distributed.cc) - runs the exact same
/// operator code against a Transport edge. Bit-identical results across
/// deployments hold by construction: only the edges differ.
///
/// Each Run*Subtask call is one subtask: it drains its input channel (or
/// replays the dataset, for the source), produces onto a Transport, and
/// returns when the stream finishes or the pipeline crashes. Everything
/// deployment-specific - where acks go, how completion progress reaches
/// the tracker, where patterns are committed - enters through the
/// environment structs as callbacks.

namespace comove::core {

/// Sentinel watermark closing the stream ("no more snapshots ever").
inline constexpr Timestamp kEndOfStreamTime =
    std::numeric_limits<Timestamp>::max();

/// Partition routing of id-based partitions: Knuth multiplicative mix;
/// trajectory ids are dense so a plain modulo would correlate with the
/// id-assignment scheme. Every deployment must agree on this function -
/// it decides which process owns which trajectory.
inline std::size_t OwnerPartition(TrajectoryId owner, std::int32_t p) {
  return (static_cast<std::uint32_t>(owner) * 2654435761u) %
         static_cast<std::uint32_t>(p);
}

/// Thread-safe accumulation of per-snapshot stage compute times.
struct TimeAccumulator {
  mutable std::mutex mu;
  double total_ms = 0.0;
  std::int64_t count = 0;

  /// Adds `ms` of compute spread over `samples` snapshots (0 charges time
  /// that belongs to snapshots already counted).
  void Add(double ms, std::int64_t samples = 1) {
    std::lock_guard<std::mutex> lock(mu);
    total_ms += ms;
    count += samples;
  }
  double Average() const {
    std::lock_guard<std::mutex> lock(mu);
    return count > 0 ? total_ms / static_cast<double>(count) : 0.0;
  }
};

/// Per-query deduplicated pattern folds of one process, shared by its
/// enumerate subtasks. The keep-longest-per-object-set merge is
/// order-independent, so folds from any number of subtasks (or worker
/// processes) combine into the same result.
struct PatternFolds {
  explicit PatternFolds(std::size_t queries) : collectors(queries) {}

  /// Merges one subtask's per-query logs (thread-safe).
  void Commit(std::vector<pattern::PatternCollector>&& logs);

  std::mutex mu;
  std::vector<pattern::PatternCollector> collectors;
};

/// Builds the enumerator a PatternQuery asks for.
std::unique_ptr<pattern::StreamingEnumerator> MakeEnumerator(
    EnumeratorKind kind, const PatternConstraints& constraints,
    pattern::PatternSink sink);

/// The query set of a run plus the loosest partitioning bound: partitions
/// are computed once with the smallest M across queries (Lemma 3 only
/// removes work, never results); each query enforces its own M during
/// enumeration.
struct QueryPlan {
  std::vector<PatternQuery> queries;
  PatternConstraints partition_constraints;

  bool enumerate() const { return !queries.empty(); }
};

QueryPlan BuildQueryPlan(const IcpeOptions& options);

/// Acknowledges one operator's checkpoint snapshot: (id, op, subtask,
/// state bytes, the stats row the snapshot size is charged to).
using AckFn = std::function<void(std::int64_t, const char*, std::int32_t,
                                 std::string, flow::StageStats*)>;

/// Returns the restored state bytes of (op, subtask), or null when the
/// run starts cold.
using RestoredStateFn =
    std::function<const std::string*(const char*, std::int32_t)>;

/// Reports that enumeration subtask `worker` finalized every snapshot
/// time <= `through` (feeds the completion tracker / latency metrics,
/// which live wherever the coordinator lives).
using ProgressFn = std::function<void(std::int32_t, Timestamp)>;

/// Deployment-independent context shared by every subtask of one run.
struct StageEnv {
  const IcpeOptions* options = nullptr;
  flow::TraceRecorder* tr = nullptr;
  FaultInjector* injector = nullptr;
  std::atomic<bool>* crashed = nullptr;
  /// Simulates a process kill: cancel every local edge (in process) or
  /// exit the worker process outright (distributed).
  std::function<void()> crash_all;
  AckFn ack;
  RestoredStateFn restored_state;
  bool checkpointing = false;
  std::int64_t restored_id = 0;
  /// Consumers drain up to this many queued elements per lock round-trip.
  std::size_t pop_batch_max = 1;
};

/// Source subtask: replays `dataset` with birth-bound watermarks and
/// periodic checkpoint barriers onto the record edge.
void RunSourceSubtask(const trajgen::Dataset& dataset, const StageEnv& env,
                      flow::Transport<GpsRecord>& out);

/// Assembler subtask: §4 last-time synchronisation of the record stream
/// into complete snapshots, routed onto the snapshot edge by time.
/// `metrics`/`tracker`/`counters` record snapshot ingest (they live with
/// the assembler, i.e. on the coordinator).
void RunAssemblerSubtask(const StageEnv& env,
                         flow::Channel<flow::Element<GpsRecord>>& input,
                         flow::Transport<Snapshot>& out,
                         flow::SnapshotMetrics* metrics,
                         CompletionTracker* tracker,
                         PipelineCounters* counters,
                         flow::StageStats* assembler_stats);

/// Per-stage context of the snapshot-parallel clustering subtasks.
struct ClusterStageEnv {
  TimeAccumulator* cluster_time = nullptr;
  PipelineCounters* counters = nullptr;
  flow::StageStats* cluster_stats = nullptr;
  const PatternConstraints* partition_constraints = nullptr;
  bool enumerate = true;
  /// Completion progress for clustering-only pipelines (enumerate off);
  /// unused otherwise.
  ProgressFn progress;
};

/// Clustering subtask `worker`: indexed clustering per snapshot (§5.3),
/// partitions routed by OwnerPartition onto the partition edge.
void RunClusterSubtask(std::int32_t worker, const StageEnv& env,
                       const ClusterStageEnv& cenv,
                       flow::Channel<flow::Element<Snapshot>>& input,
                       flow::Transport<pattern::Partition>& out);

/// Per-stage context of the enumeration subtasks.
struct EnumerateStageEnv {
  const std::vector<PatternQuery>* queries = nullptr;
  TimeAccumulator* enum_time = nullptr;
  PipelineCounters* counters = nullptr;
  flow::StageStats* enumerate_stats = nullptr;
  /// Producer count of the partition edge (the clustering parallelism);
  /// sized the worker's watermark and barrier aligners.
  std::int32_t producers = 0;
  /// Fires at each emission, before the pattern is committed (already
  /// serialised by the caller); null when the run has no on_pattern
  /// observer.
  std::function<void(const CoMovementPattern&)> on_pattern;
  /// Receives the subtask's per-query pattern folds at a NORMAL exit -
  /// never after a crash. Until then the folds live in the subtask, as
  /// part of its checkpointed state when checkpointing is on.
  PatternFolds* commit = nullptr;
  ProgressFn progress;
};

/// Enumeration subtask `worker`: one enumerator per query over the shared
/// partition stream, releasing ticks in order via aligned watermarks.
void RunEnumerateSubtask(
    std::int32_t worker, const StageEnv& env, const EnumerateStageEnv& eenv,
    flow::Channel<flow::Element<pattern::Partition>>& input);

}  // namespace comove::core

#endif  // COMOVE_CORE_STAGE_WORKERS_H_
