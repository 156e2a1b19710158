#ifndef COMOVE_CORE_STAGE_WORKERS_H_
#define COMOVE_CORE_STAGE_WORKERS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/serde.h"
#include "core/icpe_engine.h"
#include "core/pipeline_counters.h"
#include "core/wire_codecs.h"
#include "flow/channel.h"
#include "flow/element.h"
#include "flow/exchange.h"
#include "flow/metrics.h"
#include "pattern/enumerator.h"
#include "pattern/partition.h"
#include "pattern/streaming_enumerator.h"

/// \file
/// The ICPE pipeline's subtask bodies, shared by every deployment - single
/// process (RunIcpe, core/icpe_engine.cc) and multi-process over sockets
/// (RunIcpeDistributed and its workers, core/distributed.cc). Each runs
/// the exact same operator code against the same two exchange types,
/// which host some or all of an edge's consumers in the calling process.
/// Bit-identical results across deployments hold by construction: only
/// where the consumers live differs.
///
/// Each Run*Subtask call is one subtask: it drains its input channel (or
/// replays the dataset, for ingest), produces onto an exchange, and
/// returns when the stream finishes or the pipeline crashes. Everything
/// deployment-specific - where acks go, how completion progress reaches
/// the per-snapshot ledger, where patterns are committed - enters through
/// one StageEnv per process as callbacks.

namespace comove::core {

/// Sentinel watermark closing the stream ("no more snapshots ever").
inline constexpr Timestamp kEndOfStreamTime =
    std::numeric_limits<Timestamp>::max();

/// The assembler -> cluster edge: one snapshot per element, routed by
/// time.
using SnapshotExchange = flow::Exchange<Snapshot, SnapshotCodec>;

/// The cluster -> enumerate edge: one partition group per (snapshot,
/// destination subtask), routed by OwnerPartition.
using PartitionExchange =
    flow::Exchange<pattern::PartitionGroup, PartitionGroupCodec>;

/// Partition routing of id-based partitions: Knuth multiplicative mix;
/// trajectory ids are dense so a plain modulo would correlate with the
/// id-assignment scheme. Every deployment must agree on this function -
/// it decides which process owns which trajectory.
inline std::size_t OwnerPartition(TrajectoryId owner, std::int32_t p) {
  return (static_cast<std::uint32_t>(owner) * 2654435761u) %
         static_cast<std::uint32_t>(p);
}

/// The commit side of a run's exactly-once pattern sink: per-query folds
/// (keep-longest per object set) of the committed patterns. The run's
/// coordinator holds the one the result is read from, and a worker
/// process one for the tails its RESULT ships. Thread-safe.
///
/// A subtask's epochs must commit in ascending order: keep-longest then
/// keeps the first of equally long witnesses, as one fold over the whole
/// stream would. Distinct subtasks own distinct object sets (a set is
/// enumerated under its smallest id), so their order does not matter.
/// Epochs are staged as collectors before their ack and committed by
/// moving their map nodes in (PatternCollector::Merge), never decoded.
class PatternFolds {
 public:
  explicit PatternFolds(std::size_t queries) : collectors_(queries) {}

  /// Fires for each committed pattern, under the folds' lock (so calls
  /// are serialised); null for none. Set before the run starts.
  std::function<void(const CoMovementPattern&)> on_commit;

  /// Queues enumerate subtask `subtask`'s epoch, one collector per query,
  /// behind its earlier ones, until its bundle commits it. Stage each
  /// epoch before the ack that may complete its bundle.
  void Stage(std::int32_t subtask,
             std::vector<pattern::PatternCollector>&& epoch);

  /// Commits `subtask`'s oldest staged epoch. A subtask's epochs commit
  /// in the order they were staged, the carried ones of failed writes
  /// included; aborts when none is staged.
  void CommitStaged(std::int32_t subtask);

  /// Folds an encoded epoch that committed before every epoch folded so
  /// far: recovery walks the checkpoint chain newest first. Fires
  /// nothing - the run that committed it already did.
  [[nodiscard]] bool RefoldEarlier(std::string_view epoch);

  /// Holds a subtask's open tail, given at its normal exit, until
  /// CommitTails: its last epoch may still wait for the committer, and
  /// the tail must commit after it.
  void AddTail(std::vector<pattern::PatternCollector>&& tail);

  /// Commits every held tail. Call once every subtask has stopped.
  void CommitTails();

  /// Query `q`'s patterns, ordered by object set, moved out.
  std::vector<CoMovementPattern> TakePatterns(std::size_t q);

  /// The per-query folds, for encoding a worker's RESULT (after
  /// CommitTails).
  const std::vector<pattern::PatternCollector>& collectors() const {
    return collectors_;
  }

 private:
  void Commit(std::vector<pattern::PatternCollector>&& fold);

  std::mutex mu_;
  std::vector<pattern::PatternCollector> collectors_;
  std::vector<std::vector<pattern::PatternCollector>> held_;
  /// Its own lock, so staging never waits for a commit's on_commit calls.
  std::mutex staged_mu_;
  std::map<std::int32_t, std::deque<std::vector<pattern::PatternCollector>>>
      staged_;
};

/// Encodes per-query folds: u64 query count, then per query u64 n and n
/// patterns. The layout of a checkpoint's "epoch" state and of a worker
/// RESULT's patterns. Reserves the encoded size first.
void WriteFolds(BinaryWriter* writer,
                const std::vector<pattern::PatternCollector>& folds);

/// Decodes WriteFolds bytes into `queries` collectors; false on corrupt
/// bytes or another query count.
[[nodiscard]] bool ReadFolds(BinaryReader* reader, std::size_t queries,
                             std::vector<pattern::PatternCollector>* out);

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

/// The context every subtask of one process runs in. Each process fills
/// one: RunCoordinator::Env for the process of the ingest subtask (the
/// whole run, in process), NetWorkerMain for a worker process.
struct StageEnv {
  const IcpeOptions* options = nullptr;
  const QueryPlan* plan = nullptr;
  PipelineCounters* counters = nullptr;
  /// The stats rows of the two edges' local sides, charged with the
  /// snapshot bytes their consumers ack; null when stats are off or the
  /// edge has no consumer in this process.
  flow::StageStats* snapshot_stats = nullptr;
  flow::StageStats* partition_stats = nullptr;
  flow::TraceRecorder* tr = nullptr;
  FaultInjector* injector = nullptr;
  std::atomic<bool>* crashed = nullptr;
  /// Simulates a process kill: cancel every local edge (in process) or
  /// exit the worker process outright (distributed).
  std::function<void()> crash_all;
  /// Acknowledges one operator's checkpoint snapshot: (id, op, subtask,
  /// state bytes, the stats row the snapshot size is charged to).
  std::function<void(std::int64_t, const char*, std::int32_t, std::string,
                     flow::StageStats*)>
      ack;
  /// The restored state bytes of (op, subtask), or null when the run
  /// starts cold.
  std::function<const std::string*(const char*, std::int32_t)>
      restored_state;
  /// Reports that subtask `worker` finalized every snapshot time <=
  /// `through`: enumerate subtasks, and cluster subtasks when the run
  /// does not enumerate. Feeds the per-snapshot ledger
  /// (flow::SnapshotMetrics), which lives with the ingest subtask.
  std::function<void(std::int32_t worker, Timestamp through)> progress;
  /// Fires at each emission, serialised. Set only where every emission is
  /// final (RunCoordinator decides); otherwise on_pattern fires at commit
  /// (PatternFolds::on_commit) and this is null.
  std::function<void(const CoMovementPattern&)> on_pattern;
  /// Takes an enumerate subtask's epoch collectors just before its
  /// "epoch" ack (PatternFolds::Stage), for the commit to move into the
  /// run's folds. Null in a worker process: there the coordinator decodes
  /// the ack and stages that.
  std::function<void(std::int32_t subtask,
                     std::vector<pattern::PatternCollector>&&)>
      stage_epoch;
  /// Receives each enumerate subtask's open tail (PatternFolds::AddTail) -
  /// its per-query folds since the last barrier, or of the whole run
  /// without checkpointing - at a NORMAL exit, never after a crash.
  /// Earlier epochs left with their checkpoint's ack (the "epoch" state)
  /// and commit when it persists.
  PatternFolds* folds = nullptr;
  bool checkpointing = false;
  std::int64_t restored_id = 0;
};

/// Ingest subtask: replays `dataset` (ordered or shuffled, paced or not)
/// straight into the §4 assembler, which synchronises the record stream
/// into complete snapshots, and routes each snapshot onto the snapshot
/// edge by time. At a checkpoint it saves the source cursor and the
/// assembler state at a time boundary and injects the barrier there.
/// `metrics` (the per-snapshot ledger) and the env's counters record
/// snapshot ingest (they live with this subtask, i.e. on the
/// coordinator). When the pipeline crashes - a simulated kill, or a
/// worker's death in a distributed run - it stops at its next time
/// boundary (block boundary, when shuffled); until then its sends to a
/// cancelled channel or a dead link are no-ops.
void RunIngestSubtask(const trajgen::Dataset& dataset, const StageEnv& env,
                      SnapshotExchange& out, flow::SnapshotMetrics* metrics);

/// Clustering subtask `worker`: indexed clustering per snapshot (§5.3),
/// partitions bucketed by OwnerPartition and sent onto the partition edge
/// as one PartitionGroup per destination that has any.
void RunClusterSubtask(std::int32_t worker, const StageEnv& env,
                       flow::Channel<flow::Element<Snapshot>>& input,
                       PartitionExchange& out);

/// Enumeration subtask `worker`: one enumerator per query over the shared
/// partition stream, releasing ticks in order via aligned watermarks.
void RunEnumerateSubtask(
    std::int32_t worker, const StageEnv& env,
    flow::Channel<flow::Element<pattern::PartitionGroup>>& input);

}  // namespace comove::core

#endif  // COMOVE_CORE_STAGE_WORKERS_H_
