#ifndef COMOVE_CORE_RUN_COORDINATOR_H_
#define COMOVE_CORE_RUN_COORDINATOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/icpe_engine.h"
#include "core/pipeline_counters.h"
#include "core/stage_workers.h"
#include "flow/checkpoint/coordinator.h"
#include "flow/metrics.h"
#include "flow/metrics_sampler.h"
#include "flow/stage_stats.h"
#include "flow/trace.h"

/// \file
/// The coordinator half of a pipeline run, shared by both deployments:
/// RunIcpe (one process) and RunIcpeDistributed (the coordinator process).
/// It owns everything that lives where the ingest subtask lives -
/// the tracing and stats setup, the checkpoint prologue (validation,
/// fingerprint, restore, CheckpointCoordinator and its committer thread,
/// which persists bundles and commits their staged epochs into the
/// folds), the run-level accounting (the per-snapshot ledger, counters,
/// pattern folds) - plus the stage environment its subtasks run in, the
/// choice of when on_pattern fires, and the result epilogue. The
/// deployments differ only in which consumers their exchanges host and
/// how a crash is simulated.

namespace comove::core {

class RunCoordinator {
 public:
  /// Validates `options`, sets up tracing and stats, and runs the
  /// checkpoint prologue: a recovering run reads the store's latest
  /// bundle (refusing one with a foreign fingerprint), a checkpointing run
  /// gets a CheckpointCoordinator expecting one ack per operator subtask
  /// (the ingest subtask acks as both `source` and `assembler`).
  /// With `local_exchanges` (the in-process driver) the rows of its
  /// exchanges are registered first, so the stats table reads in pipeline
  /// order: `assembler->cluster`, then `cluster->enumerate` only when the
  /// run enumerates. on_pattern then fires at each emission when the run
  /// does not checkpoint (every emission is final); otherwise, and always
  /// in a distributed run, it fires as patterns commit.
  /// A recovering run also refolds, before any subtask starts, the
  /// epochs the restored bundle's chain committed.
  RunCoordinator(const trajgen::Dataset& dataset, const IcpeOptions& options,
                 bool local_exchanges);

  /// Stats row `stage`, or null when stats collection is off.
  flow::StageStats* StatsFor(const std::string& stage);

  /// The StageEnv of this process's subtasks: the run's plan, counters,
  /// edge rows, tracer and folds; acks go to the checkpoint coordinator,
  /// epochs are staged in the folds, restored state comes from the
  /// recovered bundle, progress feeds the per-snapshot ledger
  /// (`metrics`). `crash_all` is the deployment's simulated process kill.
  StageEnv Env(std::function<void()> crash_all);

  /// Starts the metrics sampler when the options ask for one. Call once
  /// every stats row the run will report exists.
  void StartSampler();

  /// The result epilogue, once every subtask has stopped: stops the
  /// sampler and the checkpoint committer (every filed bundle persists
  /// and commits first, a crashed run's too), checks that an uncrashed
  /// run drained, commits the epochs still carried past failed writes,
  /// then the held tails, and assembles the IcpeResult, moving the folds
  /// out. With tracing on, the timeline holds this process's recorder
  /// (lane group `process_name`) plus `remote_traces`.
  IcpeResult Finish(const char* process_name,
                    std::vector<flow::ProcessTrace> remote_traces = {});

  const IcpeOptions& options;
  const QueryPlan plan;
  const bool collect_stats;
  const bool checkpointing;
  /// The run's span recorder when trace_path is set; declared before
  /// `tr`, which points into it.
  std::optional<flow::TraceRecorder> owned_trace;
  /// The run's span recorder; null when tracing is off.
  flow::TraceRecorder* const tr;
  /// Declared before the checkpoint coordinator and the sampler so the
  /// rows outlive every pointer into them; deployments declare their
  /// RunCoordinator before their exchanges and links for the same reason.
  flow::StageStatsRegistry stats_registry;
  std::optional<flow::CheckpointBundle> restored;
  std::int64_t restored_id = 0;
  FaultInjector injector;
  std::atomic<bool> crashed{false};
  /// The per-snapshot ledger: ingest stamps from the ingest subtask,
  /// progress from every final-stage subtask, local or remote.
  flow::SnapshotMetrics metrics;
  PipelineCounters counters;
  /// The run's committed patterns: epochs as their checkpoints persist
  /// (those of failed writes no later bundle carried, at Finish), tails
  /// at Finish.
  PatternFolds folds;
  /// Declared after everything its committer thread writes into (folds,
  /// stats rows, the trace recorder), so it is joined before they go.
  std::optional<flow::CheckpointCoordinator> checkpoints;
  /// The rows of the in-process exchanges (`assembler->cluster`, and
  /// `cluster->enumerate` when the run enumerates); null when stats are
  /// off or the run's exchanges are remote.
  flow::StageStats* snapshot_stats = nullptr;
  flow::StageStats* partition_stats = nullptr;

 private:
  /// Refolds the committed epochs of `restored`'s chain (newest first),
  /// refusing a broken chain as a corrupt checkpoint, and drops the
  /// epochs from `restored`.
  void RefoldCommittedEpochs();

  std::optional<flow::MetricsSampler> sampler_;
  /// Serialises on_pattern's emission-time calls from concurrent
  /// enumerate subtasks.
  std::mutex on_pattern_mu_;
};

}  // namespace comove::core

#endif  // COMOVE_CORE_RUN_COORDINATOR_H_
