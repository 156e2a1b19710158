#ifndef COMOVE_CORE_RUN_COORDINATOR_H_
#define COMOVE_CORE_RUN_COORDINATOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <optional>
#include <string>
#include <vector>

#include "core/completion_tracker.h"
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
/// It owns everything that lives where the source and assembler live -
/// the tracing and stats setup, the checkpoint prologue (validation,
/// fingerprint, restore, CheckpointCoordinator), the run-level accounting
/// (latency metrics, completion tracker, counters, compute-time
/// accumulators, pattern folds) - plus the callbacks stage subtasks reach
/// it through and the result epilogue. The deployments differ only in how
/// their edges are wired and how a crash is simulated.

namespace comove::core {

class RunCoordinator {
 public:
  /// Validates `options`, sets up tracing and stats, and runs the
  /// checkpoint prologue: a recovering run reads the store's latest
  /// bundle (refusing one with a foreign fingerprint), a checkpointing run
  /// gets a CheckpointCoordinator expecting one ack per subtask.
  /// `stage_rows` are the coordinator-local exchange rows, registered
  /// first so the stats table reads in pipeline order.
  RunCoordinator(const trajgen::Dataset& dataset, const IcpeOptions& options,
                 std::initializer_list<const char*> stage_rows);

  /// Stats row `stage`, or null when stats collection is off.
  flow::StageStats* StatsFor(const std::string& stage);

  /// A StageEnv whose acks go to the checkpoint coordinator and whose
  /// restored state comes from the recovered bundle. `crash_all` is the
  /// deployment's simulated process kill.
  StageEnv Env(std::function<void()> crash_all);

  /// Completion progress: subtask `worker` finalized every snapshot time
  /// <= `through`; snapshots every subtask is past are marked complete.
  void Progress(std::int32_t worker, Timestamp through);

  /// Starts the metrics sampler when the options ask for one. Call once
  /// every stats row the run will report exists.
  void StartSampler();

  /// The result epilogue, once every subtask has stopped: stops the
  /// sampler, checks that an uncrashed run drained, and assembles the
  /// IcpeResult. With tracing on, the timeline holds this process's
  /// recorder (lane group `process_name`) plus `remote_traces`.
  IcpeResult Finish(const char* process_name,
                    std::vector<flow::ProcessTrace> remote_traces = {});

  const IcpeOptions& options;
  const QueryPlan plan;
  const bool collect_stats;
  const bool checkpointing;
  /// Backs `tr` when the run records into its own recorder (a bare
  /// trace_path); declared before `tr`, which points into it.
  std::optional<flow::TraceRecorder> owned_trace;
  /// The run's span recorder; null when tracing is off.
  flow::TraceRecorder* const tr;
  /// Declared before the checkpoint coordinator and the sampler so the
  /// rows outlive every pointer into them; deployments declare their
  /// RunCoordinator before their exchanges and links for the same reason.
  flow::StageStatsRegistry stats_registry;
  std::optional<flow::CheckpointBundle> restored;
  std::int64_t restored_id = 0;
  std::optional<flow::CheckpointCoordinator> checkpoints;
  FaultInjector injector;
  std::atomic<bool> crashed{false};
  flow::SnapshotMetrics metrics;
  CompletionTracker tracker;
  TimeAccumulator cluster_time;
  TimeAccumulator enum_time;
  PipelineCounters counters;
  PatternFolds folds;

 private:
  std::optional<flow::MetricsSampler> sampler_;
};

}  // namespace comove::core

#endif  // COMOVE_CORE_RUN_COORDINATOR_H_
