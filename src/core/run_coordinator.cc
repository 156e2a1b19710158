#include "core/run_coordinator.h"

#include <algorithm>
#include <fstream>
#include <utility>

#include "common/check.h"

namespace comove::core {
namespace {

/// How many of the slowest snapshots get a per-stage breakdown.
constexpr std::size_t kWorstSnapshots = 5;

}  // namespace

RunCoordinator::RunCoordinator(const trajgen::Dataset& dataset,
                               const IcpeOptions& options,
                               std::initializer_list<const char*> stage_rows)
    : options(options),
      plan(BuildQueryPlan(options)),
      // The sampler reads the same counters, so sampling implies stats.
      collect_stats(options.collect_stats || options.sample_interval_ms > 0),
      checkpointing(options.checkpoint_interval > 0),
      // Zero-cost when off: `tr` stays null and every record site is one
      // untaken branch. An explicit recorder wins; a bare trace_path gets
      // a run-owned recorder whose events are written on exit.
      tr(options.trace != nullptr       ? options.trace
         : !options.trace_path.empty() ? &owned_trace.emplace()
                                       : nullptr),
      injector(options.fault),
      tracker(options.parallelism),
      folds(plan.queries.size()) {
  COMOVE_CHECK(options.constraints.IsValid());
  for (const char* stage : stage_rows) StatsFor(stage);
  if (checkpointing) {
    COMOVE_CHECK_MSG(options.snapshot_store != nullptr,
                     "checkpoint_interval requires a snapshot_store");
    COMOVE_CHECK_MSG(options.replay_shuffle_window <= 0,
                     "checkpointing requires ordered replay");
  }
  if (options.recover) {
    COMOVE_CHECK_MSG(options.snapshot_store != nullptr,
                     "recover requires a snapshot_store");
  }
  // The fingerprint excludes the deployment, so a distributed run
  // restores single-process checkpoints and vice versa.
  const std::string fingerprint = (checkpointing || options.recover)
                                      ? BuildFingerprint(dataset, options)
                                      : std::string();
  if (options.recover) {
    restored = options.snapshot_store->ReadLatest();
    if (restored) {
      COMOVE_CHECK_MSG(restored->fingerprint == fingerprint,
                       "checkpoint fingerprint mismatch: the store was "
                       "written by a different dataset or pipeline shape");
    }
  }
  restored_id = restored ? restored->id : 0;
  if (checkpointing) {
    // Every subtask acks every checkpoint: source, assembler, p cluster
    // and (when enumerating) p enumerate subtasks.
    const std::int32_t p = options.parallelism;
    checkpoints.emplace(2 + p + (plan.enumerate() ? p : 0),
                        options.snapshot_store, fingerprint,
                        StatsFor("checkpoint"), restored_id);
  }
  // Tracing ranks the worst snapshots by measured latency, which needs
  // the individual values, not just the histogram.
  if (tr != nullptr) metrics.KeepPerSnapshot(true);
}

flow::StageStats* RunCoordinator::StatsFor(const std::string& stage) {
  return collect_stats ? &stats_registry.Get(stage) : nullptr;
}

StageEnv RunCoordinator::Env(std::function<void()> crash_all) {
  StageEnv env;
  env.options = &options;
  env.tr = tr;
  env.injector = &injector;
  env.crashed = &crashed;
  env.crash_all = std::move(crash_all);
  // Snapshot-bytes accounting goes on the acking operator's input-exchange
  // row; the checkpoint coordinator separately totals persisted bytes
  // under "checkpoint".
  env.ack = [this](std::int64_t id, const char* op, std::int32_t subtask,
                   std::string state, flow::StageStats* stats) {
    if (stats != nullptr) {
      stats->OnSnapshot(static_cast<std::int64_t>(state.size()), id);
    }
    const std::uint64_t t0 = tr != nullptr ? tr->NowNs() : 0;
    checkpoints->Ack(id, op, subtask, std::move(state));
    if (tr != nullptr) {
      // One span per operator ack, named after the operator; aux carries
      // the checkpoint id so a timeline groups one cut's acks together.
      tr->RecordSpanSince("checkpoint", op, subtask, kNoTime, t0, id);
    }
  };
  env.restored_state = [this](const char* op,
                              std::int32_t subtask) -> const std::string* {
    return restored ? restored->Find(op, subtask) : nullptr;
  };
  env.checkpointing = checkpointing;
  env.restored_id = restored_id;
  // Consumers drain up to this many already-queued elements per lock
  // acquisition; PopBatch never waits to fill a batch, so a larger value
  // costs no latency.
  env.pop_batch_max =
      std::max<std::size_t>(std::size_t{1}, options.exchange_batch_size);
  return env;
}

void RunCoordinator::Progress(std::int32_t worker, Timestamp through) {
  for (const Timestamp done : tracker.Update(worker, through)) {
    metrics.MarkComplete(done);
  }
}

void RunCoordinator::StartSampler() {
  if (options.sample_interval_ms <= 0) return;
  sampler_.emplace(stats_registry, options.sample_interval_ms);
  sampler_->Start();
}

IcpeResult RunCoordinator::Finish(
    const char* process_name, std::vector<flow::ProcessTrace> remote_traces) {
  if (sampler_) sampler_->Stop();
  const bool was_crashed = crashed.load();
  if (!was_crashed) {
    COMOVE_CHECK_MSG(tracker.pending() == 0,
                     "pipeline drained with incomplete snapshots");
  }

  IcpeResult result;
  static_cast<RunCounters&>(result) = counters.Load();
  result.crashed = was_crashed;
  result.last_checkpoint_id =
      checkpoints ? checkpoints->last_completed() : restored_id;
  if (checkpoints) {
    result.checkpoints_completed = checkpoints->completed_count();
    result.checkpoints_failed = checkpoints->failed_count();
  }
  // Collectors follow plan order: the primary query (unless kNone), then
  // the extras.
  std::size_t q = 0;
  if (options.enumerator != EnumeratorKind::kNone) {
    result.patterns = folds.collectors[q++].Patterns();
  }
  for (; q < folds.collectors.size(); ++q) {
    result.extra_patterns.push_back(folds.collectors[q].Patterns());
  }
  result.snapshots = metrics.Collect();
  if (collect_stats) result.stage_stats = stats_registry.Snapshot();
  if (sampler_) result.time_series = sampler_->samples();
  if (tr != nullptr) {
    // Workers are joined: the recorder is quiesced and safe to read.
    std::vector<flow::ProcessTrace> processes;
    processes.push_back(flow::ProcessTrace{process_name, 1, tr->Events(),
                                           tr->recorded(), tr->dropped()});
    for (flow::ProcessTrace& proc : remote_traces) {
      processes.push_back(std::move(proc));
    }
    std::vector<flow::TraceEvent> merged;
    for (const flow::ProcessTrace& proc : processes) {
      merged.insert(merged.end(), proc.events.begin(), proc.events.end());
      result.trace_events += proc.recorded;
      result.trace_dropped += proc.dropped;
    }
    result.worst_snapshots = flow::BuildWorstSnapshotBreakdown(
        merged, metrics.PerSnapshot(), kWorstSnapshots);
    if (!options.trace_path.empty()) {
      std::ofstream out(options.trace_path);
      COMOVE_CHECK_MSG(out.good(), "cannot open trace_path %s",
                       options.trace_path.c_str());
      flow::WriteChromeTraceMerged(processes, out);
    }
  }
  result.avg_cluster_ms = cluster_time.Average();
  result.avg_enum_ms = enum_time.Average();
  result.avg_cluster_size =
      result.cluster_count > 0
          ? static_cast<double>(result.cluster_member_sum) /
                static_cast<double>(result.cluster_count)
          : 0.0;
  return result;
}

}  // namespace comove::core
