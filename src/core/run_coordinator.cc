#include "core/run_coordinator.h"

#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"

namespace comove::core {
namespace {

/// How many of the slowest snapshots get a per-stage breakdown.
constexpr std::size_t kWorstSnapshots = 5;

}  // namespace

RunCoordinator::RunCoordinator(const trajgen::Dataset& dataset,
                               const IcpeOptions& options,
                               bool local_exchanges)
    : options(options),
      plan(BuildQueryPlan(options)),
      // The sampler reads the same counters, so sampling implies stats.
      collect_stats(options.collect_stats || options.sample_interval_ms > 0),
      checkpointing(options.checkpoint_interval > 0),
      // Zero-cost when off: `tr` stays null and every record site is one
      // untaken branch. A trace_path gets a run-owned recorder whose
      // events are written on exit.
      tr(!options.trace_path.empty() ? &owned_trace.emplace() : nullptr),
      injector(options.fault),
      metrics(options.parallelism),
      folds(plan.queries.size()) {
  COMOVE_CHECK(options.constraints.IsValid());
  if (local_exchanges) {
    snapshot_stats = StatsFor("assembler->cluster");
    if (plan.enumerate()) partition_stats = StatsFor("cluster->enumerate");
  }
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
  // on_pattern fires once per committed pattern: at a checkpoint's
  // persistence, or for a tail at Finish. Only an in-process run without
  // checkpointing fires at emission instead (Env): there every emission
  // is final.
  if (checkpointing || !local_exchanges) folds.on_commit = options.on_pattern;
  if (options.recover) {
    restored = options.snapshot_store->ReadLatest();
    if (restored) {
      COMOVE_CHECK_MSG(restored->fingerprint == fingerprint,
                       "checkpoint fingerprint mismatch: the store was "
                       "written by a different dataset or pipeline shape");
      RefoldCommittedEpochs();
    }
  }
  restored_id = restored ? restored->id : 0;
  if (checkpointing) {
    // Every operator subtask acks every checkpoint: source and assembler
    // (both from the ingest subtask), p cluster and (when enumerating) p
    // enumerate subtasks, each of those twice - its state and its epoch.
    const std::int32_t p = options.parallelism;
    // The commit moves each epoch's staged collectors into the folds;
    // the epoch bytes were for the store.
    checkpoints.emplace(
        2 + p + (plan.enumerate() ? 2 * p : 0), options.snapshot_store,
        fingerprint, StatsFor("checkpoint"), restored_id,
        restored ? restored->crc : 0,
        [this](const std::vector<flow::OperatorState>& epochs) {
          for (const flow::OperatorState& epoch : epochs) {
            folds.CommitStaged(epoch.subtask);
          }
        },
        tr);
  }
  // Tracing ranks the worst snapshots by measured latency, which needs
  // the individual values, not just the histogram.
  if (tr != nullptr) metrics.KeepPerSnapshot(true);
}

void RunCoordinator::RefoldCommittedEpochs() {
  // Each bundle stages only the epochs since its predecessor, so the
  // committed output is that of the whole chain. Newest first, an older
  // epoch wins a tie on length, as it did when it committed first.
  const std::string broken = flow::VisitChain(
      *options.snapshot_store, *restored,
      [this](const flow::CheckpointBundle& bundle) {
        for (auto it = bundle.states.rbegin(); it != bundle.states.rend();
             ++it) {
          if (it->op != flow::kEpochOp) continue;
          COMOVE_CHECK_MSG(folds.RefoldEarlier(it->bytes),
                           "corrupt checkpoint: bundle %lld holds an "
                           "undecodable epoch",
                           static_cast<long long>(bundle.id));
        }
      });
  COMOVE_CHECK_MSG(broken.empty(), "corrupt checkpoint: %s",
                   broken.c_str());
  // The operator states stay for the subtasks; the epochs are folded.
  std::erase_if(restored->states, [](const flow::OperatorState& s) {
    return s.op == flow::kEpochOp;
  });
}

flow::StageStats* RunCoordinator::StatsFor(const std::string& stage) {
  return collect_stats ? &stats_registry.Get(stage) : nullptr;
}

StageEnv RunCoordinator::Env(std::function<void()> crash_all) {
  StageEnv env;
  env.options = &options;
  env.plan = &plan;
  env.counters = &counters;
  env.snapshot_stats = snapshot_stats;
  env.partition_stats = partition_stats;
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
  env.progress = [this](std::int32_t worker, Timestamp through) {
    metrics.Progress(worker, through);
  };
  if (checkpointing) {
    env.stage_epoch = [this](std::int32_t subtask,
                             std::vector<pattern::PatternCollector>&& epoch) {
      folds.Stage(subtask, std::move(epoch));
    };
  }
  // Whatever does not fire at commit (the constructor) fires here.
  if (options.on_pattern && !folds.on_commit) {
    env.on_pattern = [this](const CoMovementPattern& pat) {
      std::lock_guard<std::mutex> lock(on_pattern_mu_);
      options.on_pattern(pat);
    };
  }
  env.folds = &folds;
  env.checkpointing = checkpointing;
  env.restored_id = restored_id;
  return env;
}

void RunCoordinator::StartSampler() {
  if (options.sample_interval_ms <= 0) return;
  sampler_.emplace(stats_registry, options.sample_interval_ms);
  sampler_->Start();
}

IcpeResult RunCoordinator::Finish(
    const char* process_name, std::vector<flow::ProcessTrace> remote_traces) {
  if (sampler_) sampler_->Stop();
  // Every filed bundle persists and commits, a crashed run's too, before
  // the counts are read.
  if (checkpoints) checkpoints->Stop();
  const bool was_crashed = crashed.load();
  if (!was_crashed) {
    COMOVE_CHECK_MSG(metrics.pending() == 0,
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
  // the extras. A crashed run reports none, though its completed
  // checkpoints committed their epochs: the recovery run refolds those
  // and regenerates the rest. Tails commit last, behind every epoch,
  // the epochs of failed writes that no later bundle carried included.
  std::size_t q = 0;
  if (!was_crashed) {
    if (checkpoints) checkpoints->CommitCarried();
    folds.CommitTails();
    if (options.enumerator != EnumeratorKind::kNone) {
      result.patterns = folds.TakePatterns(q++);
    }
    for (; q < plan.queries.size(); ++q) {
      result.extra_patterns.push_back(folds.TakePatterns(q));
    }
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
  const auto ratio = [](std::int64_t total, std::int64_t count) {
    return count > 0
               ? static_cast<double>(total) / static_cast<double>(count)
               : 0.0;
  };
  result.avg_cluster_ms =
      ratio(result.cluster_ns, result.cluster_samples) / 1e6;
  result.avg_enum_ms = ratio(result.enum_ns, result.enum_samples) / 1e6;
  result.avg_cluster_size =
      ratio(result.cluster_member_sum, result.cluster_count);
  return result;
}

}  // namespace comove::core
