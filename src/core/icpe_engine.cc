#include "core/icpe_engine.h"

#include <mutex>
#include <string>

#include "core/run_coordinator.h"
#include "core/stage_workers.h"
#include "flow/exchange.h"
#include "flow/task_group.h"

namespace comove::core {

const char* EnumeratorKindName(EnumeratorKind kind) {
  switch (kind) {
    case EnumeratorKind::kBA:
      return "BA";
    case EnumeratorKind::kFBA:
      return "FBA";
    case EnumeratorKind::kVBA:
      return "VBA";
    case EnumeratorKind::kNone:
      return "none";
  }
  return "unknown";
}

std::string BuildFingerprint(const trajgen::Dataset& dataset,
                             const IcpeOptions& options) {
  // Everything that shapes the pipeline's state or routing is included;
  // pure performance knobs (batch size, channel capacity, stats) are not.
  // Deliberately also excludes how the pipeline is deployed (process
  // count, transport): a distributed run at the same parallelism may
  // restore a single-process checkpoint and vice versa.
  std::string fp = "records=" + std::to_string(dataset.records.size());
  fp += ";p=" + std::to_string(options.parallelism);
  fp += ";clustering=" +
        std::to_string(static_cast<int>(options.clustering));
  fp += ";eps=" + std::to_string(options.cluster_options.join.eps);
  fp += ";lg=" +
        std::to_string(options.cluster_options.join.grid_cell_width);
  fp += ";minpts=" +
        std::to_string(options.cluster_options.dbscan.min_pts);
  const auto add_query = [&fp](const PatternQuery& q) {
    fp += ";q=" + std::to_string(q.constraints.m) + "," +
          std::to_string(q.constraints.k) + "," +
          std::to_string(q.constraints.l) + "," +
          std::to_string(q.constraints.g) + "," +
          EnumeratorKindName(q.enumerator);
  };
  if (options.enumerator != EnumeratorKind::kNone) {
    add_query(PatternQuery{options.constraints, options.enumerator});
  }
  for (const PatternQuery& q : options.extra_queries) add_query(q);
  return fp;
}

IcpeResult RunIcpe(const trajgen::Dataset& dataset,
                   const IcpeOptions& options) {
  const std::int32_t p = options.parallelism;
  // Owns the stats registry, so it is declared before the exchanges that
  // hold pointers into it.
  RunCoordinator run(dataset, options,
                     {"source->assembler", "assembler->cluster",
                      "cluster->enumerate"});
  const bool enumerate = run.plan.enumerate();

  flow::Exchange<GpsRecord> source_exchange(
      1, 1, options.channel_capacity, run.StatsFor("source->assembler"));
  flow::Exchange<Snapshot> snapshot_exchange(
      1, p, options.channel_capacity, run.StatsFor("assembler->cluster"));
  flow::Exchange<pattern::Partition> partition_exchange(
      p, p, options.channel_capacity, run.StatsFor("cluster->enumerate"));

  // Simulates a process kill: every channel is cancelled so blocked
  // producers and consumers unwind instead of deadlocking on
  // backpressure, and all in-flight data is dropped.
  const StageEnv env = run.Env([&] {
    run.crashed.store(true);
    source_exchange.Cancel();
    snapshot_exchange.Cancel();
    partition_exchange.Cancel();
  });
  const ProgressFn progress = [&run](std::int32_t worker,
                                     Timestamp through) {
    run.Progress(worker, through);
  };

  // Stage environments outlive the task group (workers hold references).
  ClusterStageEnv cluster_env;
  cluster_env.cluster_time = &run.cluster_time;
  cluster_env.counters = &run.counters;
  cluster_env.cluster_stats = run.StatsFor("assembler->cluster");
  cluster_env.partition_constraints = &run.plan.partition_constraints;
  cluster_env.enumerate = enumerate;
  cluster_env.progress = progress;

  EnumerateStageEnv enumerate_env;
  enumerate_env.queries = &run.plan.queries;
  enumerate_env.enum_time = &run.enum_time;
  enumerate_env.counters = &run.counters;
  enumerate_env.enumerate_stats =
      enumerate ? run.StatsFor("cluster->enumerate") : nullptr;
  enumerate_env.producers = p;
  if (options.on_pattern) {
    enumerate_env.on_pattern = [&run](const CoMovementPattern& pat) {
      std::lock_guard<std::mutex> lock(run.folds.mu);
      run.options.on_pattern(pat);
    };
  }
  enumerate_env.commit = &run.folds;
  enumerate_env.progress = progress;

  // Live time-series sampling runs for the whole pipeline lifetime,
  // including the drain; Finish stops it.
  run.StartSampler();

  flow::TaskGroup tasks;
  // --- Source: replays records with birth-bound watermarks, either in
  // time order or deterministically shuffled inside a sliding window (the
  // §4 synchronisation then has to reassemble the chains downstream).
  tasks.Spawn([&] { RunSourceSubtask(dataset, env, source_exchange); });
  // --- Assembler: §4 last-time synchronisation into snapshots.
  tasks.Spawn([&] {
    RunAssemblerSubtask(env, source_exchange.channel(0), snapshot_exchange,
                        &run.metrics, &run.tracker, &run.counters,
                        run.StatsFor("source->assembler"));
  });
  // --- Cluster workers: snapshot-parallel indexed clustering (§5.3).
  tasks.SpawnIndexed(p, [&](std::int32_t worker) {
    RunClusterSubtask(worker, env, cluster_env,
                      snapshot_exchange.channel(worker), partition_exchange);
  });
  // --- Enumeration workers: id-partitioned BA / FBA / VBA.
  if (enumerate) {
    tasks.SpawnIndexed(p, [&](std::int32_t worker) {
      RunEnumerateSubtask(worker, env, enumerate_env,
                          partition_exchange.channel(worker));
    });
  }
  tasks.JoinAll();
  return run.Finish("comove");
}

}  // namespace comove::core
