#include "core/icpe_engine.h"

#include <string>

#include "core/run_coordinator.h"
#include "core/stage_workers.h"
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
  // pure performance knobs (channel capacity, stats) are not.
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
  RunCoordinator run(dataset, options, /*local_exchanges=*/true);
  SnapshotExchange snapshot_exchange(1, p, options.channel_capacity,
                                     run.snapshot_stats);
  PartitionExchange partition_exchange(p, p, options.channel_capacity,
                                       run.partition_stats);

  // Simulates a process kill: every channel is cancelled so blocked
  // producers and consumers unwind instead of deadlocking on
  // backpressure, and all in-flight data is dropped. The environment
  // outlives the task group (workers hold references).
  const StageEnv env = run.Env([&] {
    run.crashed.store(true);
    snapshot_exchange.Cancel();
    partition_exchange.Cancel();
  });

  // Live time-series sampling runs for the whole pipeline lifetime,
  // including the drain; Finish stops it.
  run.StartSampler();

  flow::TaskGroup tasks;
  // --- Ingest: replays records, either in time order or
  // deterministically shuffled inside a sliding window, straight into the
  // §4 last-time synchronisation, which reassembles them into snapshots.
  tasks.Spawn([&] {
    RunIngestSubtask(dataset, env, snapshot_exchange, &run.metrics);
  });
  // --- Cluster workers: snapshot-parallel indexed clustering (§5.3).
  tasks.SpawnIndexed(p, [&](std::int32_t worker) {
    RunClusterSubtask(worker, env, snapshot_exchange.channel(worker),
                      partition_exchange);
  });
  // --- Enumeration workers: id-partitioned BA / FBA / VBA.
  if (run.plan.enumerate()) {
    tasks.SpawnIndexed(p, [&](std::int32_t worker) {
      RunEnumerateSubtask(worker, env, partition_exchange.channel(worker));
    });
  }
  tasks.JoinAll();
  return run.Finish("comove");
}

}  // namespace comove::core
