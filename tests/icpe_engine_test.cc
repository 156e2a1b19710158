#include "core/icpe_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>

#include "cluster/clustering.h"
#include "core/completion_tracker.h"
#include "core/stage_workers.h"
#include "flow/channel.h"
#include "pattern/partition.h"
#include "pattern/reference_enumerator.h"
#include "trajgen/brinkhoff_generator.h"
#include "trajgen/dataset.h"

namespace comove::core {
namespace {

using trajgen::Dataset;
using trajgen::DatasetBuilder;

std::set<std::vector<TrajectoryId>> ObjectSets(
    const std::vector<CoMovementPattern>& patterns) {
  std::set<std::vector<TrajectoryId>> out;
  for (const auto& p : patterns) out.insert(p.objects);
  return out;
}

/// Offline oracle: cluster every snapshot with the brute-force join, then
/// exhaustively enumerate patterns.
std::set<std::vector<TrajectoryId>> OfflineOracle(
    const Dataset& dataset, const IcpeOptions& options) {
  std::vector<ClusterSnapshot> clustered;
  for (const Snapshot& s : dataset.ToSnapshots()) {
    clustered.push_back(cluster::DbscanFromNeighbors(
        s, cluster::RangeJoinBrute(s, options.cluster_options.join.eps),
        options.cluster_options.dbscan));
  }
  return ObjectSets(
      pattern::ReferenceEnumerate(clustered, options.constraints));
}

/// A deterministic hand-built dataset with two groups that move together,
/// split briefly, and rejoin - plus noise objects.
Dataset TwoGroupDataset() {
  DatasetBuilder b("two-groups");
  const Timestamp duration = 14;
  for (Timestamp t = 0; t < duration; ++t) {
    // Group A: ids 0..2 around (t, 0); breaks apart at t in [6, 7].
    for (TrajectoryId id = 0; id < 3; ++id) {
      double dy = 0.1 * id;
      if ((t == 6 || t == 7) && id == 2) dy += 50.0;  // straggler
      b.Add(id, t, Point{static_cast<double>(t), dy});
    }
    // Group B: ids 3..5 around (0, t).
    for (TrajectoryId id = 3; id < 6; ++id) {
      b.Add(id, t, Point{100.0 + 0.1 * id, static_cast<double>(t)});
    }
    // Noise: ids 6..7 far away, moving apart.
    b.Add(6, t, Point{500.0 + 30.0 * t, 500.0});
    b.Add(7, t, Point{500.0, 900.0 - 30.0 * t});
  }
  return b.Finalize();
}

IcpeOptions BaseOptions() {
  IcpeOptions options;
  options.cluster_options.join =
      cluster::RangeJoinOptions{.grid_cell_width = 5.0, .eps = 1.0};
  options.cluster_options.dbscan = cluster::DbscanOptions{2};
  options.constraints = PatternConstraints{2, 4, 2, 2};
  options.parallelism = 3;
  return options;
}

TEST(IcpeEngine, FindsGroupPatternsEndToEnd) {
  const Dataset dataset = TwoGroupDataset();
  IcpeOptions options = BaseOptions();
  options.constraints = PatternConstraints{3, 4, 2, 2};
  const IcpeResult result = RunIcpe(dataset, options);
  const auto sets = ObjectSets(result.patterns);
  EXPECT_TRUE(sets.count({0, 1, 2}));
  EXPECT_TRUE(sets.count({3, 4, 5}));
  // Noise objects never pattern.
  for (const auto& objects : sets) {
    EXPECT_FALSE(std::binary_search(objects.begin(), objects.end(), 6));
    EXPECT_FALSE(std::binary_search(objects.begin(), objects.end(), 7));
  }
  EXPECT_EQ(result.snapshot_count, 14);
  EXPECT_EQ(result.snapshots.snapshots, 14);
  EXPECT_GT(result.snapshots.throughput_tps, 0.0);
}

struct EngineConfig {
  EnumeratorKind enumerator;
  cluster::ClusteringMethod clustering;
  std::int32_t parallelism;
};

class IcpeEngineMatrix : public ::testing::TestWithParam<EngineConfig> {};

TEST_P(IcpeEngineMatrix, MatchesOfflineOracle) {
  const EngineConfig config = GetParam();
  const Dataset dataset = TwoGroupDataset();
  IcpeOptions options = BaseOptions();
  options.enumerator = config.enumerator;
  options.clustering = config.clustering;
  options.parallelism = config.parallelism;
  const IcpeResult result = RunIcpe(dataset, options);
  EXPECT_EQ(ObjectSets(result.patterns), OfflineOracle(dataset, options));
}

INSTANTIATE_TEST_SUITE_P(
    Configs, IcpeEngineMatrix,
    ::testing::Values(
        EngineConfig{EnumeratorKind::kBA, cluster::ClusteringMethod::kRJC,
                     1},
        EngineConfig{EnumeratorKind::kFBA, cluster::ClusteringMethod::kRJC,
                     1},
        EngineConfig{EnumeratorKind::kVBA, cluster::ClusteringMethod::kRJC,
                     1},
        EngineConfig{EnumeratorKind::kFBA, cluster::ClusteringMethod::kSRJ,
                     2},
        EngineConfig{EnumeratorKind::kFBA, cluster::ClusteringMethod::kGDC,
                     3},
        EngineConfig{EnumeratorKind::kVBA, cluster::ClusteringMethod::kRJC,
                     4},
        EngineConfig{EnumeratorKind::kBA, cluster::ClusteringMethod::kRJC,
                     4}));

TEST(IcpeEngine, GeneratedWorkloadConsistentAcrossParallelism) {
  trajgen::BrinkhoffOptions gen;
  gen.object_count = 60;
  gen.duration = 40;
  gen.group_count = 5;
  gen.group_size = 5;
  gen.group_jitter = 2.0;
  const Dataset dataset = GenerateBrinkhoff(gen, 99);

  IcpeOptions options;
  options.cluster_options.join =
      cluster::RangeJoinOptions{.grid_cell_width = 60.0, .eps = 12.0};
  options.cluster_options.dbscan = cluster::DbscanOptions{3};
  options.constraints = PatternConstraints{3, 6, 3, 2};
  options.enumerator = EnumeratorKind::kFBA;

  options.parallelism = 1;
  const auto p1 = ObjectSets(RunIcpe(dataset, options).patterns);
  options.parallelism = 4;
  const auto p4 = ObjectSets(RunIcpe(dataset, options).patterns);
  options.enumerator = EnumeratorKind::kVBA;
  const auto v4 = ObjectSets(RunIcpe(dataset, options).patterns);

  EXPECT_EQ(p1, p4);
  EXPECT_EQ(p1, v4);
  EXPECT_FALSE(p1.empty());  // seeded groups must surface as patterns
}

TEST(IcpeEngine, CollectStatsExposesPerStageCounters) {
  const Dataset dataset = TwoGroupDataset();
  IcpeOptions options = BaseOptions();
  options.collect_stats = true;
  const IcpeResult result = RunIcpe(dataset, options);

  ASSERT_EQ(result.stage_stats.size(), 2u);
  EXPECT_EQ(result.stage_stats[0].stage, "assembler->cluster");
  EXPECT_EQ(result.stage_stats[1].stage, "cluster->enumerate");
  // All 14 snapshots crossed the assembler->cluster exchange.
  EXPECT_EQ(result.stage_stats[0].records_pushed, 14);
  for (const flow::StageStatsSnapshot& s : result.stage_stats) {
    EXPECT_EQ(s.records_pushed, s.records_popped) << s.stage;
    EXPECT_EQ(s.watermarks_pushed, s.watermarks_popped) << s.stage;
    EXPECT_EQ(s.queue_depth, 0) << s.stage;
    EXPECT_GT(s.max_queue_depth, 0) << s.stage;
  }
  // Percentile latencies accompany the paper's average/max.
  EXPECT_GT(result.snapshots.p50_latency_ms, 0.0);
  EXPECT_LE(result.snapshots.p50_latency_ms,
            result.snapshots.p99_latency_ms);
}

TEST(IcpeEngine, StatsOffByDefaultLeavesTableEmpty) {
  const Dataset dataset = TwoGroupDataset();
  const IcpeResult result = RunIcpe(dataset, BaseOptions());
  EXPECT_TRUE(result.stage_stats.empty());
}

TEST(IcpeEngine, ClusteringOnlyRunHasNoEnumerateRow) {
  // No enumerate stage runs, so, as in a distributed run, no
  // cluster->enumerate row appears: not in the final table and not in
  // any sample of the time series.
  const Dataset dataset = TwoGroupDataset();
  IcpeOptions options = BaseOptions();
  options.enumerator = EnumeratorKind::kNone;
  options.collect_stats = true;
  options.sample_interval_ms = 1;
  const IcpeResult result = RunIcpe(dataset, options);
  ASSERT_EQ(result.stage_stats.size(), 1u);
  EXPECT_EQ(result.stage_stats[0].stage, "assembler->cluster");
  ASSERT_FALSE(result.time_series.empty());
  for (const flow::MetricsSample& sample : result.time_series) {
    for (const flow::StageSample& stage : sample.stages) {
      EXPECT_NE(stage.stage, "cluster->enumerate");
    }
  }
}

TEST(IcpeEngine, ClusteringOnlyModeReportsMetrics) {
  const Dataset dataset = TwoGroupDataset();
  IcpeOptions options = BaseOptions();
  options.enumerator = EnumeratorKind::kNone;
  const IcpeResult result = RunIcpe(dataset, options);
  EXPECT_TRUE(result.patterns.empty());
  EXPECT_EQ(result.snapshots.snapshots, 14);
  EXPECT_GT(result.avg_cluster_ms, 0.0);
  EXPECT_GT(result.cluster_count, 0);
  EXPECT_GE(result.avg_cluster_size, 2.0);
}

TEST(IcpeEngine, EmptyDatasetRunsClean) {
  Dataset dataset;
  dataset.name = "empty";
  const IcpeResult result = RunIcpe(dataset, BaseOptions());
  EXPECT_TRUE(result.patterns.empty());
  EXPECT_EQ(result.snapshot_count, 0);
}

/// A Brinkhoff workload with six seeded groups, dense enough that every
/// exchange carries real traffic at parallelism 3.
Dataset BrinkhoffWorkload(std::uint64_t seed) {
  trajgen::BrinkhoffOptions gen;
  gen.object_count = 70;
  gen.duration = 45;
  gen.group_count = 6;
  gen.group_size = 5;
  return GenerateBrinkhoff(gen, seed);
}

IcpeOptions BrinkhoffOptions() {
  IcpeOptions options;
  options.cluster_options.join =
      cluster::RangeJoinOptions{.grid_cell_width = 70.0, .eps = 14.0};
  options.cluster_options.dbscan = cluster::DbscanOptions{3};
  options.constraints = PatternConstraints{3, 6, 2, 2};
  options.parallelism = 3;
  return options;
}

TEST(IcpeParallelJoin, PartitionEdgeCarriesOneGroupPerSnapshotAndSubtask) {
  // The cluster -> enumerate edge moves one element per (snapshot,
  // destination subtask) however many partitions a snapshot makes, so a
  // channel's capacity bounds snapshots in flight and patterns do not
  // depend on it.
  const Dataset dataset = BrinkhoffWorkload(43);
  IcpeOptions options = BrinkhoffOptions();
  options.collect_stats = true;
  std::int64_t partitions = 0;
  for (const Snapshot& s : dataset.ToSnapshots()) {
    partitions += static_cast<std::int64_t>(
        pattern::MakePartitions(
            cluster::DbscanFromNeighbors(
                s, cluster::RangeJoinBrute(s, options.cluster_options.join.eps),
                options.cluster_options.dbscan),
            options.constraints)
            .size());
  }
  std::vector<CoMovementPattern> reference;
  for (const std::int32_t p : {1, 3}) {
    for (const std::size_t capacity : {std::size_t{2}, std::size_t{128}}) {
      options.parallelism = p;
      options.channel_capacity = capacity;
      const IcpeResult result = RunIcpe(dataset, options);
      // More partitions than snapshots x subtasks: one element per
      // partition could not fit under the bound below.
      ASSERT_GT(partitions, result.snapshot_count * p);
      const auto edge = std::find_if(
          result.stage_stats.begin(), result.stage_stats.end(),
          [](const auto& row) { return row.stage == "cluster->enumerate"; });
      ASSERT_NE(edge, result.stage_stats.end());
      EXPECT_LE(edge->records_pushed, result.snapshot_count * p)
          << "p=" << p << " capacity=" << capacity;
      if (reference.empty()) {
        reference = result.patterns;
        EXPECT_FALSE(reference.empty());
      } else {
        EXPECT_EQ(result.patterns, reference)
            << "p=" << p << " capacity=" << capacity;
      }
    }
  }
}

TEST(StageWorkers, EnumerateTimeSamplesOncePerTick) {
  // avg_enum_ms is a per-tick mean: the closing work AdvanceTime does
  // after each aligned watermark adds time to the total but no sample.
  IcpeOptions options;
  options.constraints = PatternConstraints{2, 2, 1, 1};
  const QueryPlan plan = BuildQueryPlan(options);
  FaultInjector injector(options.fault);
  std::atomic<bool> crashed{false};
  StageEnv env;
  env.options = &options;
  env.injector = &injector;
  env.crashed = &crashed;
  env.restored_state = [](const char*, std::int32_t) -> const std::string* {
    return nullptr;
  };
  TimeAccumulator enum_time;
  PipelineCounters counters;
  PatternFolds folds(plan.queries.size());
  EnumerateStageEnv eenv;
  eenv.queries = &plan.queries;
  eenv.enum_time = &enum_time;
  eenv.counters = &counters;
  eenv.producers = 1;
  eenv.commit = &folds;
  eenv.progress = [](std::int32_t, Timestamp) {};

  // Three ticks, each one partition group followed by its watermark:
  // objects 0 and 1 share a cluster throughout.
  using GroupElement = flow::Element<pattern::PartitionGroup>;
  flow::Channel<GroupElement> input(16);
  input.RegisterProducer();
  for (Timestamp t = 0; t < 3; ++t) {
    input.Push(GroupElement::Data(
        pattern::PartitionGroup{t, {pattern::Partition{0, t, {1}}}}, 0));
    input.Push(GroupElement::Watermark(t, 0));
  }
  input.CloseProducer();
  RunEnumerateSubtask(0, env, eenv, input);

  EXPECT_EQ(enum_time.count, 3);
  EXPECT_FALSE(folds.collectors[0].Patterns().empty());
}

TEST(CompletionTracker, CompletesAtMinWorkerProgress) {
  CompletionTracker tracker(3);
  tracker.Register(1);
  tracker.Register(2);
  tracker.Register(5);
  EXPECT_TRUE(tracker.Update(0, 10).empty());
  EXPECT_TRUE(tracker.Update(1, 2).empty());
  const auto done = tracker.Update(2, 3);
  EXPECT_EQ(done, (std::vector<Timestamp>{1, 2}));
  EXPECT_EQ(tracker.pending(), 1u);
  EXPECT_TRUE(tracker.Update(1, 99).empty());  // worker 2 still at 3
  EXPECT_EQ(tracker.Update(2, 99), (std::vector<Timestamp>{5}));
  EXPECT_EQ(tracker.pending(), 0u);
}

TEST(CompletionTracker, ProgressNeverRegresses) {
  CompletionTracker tracker(2);
  tracker.Register(4);
  tracker.Update(0, 10);
  tracker.Update(1, 10);  // completes 4
  tracker.Register(7);
  // A stale report must not regress progress: the frontier is still 10,
  // so 7 completes immediately despite the lower through-value.
  EXPECT_EQ(tracker.Update(0, 3), (std::vector<Timestamp>{7}));
}

}  // namespace
}  // namespace comove::core
