#include "cluster/join_kernel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "cluster/clustering.h"
#include "cluster/range_join.h"
#include "common/rng.h"
#include "core/icpe_engine.h"
#include "trajgen/brinkhoff_generator.h"

namespace comove::cluster {
namespace {

/// Random snapshot specialised for kernel torture: a fraction of the
/// points is snapped to a coarse lattice (creating exact ties on y, on x,
/// and on both - the Lemma 1 tie-break paths), and a fraction duplicates
/// an earlier point exactly (coincident locations with distinct ids).
Snapshot TieHeavySnapshot(Rng* rng, int n, double extent) {
  Snapshot s;
  s.time = 0;
  for (TrajectoryId id = 0; id < n; ++id) {
    Point p{rng->Uniform(0, extent), rng->Uniform(0, extent)};
    if (rng->Bernoulli(0.4)) {
      // Snap to a half-unit lattice: many exact coordinate ties.
      p.x = std::floor(p.x * 2.0) / 2.0;
      p.y = std::floor(p.y * 2.0) / 2.0;
    }
    if (!s.entries.empty() && rng->Bernoulli(0.1)) {
      // Exact duplicate of a random earlier point.
      const auto pick = static_cast<std::size_t>(rng->UniformInt(
          0, static_cast<std::int64_t>(s.entries.size()) - 1));
      p = s.entries[pick].location;
    }
    s.entries.push_back({id, p});
  }
  return s;
}

RangeJoinOptions WithKernel(const RangeJoinOptions& base, JoinKernel kernel) {
  RangeJoinOptions options = base;
  options.kernel = kernel;
  return options;
}

TEST(JoinKernel, Names) {
  EXPECT_STREQ(JoinKernelName(JoinKernel::kRTree), "rtree");
  EXPECT_STREQ(JoinKernelName(JoinKernel::kSweep), "sweep");
}

TEST(JoinKernel, SweepIsTheDefault) {
  EXPECT_EQ(RangeJoinOptions{}.kernel, JoinKernel::kSweep);
}

struct KernelSweepCase {
  std::uint64_t seed;
  int n;
  double eps_over_cell;  ///< eps as a multiple of the grid cell width
  DistanceMetric metric;
};

class JoinKernelRandomized
    : public ::testing::TestWithParam<KernelSweepCase> {};

/// The randomized property pinning the tentpole: on tie-heavy snapshots
/// (coincident points, exact y/x ties) the sweep kernel, the R-tree
/// kernel, and the O(n^2) brute force all produce the identical,
/// duplicate-free pair list - under both metrics, every lemma ablation,
/// and eps below/at/above the cell width.
TEST_P(JoinKernelRandomized, SweepMatchesRTreeAndBruteForce) {
  const KernelSweepCase p = GetParam();
  Rng rng(p.seed);
  const Snapshot s = TieHeavySnapshot(&rng, p.n, /*extent=*/30.0);
  RangeJoinOptions base{.grid_cell_width = 2.0,
                        .eps = 2.0 * p.eps_over_cell};
  base.metric = p.metric;
  const auto brute = RangeJoinBrute(s, base.eps, p.metric);
  // Duplicate-free by construction of RangeJoinBrute (unique index pairs).
  for (const RangeJoinVariant variant :
       {RangeJoinVariant{true, true}, RangeJoinVariant{false, true},
        RangeJoinVariant{true, false}, RangeJoinVariant{false, false}}) {
    const auto sweep =
        RangeJoinRJC(s, WithKernel(base, JoinKernel::kSweep), variant);
    const auto rtree =
        RangeJoinRJC(s, WithKernel(base, JoinKernel::kRTree), variant);
    EXPECT_EQ(sweep, rtree) << "lemma1=" << variant.use_lemma1
                            << " lemma2=" << variant.use_lemma2;
    EXPECT_EQ(sweep, brute) << "lemma1=" << variant.use_lemma1
                            << " lemma2=" << variant.use_lemma2;
    EXPECT_EQ(std::adjacent_find(sweep.begin(), sweep.end()), sweep.end())
        << "duplicate pair emitted";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, JoinKernelRandomized,
    ::testing::Values(
        // eps = 0.5 / 1.0 / 2.0 x cell width, both metrics.
        KernelSweepCase{101, 300, 0.5, DistanceMetric::kL1},
        KernelSweepCase{102, 300, 1.0, DistanceMetric::kL1},
        KernelSweepCase{103, 300, 2.0, DistanceMetric::kL1},
        KernelSweepCase{104, 300, 0.5, DistanceMetric::kL2},
        KernelSweepCase{105, 300, 1.0, DistanceMetric::kL2},
        KernelSweepCase{106, 300, 2.0, DistanceMetric::kL2},
        KernelSweepCase{107, 800, 1.0, DistanceMetric::kL1},
        KernelSweepCase{108, 3, 1.0, DistanceMetric::kL2},
        KernelSweepCase{109, 60, 2.0, DistanceMetric::kL1}));

TEST(JoinKernel, CoincidentPointsAndAxisTies) {
  // Hand-built Lemma 1 corners: coincident triple, same-y cross-cell
  // pair, same-x cross-cell pair - the sweep must claim each exactly
  // once, like the R-tree path.
  Snapshot s;
  s.time = 0;
  s.entries = {{0, Point{1, 1}},    {1, Point{1, 1}},   {2, Point{1, 1}},
               {3, Point{2.9, 5}},  {4, Point{3.1, 5}},  // y tie, x breaks
               {5, Point{5, 2.9}},  {6, Point{5, 3.1}},  // x tie, y differs
               {7, Point{7, 7}},    {8, Point{7, 7}}};   // coincident pair
  RangeJoinOptions options{.grid_cell_width = 3.0, .eps = 0.5};
  const auto brute = RangeJoinBrute(s, options.eps);
  EXPECT_EQ(RangeJoinRJC(s, WithKernel(options, JoinKernel::kSweep)), brute);
  EXPECT_EQ(RangeJoinRJC(s, WithKernel(options, JoinKernel::kRTree)), brute);
}

TEST(JoinKernel, SweepScratchReuseAcrossSnapshots) {
  // One JoinScratch streamed over many snapshots with the sweep kernel
  // must match fresh joins every time (cleared SoA columns never leak).
  Rng rng(21);
  JoinScratch scratch;
  RangeJoinOptions options{.grid_cell_width = 1.0, .eps = 0.7};
  for (int i = 0; i < 10; ++i) {
    const Snapshot s = TieHeavySnapshot(&rng, 50 + 40 * i, 10.0);
    EXPECT_EQ(RangeJoinRJC(s, options, {}, scratch),
              RangeJoinBrute(s, options.eps))
        << "snapshot " << i;
  }
}

TEST(JoinKernel, ClusterSnapshotsBitIdenticalAcrossKernels) {
  // The full per-snapshot path (join + CSR DBSCAN): identical
  // ClusterSnapshots from both kernels, both metrics, RJC and SRJ.
  Rng rng(31);
  const Snapshot s = TieHeavySnapshot(&rng, 600, 40.0);
  for (const auto metric : {DistanceMetric::kL1, DistanceMetric::kL2}) {
    for (const auto method :
         {ClusteringMethod::kRJC, ClusteringMethod::kSRJ}) {
      ClusteringOptions options;
      options.join = RangeJoinOptions{.grid_cell_width = 3.0, .eps = 1.5};
      options.join.metric = metric;
      options.dbscan = DbscanOptions{4};
      options.join.kernel = JoinKernel::kSweep;
      const auto sweep = ClusterSnapshotWith(method, s, options);
      options.join.kernel = JoinKernel::kRTree;
      const auto rtree = ClusterSnapshotWith(method, s, options);
      ASSERT_EQ(sweep.clusters.size(), rtree.clusters.size());
      for (std::size_t i = 0; i < sweep.clusters.size(); ++i) {
        EXPECT_EQ(sweep.clusters[i].members, rtree.clusters[i].members);
        EXPECT_EQ(sweep.clusters[i].cluster_id, rtree.clusters[i].cluster_id);
      }
    }
  }
}

TEST(DbscanScratch, ReusedScratchMatchesFreshRuns) {
  // The CSR DBSCAN's scratch (offsets, adjacency, BFS state, cluster
  // ranks) reused across snapshots of different sizes must never leak
  // state between calls.
  Rng rng(41);
  DbscanScratch scratch;
  for (int i = 0; i < 8; ++i) {
    const Snapshot s = TieHeavySnapshot(&rng, 30 + 70 * i, 15.0);
    const auto pairs = RangeJoinBrute(s, 1.0);
    const DbscanOptions options{3};
    const auto fresh = DbscanFromNeighbors(s, pairs, options);
    const auto reused = DbscanFromNeighbors(s, pairs, options, scratch);
    ASSERT_EQ(fresh.clusters.size(), reused.clusters.size()) << i;
    for (std::size_t c = 0; c < fresh.clusters.size(); ++c) {
      EXPECT_EQ(fresh.clusters[c].members, reused.clusters[c].members);
    }
  }
}

TEST(SortUniquePairs, MatchesComparisonSortOnLargeStreams) {
  // Above the radix threshold (4096 pairs) the packed-key radix path must
  // produce exactly std::sort + std::unique, duplicates and all.
  Rng rng(61);
  std::vector<NeighborPair> pairs;
  for (int i = 0; i < 60000; ++i) {
    // Mix small ids (heavy duplication) with ids needing all 32 bits.
    const bool wide = rng.Bernoulli(0.3);
    const TrajectoryId a = static_cast<TrajectoryId>(
        rng.UniformInt(0, wide ? 2000000000 : 500));
    const TrajectoryId b = static_cast<TrajectoryId>(
        rng.UniformInt(0, wide ? 2000000000 : 500));
    pairs.push_back(CanonicalPair(a, b));
  }
  std::vector<NeighborPair> expect = pairs;
  std::sort(expect.begin(), expect.end());
  expect.erase(std::unique(expect.begin(), expect.end()), expect.end());
  SortUniquePairs(pairs);
  EXPECT_EQ(pairs, expect);
}

TEST(SortUniquePairs, IdsStraddlingThirtyTwoBitsFallBackToComparisonSort) {
  // Regression: PackedKey truncates each id to 32 bits, so ids above 2^32
  // used to scramble the radix order (e.g. 2^32 truncates to 0, sorting
  // BELOW small ids) and break the dedup. The guard must detect wide ids
  // and take the comparison fallback.
  Rng rng(71);
  const TrajectoryId wide_base = TrajectoryId{1} << 32;
  std::vector<NeighborPair> pairs;
  for (int i = 0; i < 20000; ++i) {
    // Ids straddle 2^32: small values mixed with just-above-the-boundary
    // values whose truncation collides with the small ones.
    const bool wide_a = rng.Bernoulli(0.5);
    const bool wide_b = rng.Bernoulli(0.5);
    const TrajectoryId a = static_cast<TrajectoryId>(
        rng.UniformInt(0, 500)) + (wide_a ? wide_base : 0);
    const TrajectoryId b = static_cast<TrajectoryId>(
        rng.UniformInt(0, 500)) + (wide_b ? wide_base : 0);
    pairs.push_back(CanonicalPair(a, b));
  }
  std::vector<NeighborPair> expect = pairs;
  std::sort(expect.begin(), expect.end());
  expect.erase(std::unique(expect.begin(), expect.end()), expect.end());
  SortUniquePairs(pairs);
  EXPECT_EQ(pairs, expect);
}

TEST(SortUniquePairs, NegativeIdsFallBackToComparisonSort) {
  // Negative ids cannot use the unsigned packed key; the fallback must
  // still deliver the canonical order.
  Rng rng(67);
  std::vector<NeighborPair> pairs;
  for (int i = 0; i < 10000; ++i) {
    pairs.push_back(CanonicalPair(
        static_cast<TrajectoryId>(rng.UniformInt(-300, 300)),
        static_cast<TrajectoryId>(rng.UniformInt(-300, 300))));
  }
  std::vector<NeighborPair> expect = pairs;
  std::sort(expect.begin(), expect.end());
  expect.erase(std::unique(expect.begin(), expect.end()), expect.end());
  SortUniquePairs(pairs);
  EXPECT_EQ(pairs, expect);
}

std::set<std::vector<TrajectoryId>> ObjectSets(
    const std::vector<CoMovementPattern>& patterns) {
  std::set<std::vector<TrajectoryId>> out;
  for (const auto& p : patterns) out.insert(p.objects);
  return out;
}

TEST(JoinKernel, EnginePipelinesBitIdenticalAcrossKernels) {
  // End-to-end acceptance: the sweep kernel is semantically invisible in
  // RunIcpe across both metrics.
  trajgen::BrinkhoffOptions gen;
  gen.object_count = 60;
  gen.duration = 35;
  gen.group_count = 5;
  gen.group_size = 5;
  const trajgen::Dataset dataset = GenerateBrinkhoff(gen, 53);
  for (const auto metric : {DistanceMetric::kL1, DistanceMetric::kL2}) {
    core::IcpeOptions options;
    options.cluster_options.join =
        RangeJoinOptions{.grid_cell_width = 70.0, .eps = 14.0};
    options.cluster_options.join.metric = metric;
    options.cluster_options.dbscan = DbscanOptions{3};
    options.constraints = PatternConstraints{3, 6, 2, 2};
    options.parallelism = 3;
    options.cluster_options.join.kernel = JoinKernel::kRTree;
    const core::IcpeResult rtree = RunIcpe(dataset, options);
    options.cluster_options.join.kernel = JoinKernel::kSweep;
    const core::IcpeResult sweep = RunIcpe(dataset, options);
    const auto label = [&] {
      return ::testing::Message() << "metric=" << DistanceMetricName(metric);
    };
    EXPECT_EQ(ObjectSets(sweep.patterns), ObjectSets(rtree.patterns))
        << label();
    EXPECT_EQ(sweep.snapshot_count, rtree.snapshot_count) << label();
    EXPECT_EQ(sweep.cluster_count, rtree.cluster_count) << label();
    EXPECT_EQ(sweep.avg_cluster_size, rtree.avg_cluster_size) << label();
    EXPECT_FALSE(sweep.patterns.empty()) << label();
  }
}

}  // namespace
}  // namespace comove::cluster
