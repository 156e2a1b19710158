#include "cluster/range_join.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_map>

#include "common/rng.h"

namespace comove::cluster {
namespace {

Snapshot MakeSnapshot(std::vector<std::pair<double, double>> points) {
  Snapshot s;
  s.time = 0;
  TrajectoryId id = 0;
  for (const auto& [x, y] : points) {
    s.entries.push_back({id++, Point{x, y}});
  }
  return s;
}

Snapshot RandomSnapshot(Rng* rng, int n, double extent,
                        bool clustered = false) {
  Snapshot s;
  s.time = 0;
  for (TrajectoryId id = 0; id < n; ++id) {
    Point p;
    if (clustered && rng->Bernoulli(0.7)) {
      const double cx = rng->Bernoulli(0.5) ? extent * 0.25 : extent * 0.75;
      const double cy = rng->Bernoulli(0.5) ? extent * 0.25 : extent * 0.75;
      p = Point{cx + rng->Gaussian(0, extent * 0.03),
                cy + rng->Gaussian(0, extent * 0.03)};
    } else {
      p = Point{rng->Uniform(0, extent), rng->Uniform(0, extent)};
    }
    s.entries.push_back({id, p});
  }
  return s;
}

TEST(RangeJoin, EmptySnapshot) {
  Snapshot s;
  RangeJoinOptions options{.grid_cell_width = 1.0, .eps = 0.5};
  EXPECT_TRUE(RangeJoinRJC(s, options).empty());
  EXPECT_TRUE(RangeJoinSRJ(s, options).empty());
}

TEST(RangeJoin, PaperFigure2Snapshot1) {
  // At time 1 in Fig. 2: RJ(O, eps) = {(o1,o2), (o3,o4), (o5,o6), (o6,o7)}.
  // Reconstruct a geometry with those adjacencies (ids 1..8; id 0 unused).
  Snapshot s;
  s.time = 1;
  const std::vector<std::pair<double, double>> pos = {
      {0, 10},   // o1
      {0.8, 10}, // o2  (|o1 o2| = 0.8 <= 1)
      {5, 5},    // o3
      {5.5, 5.4},// o4  (0.9)
      {10, 0},   // o5
      {10.6, 0.3},// o6 (0.9)
      {11.2, 0}, // o7  (o6-o7: 0.9; o5-o7: 1.2 > 1)
      {20, 20},  // o8  isolated
  };
  for (std::size_t i = 0; i < pos.size(); ++i) {
    s.entries.push_back({static_cast<TrajectoryId>(i + 1),
                         Point{pos[i].first, pos[i].second}});
  }
  RangeJoinOptions options{.grid_cell_width = 3.0, .eps = 1.0};
  const auto got = RangeJoinRJC(s, options);
  const std::vector<NeighborPair> expect = {
      {1, 2}, {3, 4}, {5, 6}, {6, 7}};
  EXPECT_EQ(got, expect);
}

TEST(RangeJoin, PairOnCellBoundaryFoundOnce) {
  // Two points straddling a cell border, within eps.
  const Snapshot s = MakeSnapshot({{2.95, 1.0}, {3.05, 1.0}});
  RangeJoinOptions options{.grid_cell_width = 3.0, .eps = 0.5};
  const auto got = RangeJoinRJC(s, options);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], (NeighborPair{0, 1}));
}

TEST(RangeJoin, CoincidentPointsReportedOnce) {
  // Identical coordinates is the nastiest Lemma 1 corner: both points'
  // upper regions contain each other.
  const Snapshot s = MakeSnapshot({{1, 1}, {1, 1}, {1, 1}});
  RangeJoinOptions options{.grid_cell_width = 2.0, .eps = 0.5};
  const auto got = RangeJoinRJC(s, options);
  const std::vector<NeighborPair> expect = {{0, 1}, {0, 2}, {1, 2}};
  EXPECT_EQ(got, expect);
}

TEST(RangeJoin, SameRowCrossCellPairReportedOnce) {
  // Equal y, different cells: the y-tie is broken by x.
  const Snapshot s = MakeSnapshot({{2.9, 5.0}, {3.1, 5.0}});
  RangeJoinOptions options{.grid_cell_width = 3.0, .eps = 1.0};
  const auto got = RangeJoinRJC(s, options);
  ASSERT_EQ(got.size(), 1u);
}

TEST(RangeJoin, DistanceExactlyEpsIncluded) {
  const Snapshot s = MakeSnapshot({{0, 0}, {0.6, 0.4}});
  RangeJoinOptions options{.grid_cell_width = 2.0, .eps = 1.0};
  EXPECT_EQ(RangeJoinRJC(s, options).size(), 1u);
}

TEST(RangeJoin, L1MetricNotChebyshev) {
  // (0.9, 0.9) is inside the square but L1 = 1.8 > eps = 1.
  const Snapshot s = MakeSnapshot({{0, 0}, {0.9, 0.9}});
  RangeJoinOptions options{.grid_cell_width = 2.0, .eps = 1.0};
  EXPECT_TRUE(RangeJoinRJC(s, options).empty());
}

TEST(RangeJoin, IdsStraddlingThirtyTwoBitsMatchBruteForce) {
  // GridSync picks its sort by the snapshot's ids once a snapshot has
  // radix-sized pair counts: the narrow radix tier for ids below 2^16,
  // the wide tier below 2^32 and the comparison sort from 2^32 on. One
  // reused scratch cycles through all three while the fleet drifts
  // across cell borders: small ids only, small ids alternating with ids
  // from 2^32 - 2 upward, and small ids alternating with ids just below
  // 2^32.
  const TrajectoryId base = (TrajectoryId{1} << 32) - 2;
  constexpr int kObjects = 500;
  for (const DistanceMetric metric :
       {DistanceMetric::kL1, DistanceMetric::kL2}) {
    Rng rng(11);
    std::vector<Point> at;
    for (int i = 0; i < kObjects; ++i) {
      at.push_back(Point{rng.Uniform(0, 6.0), rng.Uniform(0, 6.0)});
    }
    RangeJoinOptions options{.grid_cell_width = 2.0, .eps = 0.9};
    options.metric = metric;
    JoinScratch scratch;
    for (int t = 0; t < 10; ++t) {
      Snapshot s;
      s.time = t;
      for (int i = 0; i < kObjects; ++i) {
        TrajectoryId id = i;
        if (i % 2 == 1 && t % 3 == 1) id = base + i / 2;
        if (i % 2 == 1 && t % 3 == 2) id = base - i / 2;
        s.entries.push_back({id, at[static_cast<std::size_t>(i)]});
        at[static_cast<std::size_t>(i)].x += rng.Uniform(-0.4, 0.4);
        at[static_cast<std::size_t>(i)].y += rng.Uniform(-0.4, 0.4);
      }
      const std::vector<NeighborPair> brute = RangeJoinBrute(s, 0.9, metric);
      ASSERT_GE(brute.size(), 4096u) << "below the radix threshold";
      EXPECT_EQ(RangeJoinRJC(s, options, {}, scratch), brute)
          << "RJC t=" << t;
      EXPECT_EQ(RangeJoinSRJ(s, options, scratch), brute) << "SRJ t=" << t;
    }
  }
}

TEST(GridAllocate, Lemma1HalvesReplication) {
  Rng rng(3);
  const Snapshot s = RandomSnapshot(&rng, 500, 100.0);
  RangeJoinOptions options{.grid_cell_width = 2.0, .eps = 1.0};
  const auto with = GridAllocate(s, options, /*use_lemma1=*/true);
  const auto without = GridAllocate(s, options, /*use_lemma1=*/false);
  EXPECT_LT(with.size(), without.size());
  // Every location yields exactly one data object either way.
  const auto count_data = [](const std::vector<GridObject>& v) {
    return std::count_if(v.begin(), v.end(),
                         [](const GridObject& o) { return !o.is_query; });
  };
  EXPECT_EQ(count_data(with), 500);
  EXPECT_EQ(count_data(without), 500);
}

TEST(GridAllocate, QueryObjectsExcludeHomeCell) {
  Rng rng(4);
  const Snapshot s = RandomSnapshot(&rng, 200, 50.0);
  RangeJoinOptions options{.grid_cell_width = 1.0, .eps = 0.8};
  const GridIndex grid(options.grid_cell_width);
  for (const GridObject& o : GridAllocate(s, options)) {
    if (o.is_query) {
      EXPECT_FALSE(o.key == grid.KeyOf(o.location));
    }
  }
}

struct JoinSweep {
  std::uint64_t seed;
  int n;
  double eps;
  double lg;
  bool clustered;
};

class RangeJoinRandomized : public ::testing::TestWithParam<JoinSweep> {};

TEST_P(RangeJoinRandomized, AllMethodsMatchBruteForce) {
  const JoinSweep p = GetParam();
  Rng rng(p.seed);
  const Snapshot s = RandomSnapshot(&rng, p.n, 100.0, p.clustered);
  RangeJoinOptions options{.grid_cell_width = p.lg, .eps = p.eps};
  const auto brute = RangeJoinBrute(s, p.eps);
  EXPECT_EQ(RangeJoinRJC(s, options), brute) << "RJC";
  EXPECT_EQ(RangeJoinSRJ(s, options), brute) << "SRJ";
  // Ablation variants must stay correct too (the lemmas only remove
  // duplicated work, never results).
  EXPECT_EQ(RangeJoinRJC(s, options,
                         RangeJoinVariant{.use_lemma1 = false,
                                          .use_lemma2 = true}),
            brute)
      << "lemma2 only";
  EXPECT_EQ(RangeJoinRJC(s, options,
                         RangeJoinVariant{.use_lemma1 = true,
                                          .use_lemma2 = false}),
            brute)
      << "lemma1 only";
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, RangeJoinRandomized,
    ::testing::Values(JoinSweep{1, 50, 1.0, 2.0, false},
                      JoinSweep{2, 300, 2.0, 2.0, false},
                      JoinSweep{3, 300, 5.0, 2.0, true},
                      JoinSweep{4, 500, 0.5, 10.0, true},
                      JoinSweep{5, 500, 8.0, 1.0, true},
                      JoinSweep{6, 100, 3.0, 3.0, false},
                      JoinSweep{7, 800, 1.5, 4.0, true},
                      JoinSweep{8, 1, 1.0, 1.0, false},
                      JoinSweep{9, 2, 50.0, 1.0, false},
                      JoinSweep{10, 600, 0.1, 0.3, true},
                      JoinSweep{11, 400, 12.0, 12.0, false}));

TEST(GridSync, DeduplicatesAndSorts) {
  std::vector<std::vector<NeighborPair>> per_cell = {
      {{3, 4}, {1, 2}},
      {{1, 2}, {0, 5}},
  };
  const auto merged = GridSync(std::move(per_cell));
  const std::vector<NeighborPair> expect = {{0, 5}, {1, 2}, {3, 4}};
  EXPECT_EQ(merged, expect);
}

TEST(JoinScratch, ReusedScratchMatchesFreshJoinsAcrossSnapshots) {
  // One scratch shared across many different snapshots (the streaming
  // pattern) must produce exactly the result a fresh join does - cleared
  // buckets, the recycled R-tree, and stale capacities must never leak
  // pairs between snapshots. SRJ exercises the dedup path too.
  Rng rng(11);
  JoinScratch rjc_scratch;
  JoinScratch srj_scratch;
  RangeJoinOptions options{.grid_cell_width = 1.0, .eps = 0.6};
  for (int i = 0; i < 12; ++i) {
    const Snapshot s =
        RandomSnapshot(&rng, 40 + i * 25, /*extent=*/8.0, i % 2 == 1);
    EXPECT_EQ(RangeJoinRJC(s, options, {}, rjc_scratch),
              RangeJoinRJC(s, options))
        << "snapshot " << i;
    EXPECT_EQ(RangeJoinSRJ(s, options, srj_scratch), RangeJoinSRJ(s, options))
        << "snapshot " << i;
  }
}

TEST(JoinScratch, ResultReferenceStaysValidUntilNextCall) {
  JoinScratch scratch;
  RangeJoinOptions options{.grid_cell_width = 1.0, .eps = 0.5};
  const Snapshot a = MakeSnapshot({{0, 0}, {0.3, 0}, {5, 5}});
  const std::vector<NeighborPair>& pairs =
      RangeJoinRJC(a, options, {}, scratch);
  EXPECT_EQ(pairs, (std::vector<NeighborPair>{{0, 1}}));
  // A second call on the same scratch replaces the referenced result.
  const Snapshot b = MakeSnapshot({{0, 0}, {9, 9}});
  EXPECT_TRUE(RangeJoinRJC(b, options, {}, scratch).empty());
}

TEST(GridQuery, OutParamFormAppendsAcrossCells) {
  // The out-param GridQuery appends so one vector can accumulate a whole
  // snapshot; the same kernel scratch is reused per cell - under either
  // kernel.
  for (const JoinKernel kernel : {JoinKernel::kRTree, JoinKernel::kSweep}) {
    RangeJoinOptions options{.grid_cell_width = 1.0, .eps = 0.4};
    options.kernel = kernel;
    const Snapshot s =
        MakeSnapshot({{0.1, 0.1}, {0.2, 0.2}, {3.1, 3.1}, {3.3, 3.3}});
    CellQueryScratch scratch;
    std::vector<NeighborPair> out;
    std::vector<GridObject> objects = GridAllocate(s, options, true);
    std::unordered_map<GridKey, std::vector<GridObject>, GridKeyHash> cells;
    for (GridObject& o : objects) cells[o.key].push_back(o);
    for (auto& [key, cell_objects] : cells) {
      GridQuery(cell_objects, options, true, scratch, out);
    }
    std::sort(out.begin(), out.end());
    EXPECT_EQ(out, (std::vector<NeighborPair>{{0, 1}, {2, 3}}))
        << JoinKernelName(kernel);
  }
}

}  // namespace
}  // namespace comove::cluster
