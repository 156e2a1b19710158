#include "cluster/dbscan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <string>

#include "cluster/clustering.h"
#include "cluster/gdc.h"
#include "cluster/range_join.h"
#include "common/rng.h"

namespace comove::cluster {
namespace {

Snapshot LineSnapshot(int n, double spacing) {
  Snapshot s;
  s.time = 0;
  for (TrajectoryId id = 0; id < n; ++id) {
    s.entries.push_back({id, Point{id * spacing, 0}});
  }
  return s;
}

TEST(Dbscan, EmptySnapshotYieldsNoClusters) {
  const Snapshot s;
  const auto cs = DbscanFromNeighbors(s, {}, DbscanOptions{2});
  EXPECT_TRUE(cs.clusters.empty());
}

TEST(Dbscan, ChainIsOneClusterViaDensityReachability) {
  // Points 0..5 spaced 1 apart, eps = 1, minPts = 2: every point is core,
  // the chain is a single cluster even though endpoints are 5 apart.
  const Snapshot s = LineSnapshot(6, 1.0);
  const auto pairs = RangeJoinBrute(s, 1.0);
  const auto cs = DbscanFromNeighbors(s, pairs, DbscanOptions{2});
  ASSERT_EQ(cs.clusters.size(), 1u);
  EXPECT_EQ(cs.clusters[0].members,
            (std::vector<TrajectoryId>{0, 1, 2, 3, 4, 5}));
}

TEST(Dbscan, SparsePointsAreNoise) {
  const Snapshot s = LineSnapshot(5, 10.0);
  const auto pairs = RangeJoinBrute(s, 1.0);
  const auto cs = DbscanFromNeighbors(s, pairs, DbscanOptions{2});
  EXPECT_TRUE(cs.clusters.empty());
}

TEST(Dbscan, MinPtsCountsThePointItself) {
  // Two points within eps: neighbourhood size 2 each -> both core when
  // minPts = 2, neither when minPts = 3.
  Snapshot s;
  s.entries = {{0, Point{0, 0}}, {1, Point{0.5, 0}}};
  const auto pairs = RangeJoinBrute(s, 1.0);
  EXPECT_EQ(
      DbscanFromNeighbors(s, pairs, DbscanOptions{2}).clusters.size(), 1u);
  EXPECT_TRUE(
      DbscanFromNeighbors(s, pairs, DbscanOptions{3}).clusters.empty());
}

TEST(Dbscan, BorderPointJoinsCluster) {
  // 0,1,2 dense core region; 3 is within eps of 2 only (border, since its
  // own neighbourhood is 2 < minPts = 3).
  Snapshot s;
  s.entries = {{0, Point{0, 0}},
               {1, Point{0.4, 0}},
               {2, Point{0.8, 0}},
               {3, Point{1.7, 0}}};
  const auto pairs = RangeJoinBrute(s, 1.0);
  const auto cs = DbscanFromNeighbors(s, pairs, DbscanOptions{3});
  ASSERT_EQ(cs.clusters.size(), 1u);
  EXPECT_EQ(cs.clusters[0].members, (std::vector<TrajectoryId>{0, 1, 2, 3}));
}

TEST(Dbscan, BorderNotExpandedThrough) {
  // Two dense blobs joined only through a shared border point: the border
  // is not core, so the blobs must remain separate clusters and the border
  // joins exactly one of them.
  Snapshot s;
  // Blob A around x=0; blob B around x=4; border at x=2.
  s.entries = {{0, Point{0.0, 0}}, {1, Point{0.4, 0}}, {2, Point{0.8, 0}},
               {3, Point{2.0, 0}},  // border: within eps=1.2 of 2 and 4
               {4, Point{3.2, 0}}, {5, Point{3.6, 0}}, {6, Point{4.0, 0}}};
  const auto pairs = RangeJoinBrute(s, 1.2);
  const auto cs = DbscanFromNeighbors(s, pairs, DbscanOptions{3});
  ASSERT_EQ(cs.clusters.size(), 2u);
  std::set<TrajectoryId> in_clusters;
  for (const auto& c : cs.clusters) {
    for (const auto m : c.members) {
      EXPECT_TRUE(in_clusters.insert(m).second)
          << "object " << m << " in two clusters";
    }
  }
  EXPECT_EQ(in_clusters.size(), 7u);  // border assigned to exactly one
}

TEST(Dbscan, PaperFigure2Time3) {
  // §3.2: at time 3 with minPts = 3, o3..o7 are cores, o2 and o8 are
  // density-reachable, forming the single cluster {o2..o8}. o1 is noise.
  Snapshot s;
  s.time = 3;
  // Chain geometry: o2 - o3 - o4 - o5 - o6 - o7 - o8, spacing 1, eps 1.2;
  // o1 far away.
  s.entries = {{1, Point{100, 100}}, {2, Point{0, 0}}, {3, Point{1, 0}},
               {4, Point{2, 0}},     {5, Point{3, 0}}, {6, Point{4, 0}},
               {7, Point{5, 0}},     {8, Point{6, 0}}};
  const auto pairs = RangeJoinBrute(s, 1.2);
  const auto cs = DbscanFromNeighbors(s, pairs, DbscanOptions{3});
  ASSERT_EQ(cs.clusters.size(), 1u);
  EXPECT_EQ(cs.clusters[0].members,
            (std::vector<TrajectoryId>{2, 3, 4, 5, 6, 7, 8}));
}

TEST(Dbscan, ClusterSizeAtLeastMinPts) {
  Rng rng(5);
  Snapshot s;
  for (TrajectoryId id = 0; id < 400; ++id) {
    s.entries.push_back(
        {id, Point{rng.Uniform(0, 60), rng.Uniform(0, 60)}});
  }
  const auto pairs = RangeJoinBrute(s, 2.0);
  for (int min_pts : {2, 3, 5, 8}) {
    const auto cs = DbscanFromNeighbors(s, pairs, DbscanOptions{min_pts});
    for (const Cluster& c : cs.clusters) {
      EXPECT_GE(c.members.size(), static_cast<std::size_t>(min_pts));
    }
  }
}

TEST(GdcNeighborPairs, MatchesBruteForce) {
  Rng rng(11);
  for (int round = 0; round < 5; ++round) {
    Snapshot s;
    for (TrajectoryId id = 0; id < 300; ++id) {
      s.entries.push_back(
          {id, Point{rng.Uniform(0, 40), rng.Uniform(0, 40)}});
    }
    const double eps = rng.Uniform(0.5, 4.0);
    EXPECT_EQ(GdcNeighborPairs(s, eps), RangeJoinBrute(s, eps))
        << "round " << round << " eps " << eps;
  }
}

TEST(Clustering, AllThreeMethodsProduceIdenticalClusters) {
  Rng rng(13);
  Snapshot s;
  for (TrajectoryId id = 0; id < 500; ++id) {
    const double cx = rng.Bernoulli(0.6) ? 20.0 : 70.0;
    s.entries.push_back({id, Point{cx + rng.Gaussian(0, 4),
                                   50 + rng.Gaussian(0, 4)}});
  }
  ClusteringOptions options;
  options.join = RangeJoinOptions{.grid_cell_width = 5.0, .eps = 2.0};
  options.dbscan = DbscanOptions{5};
  const auto rjc =
      ClusterSnapshotWith(ClusteringMethod::kRJC, s, options);
  const auto srj =
      ClusterSnapshotWith(ClusteringMethod::kSRJ, s, options);
  const auto gdc =
      ClusterSnapshotWith(ClusteringMethod::kGDC, s, options);
  ASSERT_EQ(rjc.clusters.size(), srj.clusters.size());
  ASSERT_EQ(rjc.clusters.size(), gdc.clusters.size());
  for (std::size_t i = 0; i < rjc.clusters.size(); ++i) {
    EXPECT_EQ(rjc.clusters[i].members, srj.clusters[i].members);
    EXPECT_EQ(rjc.clusters[i].members, gdc.clusters[i].members);
  }
  EXPECT_GE(rjc.clusters.size(), 2u);  // the workload has 2 blobs
}

/// Two clusters mean the same thing when every cluster matches, ids
/// included.
void ExpectSameClusters(const ClusterSnapshot& expect,
                        const ClusterSnapshot& got, const std::string& where) {
  ASSERT_EQ(expect.clusters.size(), got.clusters.size()) << where;
  for (std::size_t c = 0; c < expect.clusters.size(); ++c) {
    EXPECT_EQ(expect.clusters[c].cluster_id, got.clusters[c].cluster_id)
        << where;
    EXPECT_EQ(expect.clusters[c].members, got.clusters[c].members) << where;
  }
}

/// Non-core points that cores of two different clusters reach: the only
/// points whose cluster a change of visiting order could move.
int ContestedBorders(const std::vector<NeighborPair>& pairs, int min_pts,
                     const ClusterSnapshot& cs) {
  std::map<TrajectoryId, int> degree;
  for (const NeighborPair& p : pairs) {
    ++degree[p.a];
    ++degree[p.b];
  }
  const auto is_core = [&](TrajectoryId id) {
    return degree[id] + 1 >= min_pts;
  };
  std::map<TrajectoryId, std::int32_t> cluster_of;
  for (const Cluster& c : cs.clusters) {
    for (const TrajectoryId m : c.members) cluster_of[m] = c.cluster_id;
  }
  std::map<TrajectoryId, std::set<std::int32_t>> reached_by;
  for (const NeighborPair& p : pairs) {
    if (is_core(p.a) && !is_core(p.b)) reached_by[p.b].insert(cluster_of[p.a]);
    if (is_core(p.b) && !is_core(p.a)) reached_by[p.a].insert(cluster_of[p.b]);
  }
  return static_cast<int>(std::count_if(
      reached_by.begin(), reached_by.end(),
      [](const auto& entry) { return entry.second.size() >= 2; }));
}

/// Scattered blobs whose rims touch, with non-contiguous ids in order.
Snapshot ContestedSnapshot() {
  Rng rng(17);
  Snapshot s;
  s.time = 4;
  for (TrajectoryId i = 0; i < 400; ++i) {
    s.entries.push_back({1000 + 7 * i, Point{rng.Uniform(0, 30),
                                             rng.Uniform(0, 30)}});
  }
  return s;
}

TEST(Clustering, EntryPermutationsLeaveClustersUnchanged) {
  // Seeds are visited in id order whatever order the entries arrive in,
  // so a border point two clusters reach joins the same one every time.
  const Snapshot s = ContestedSnapshot();
  ClusteringOptions options;
  options.join = RangeJoinOptions{.grid_cell_width = 4.0, .eps = 1.6};
  options.dbscan = DbscanOptions{5};
  const ClusterSnapshot expect =
      ClusterSnapshotWith(ClusteringMethod::kRJC, s, options);
  ASSERT_GT(ContestedBorders(RangeJoinBrute(s, 1.6), 5, expect), 0)
      << "the snapshot must hold a border point two clusters reach";
  std::mt19937_64 shuffle_rng(23);
  for (int round = 0; round < 6; ++round) {
    Snapshot permuted = s;
    if (round == 0) {
      std::reverse(permuted.entries.begin(), permuted.entries.end());
    } else {
      std::shuffle(permuted.entries.begin(), permuted.entries.end(),
                   shuffle_rng);
    }
    ClusterScratch scratch;
    for (const ClusteringMethod method :
         {ClusteringMethod::kRJC, ClusteringMethod::kSRJ,
          ClusteringMethod::kGDC}) {
      const std::string where = std::string(ClusteringMethodName(method)) +
                                " round " + std::to_string(round);
      ExpectSameClusters(expect, ClusterSnapshotWith(method, permuted, options),
                         where);
      // A reused scratch, first called out of order, then in order.
      ExpectSameClusters(
          expect, ClusterSnapshotWith(method, permuted, options, scratch),
          where + " reused");
      ExpectSameClusters(expect,
                         ClusterSnapshotWith(method, s, options, scratch),
                         where + " reused, in order");
    }
  }
}

TEST(Dbscan, PairPermutationsLeaveClustersUnchanged) {
  const Snapshot s = ContestedSnapshot();
  const std::vector<NeighborPair> pairs = RangeJoinBrute(s, 1.6);
  const DbscanOptions options{5};
  const ClusterSnapshot expect = DbscanFromNeighbors(s, pairs, options);
  ASSERT_GT(ContestedBorders(pairs, 5, expect), 0);
  std::mt19937_64 shuffle_rng(29);
  for (int round = 0; round < 6; ++round) {
    std::vector<NeighborPair> permuted = pairs;
    std::shuffle(permuted.begin(), permuted.end(), shuffle_rng);
    // Either orientation is one pair.
    for (std::size_t i = static_cast<std::size_t>(round) % 2;
         i < permuted.size(); i += 2) {
      std::swap(permuted[i].a, permuted[i].b);
    }
    Snapshot entries_permuted = s;
    std::shuffle(entries_permuted.entries.begin(),
                 entries_permuted.entries.end(), shuffle_rng);
    const std::string where = "round " + std::to_string(round);
    ExpectSameClusters(expect, DbscanFromNeighbors(s, permuted, options),
                       where);
    ExpectSameClusters(
        expect, DbscanFromNeighbors(entries_permuted, permuted, options),
        where + " entries permuted");
  }
}

TEST(ClusteringDeathTest, RepeatedIdAbortsUnderEveryMethod) {
  // Adjacent in an ascending snapshot, and apart in an unordered one.
  Snapshot in_order;
  in_order.entries = {{1, Point{0, 0}}, {2, Point{0.5, 0}},
                      {2, Point{1.0, 0}}, {3, Point{1.5, 0}}};
  Snapshot out_of_order;
  out_of_order.entries = {{3, Point{0, 0}}, {1, Point{0.5, 0}},
                          {3, Point{9.0, 9.0}}};
  ClusteringOptions options;
  options.join = RangeJoinOptions{.grid_cell_width = 2.0, .eps = 1.0};
  options.dbscan = DbscanOptions{2};
  for (const ClusteringMethod method :
       {ClusteringMethod::kRJC, ClusteringMethod::kSRJ,
        ClusteringMethod::kGDC}) {
    EXPECT_DEATH(ClusterSnapshotWith(method, in_order, options),
                 "duplicate trajectory in snapshot")
        << ClusteringMethodName(method);
    EXPECT_DEATH(ClusterSnapshotWith(method, out_of_order, options),
                 "duplicate trajectory in snapshot")
        << ClusteringMethodName(method);
  }
}

}  // namespace
}  // namespace comove::cluster
