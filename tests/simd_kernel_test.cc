// Bit-identity matrix for the SIMD join kernels and their supporting
// allocator: the AVX2 paths must be indistinguishable from the scalar
// reference - same pair sets, same clusters - on every metric, lemma
// mode, and numeric edge (exactly-at-eps ties, negative coordinates,
// denormal and huge magnitudes). Plus unit coverage for the Arena /
// ArenaVector scratch backing and the radix tiers of SortUniquePairs.
//
// On machines without AVX2 the kAvx2 requests resolve to scalar and the
// comparisons become scalar-vs-scalar - trivially green, still compiled.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/join_kernel.h"
#include "cluster/dbscan.h"
#include "cluster/range_join.h"
#include "common/arena.h"
#include "common/rng.h"

namespace comove::cluster {
namespace {

std::vector<NeighborPair> Sorted(std::vector<NeighborPair> pairs) {
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

/// Runs SweepCellJoin on `cell` at the requested SIMD level and returns
/// the sorted pair list (emission order is level-dependent by design; the
/// SET is the contract).
std::vector<NeighborPair> SweepPairs(const std::vector<GridObject>& cell,
                                     double eps, DistanceMetric metric,
                                     bool use_lemma2, SimdLevel simd) {
  SweepCell scratch;
  std::vector<NeighborPair> out;
  scratch.BeginSnapshot();
  SweepCellJoin(cell, eps, metric, use_lemma2, simd, scratch, out);
  return Sorted(std::move(out));
}

void ExpectCellBitIdentical(const std::vector<GridObject>& cell, double eps) {
  for (const DistanceMetric metric :
       {DistanceMetric::kL1, DistanceMetric::kL2}) {
    for (const bool use_lemma2 : {true, false}) {
      const auto scalar =
          SweepPairs(cell, eps, metric, use_lemma2, SimdLevel::kScalar);
      const auto avx2 =
          SweepPairs(cell, eps, metric, use_lemma2, SimdLevel::kAvx2);
      EXPECT_EQ(scalar, avx2)
          << "metric=" << (metric == DistanceMetric::kL1 ? "L1" : "L2")
          << " lemma2=" << use_lemma2 << " eps=" << eps;
    }
  }
}

TEST(SimdDispatch, ResolveNeverReturnsAutoAndScalarIsPinned) {
  EXPECT_EQ(ResolveSimdLevel(SimdLevel::kScalar), SimdLevel::kScalar);
  const SimdLevel automatic = ResolveSimdLevel(SimdLevel::kAuto);
  EXPECT_NE(automatic, SimdLevel::kAuto);
  const SimdLevel forced = ResolveSimdLevel(SimdLevel::kAvx2);
  if (SimdKernelsAvailable()) {
    EXPECT_EQ(forced, SimdLevel::kAvx2);
  } else {
    // Degrades instead of crashing, so test matrices run anywhere.
    EXPECT_EQ(forced, SimdLevel::kScalar);
  }
}

TEST(SimdBitIdentity, RandomCellsAcrossSizesMetricsAndLemmas) {
  Rng rng(11);
  for (const int n : {0, 1, 2, 3, 5, 17, 64, 257}) {
    std::vector<GridObject> cell;
    for (int i = 0; i < n; ++i) {
      const GridKey key{0, 0};
      const Point p{rng.Uniform(-2.0, 2.0), rng.Uniform(-2.0, 2.0)};
      cell.push_back(GridObject{key, /*is_query=*/rng.Bernoulli(0.3),
                                static_cast<TrajectoryId>(i), p});
    }
    ExpectCellBitIdentical(cell, 0.75);
  }
}

TEST(SimdBitIdentity, ExactlyAtEpsCoincidentAndTiePoints) {
  // Pairs exactly at eps on each axis and on the L1 diagonal, coincident
  // points, and y-ties with distinct x: every one sits on a branch of the
  // filter chain (closed-rect band, <= eps refinement, InUpperHalf tie
  // breaks) where a single flipped comparison would diverge.
  const double eps = 1.0;
  std::vector<GridObject> cell;
  TrajectoryId id = 0;
  auto add = [&](double x, double y, bool query) {
    cell.push_back(GridObject{GridKey{0, 0}, query, id++, Point{x, y}});
  };
  add(0.0, 0.0, false);
  add(eps, 0.0, false);       // exactly at eps in x
  add(0.0, eps, false);       // exactly at eps in y
  add(0.5, 0.5, false);       // exactly at eps in L1, inside in L2
  add(0.0, 0.0, false);       // coincident with the origin point
  add(-eps, 0.0, true);       // exactly at eps, query role
  add(0.25, 0.0, true);       // y-tie with the data row below
  add(-0.25, 0.0, false);
  ExpectCellBitIdentical(cell, eps);
}

TEST(SimdBitIdentity, NegativeDenormalAndHugeCoordinates) {
  const double denormal = std::numeric_limits<double>::denorm_min();
  std::vector<GridObject> cell;
  TrajectoryId id = 0;
  auto add = [&](double x, double y, bool query) {
    cell.push_back(GridObject{GridKey{0, 0}, query, id++, Point{x, y}});
  };
  add(-1.0e3, -1.0e3, false);
  add(-1.0e3 + 0.5, -1.0e3, false);
  add(denormal, -denormal, false);
  add(0.0, 0.0, false);
  add(-0.0, 0.0, true);        // -0.0 vs 0.0: equal everywhere it matters
  add(1.0e300, 1.0e300, false);  // eps arithmetic far from the others
  add(1.0e300, 1.0e300 + 1.0, false);
  ExpectCellBitIdentical(cell, 0.75);
}

TEST(SimdBitIdentity, FullJoinsAcrossVariants) {
  // End-to-end RangeJoin (fused allocate+bucket, per-cell sweep, radix
  // GridSync) over a drifting stream: scalar and AVX2 must produce
  // byte-equal sorted pair vectors in every variant.
  Rng rng(23);
  std::vector<Snapshot> stream;
  std::vector<SnapshotEntry> entries;
  for (TrajectoryId i = 0; i < 300; ++i) {
    entries.push_back({i, Point{rng.Uniform(0, 12.0), rng.Uniform(0, 12.0)}});
  }
  for (int t = 0; t < 6; ++t) {
    Snapshot s;
    s.time = t;
    s.entries = entries;
    stream.push_back(std::move(s));
    for (int m = 0; m < 40; ++m) {
      entries[static_cast<std::size_t>(m)].location.x +=
          rng.Uniform(-0.3, 0.3);
      entries[static_cast<std::size_t>(m)].location.y +=
          rng.Uniform(-0.3, 0.3);
    }
  }
  for (const bool srj : {false, true}) {
    RangeJoinOptions scalar_options{.grid_cell_width = 2.0, .eps = 0.9};
    scalar_options.simd = SimdLevel::kScalar;
    RangeJoinOptions avx2_options = scalar_options;
    avx2_options.simd = SimdLevel::kAvx2;
    JoinScratch scalar_scratch;
    JoinScratch avx2_scratch;
    for (const Snapshot& s : stream) {
      const std::vector<NeighborPair>& scalar =
          srj ? RangeJoinSRJ(s, scalar_options, scalar_scratch)
              : RangeJoinRJC(s, scalar_options, {}, scalar_scratch);
      const std::vector<NeighborPair>& avx2 =
          srj ? RangeJoinSRJ(s, avx2_options, avx2_scratch)
              : RangeJoinRJC(s, avx2_options, {}, avx2_scratch);
      EXPECT_EQ(scalar, avx2) << "srj=" << srj << " t=" << s.time;
    }
  }
}

TEST(SimdBitIdentity, DbscanClustersMatchAcrossLevels) {
  Rng rng(31);
  Snapshot s;
  s.time = 0;
  for (TrajectoryId i = 0; i < 400; ++i) {
    s.entries.push_back(
        {i, Point{rng.Uniform(0, 10.0), rng.Uniform(0, 10.0)}});
  }
  RangeJoinOptions options{.grid_cell_width = 2.0, .eps = 0.8};
  auto cluster_at = [&](SimdLevel simd) {
    RangeJoinOptions o = options;
    o.simd = simd;
    JoinScratch scratch;
    const std::vector<NeighborPair>& pairs =
        RangeJoinRJC(s, o, {}, scratch);
    return DbscanFromNeighbors(s, pairs, DbscanOptions{.min_pts = 4});
  };
  const ClusterSnapshot scalar = cluster_at(SimdLevel::kScalar);
  const ClusterSnapshot avx2 = cluster_at(SimdLevel::kAvx2);
  ASSERT_EQ(scalar.clusters.size(), avx2.clusters.size());
  for (std::size_t c = 0; c < scalar.clusters.size(); ++c) {
    EXPECT_EQ(scalar.clusters[c].members, avx2.clusters[c].members);
  }
}

TEST(ArenaTest, AllocationsAreAlignedAndResetRetainsMemory) {
  Arena arena(/*min_block_bytes=*/256);
  for (const std::size_t bytes : {1u, 7u, 32u, 100u, 1000u}) {
    void* p = arena.Allocate(bytes);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % Arena::kAlignment, 0u)
        << bytes;
  }
  EXPECT_EQ(arena.allocations(), 5u);
  const std::size_t retained = arena.block_bytes();
  EXPECT_GT(retained, 0u);
  arena.Reset();
  // Reset rewinds without shrinking; the fused block serves the same
  // workload without growing either.
  EXPECT_GE(arena.block_bytes(), retained);
  const std::size_t fused = arena.block_bytes();
  for (const std::size_t bytes : {1u, 7u, 32u, 100u, 1000u}) {
    arena.Allocate(bytes);
  }
  EXPECT_EQ(arena.block_bytes(), fused);
  EXPECT_EQ(arena.allocations(), 10u);
}

TEST(ArenaTest, MultiBlockSpillFusesOnReset) {
  Arena arena(/*min_block_bytes=*/64);
  arena.Allocate(64);
  arena.Allocate(1024);  // cannot fit the first block: spills
  arena.Allocate(4096);
  const std::size_t grown = arena.block_bytes();
  arena.Reset();
  EXPECT_EQ(arena.block_bytes(), grown);  // fused, not dropped
  // The steady-state cycle re-bumps through one contiguous block.
  arena.Allocate(64);
  arena.Allocate(1024);
  arena.Allocate(4096);
  EXPECT_EQ(arena.block_bytes(), grown);
}

TEST(ArenaVectorTest, GrowthPreservesContentsAndHighWaterReReserves) {
  Arena arena;
  ArenaVector<std::uint32_t> v;
  v.Reserve(arena, 4);
  for (std::uint32_t i = 0; i < 4; ++i) v.PushBack(i);
  v.Reserve(arena, 100);  // realloc-style growth must copy live elements
  for (std::uint32_t i = 4; i < 100; ++i) v.PushBack(i);
  for (std::uint32_t i = 0; i < 100; ++i) EXPECT_EQ(v[i], i);

  arena.Reset();
  v.Release();
  const std::uint64_t before = arena.allocations();
  v.Reserve(arena, 1);  // high-water mark restores the full footprint...
  EXPECT_EQ(arena.allocations(), before + 1);  // ...in ONE bump
  v.Resize(arena, 100);                        // no further allocation
  EXPECT_EQ(arena.allocations(), before + 1);
}

std::vector<NeighborPair> ReferenceSortUnique(std::vector<NeighborPair> p) {
  std::sort(p.begin(), p.end());
  p.erase(std::unique(p.begin(), p.end()), p.end());
  return p;
}

std::vector<NeighborPair> RandomPairs(std::uint64_t seed, int n,
                                      TrajectoryId lo, TrajectoryId hi) {
  Rng rng(seed);
  std::vector<NeighborPair> pairs;
  for (int i = 0; i < n; ++i) {
    pairs.push_back(CanonicalPair(
        static_cast<TrajectoryId>(rng.UniformInt(lo, hi)),
        static_cast<TrajectoryId>(rng.UniformInt(lo, hi))));
  }
  return pairs;
}

TEST(SortUniquePairsTiers, NarrowTierMatchesReferenceAtBothLevels) {
  // Every id below 2^16: the 32-bit-key / 11-bit-digit tier.
  const std::vector<NeighborPair> base = RandomPairs(101, 50000, 0, 40000);
  const std::vector<NeighborPair> expect = ReferenceSortUnique(base);
  for (const SimdLevel simd : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
    std::vector<NeighborPair> pairs = base;
    PairSortScratch scratch;
    SortUniquePairs(pairs, scratch, simd);
    EXPECT_EQ(pairs, expect);
  }
}

TEST(SortUniquePairsTiers, WideTierMatchesReferenceAtBothLevels) {
  // Ids above 2^16 force the 64-bit-key / 16-bit-digit tier.
  const std::vector<NeighborPair> base =
      RandomPairs(103, 50000, 0, TrajectoryId{1} << 30);
  const std::vector<NeighborPair> expect = ReferenceSortUnique(base);
  for (const SimdLevel simd : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
    std::vector<NeighborPair> pairs = base;
    PairSortScratch scratch;
    SortUniquePairs(pairs, scratch, simd);
    EXPECT_EQ(pairs, expect);
  }
}

TEST(SortUniquePairsTiers, BelowRadixThresholdUsesComparisonPath) {
  const std::vector<NeighborPair> base = RandomPairs(107, 1000, 0, 50);
  std::vector<NeighborPair> pairs = base;
  PairSortScratch scratch;
  SortUniquePairs(pairs, scratch);
  EXPECT_EQ(pairs, ReferenceSortUnique(base));
  EXPECT_TRUE(scratch.keys32.empty());  // the radix tiers never ran
  EXPECT_TRUE(scratch.keys64.empty());
}

TEST(SortUniquePairsTiers, IdFoldHintMayBeAConservativeSuperset) {
  // Index-pair callers pass the mask of the entry count, a superset of
  // the fold of the pair stream. Extra high bits must only demote the
  // tier (narrow -> wide -> comparison), never change the output.
  const std::vector<NeighborPair> base = RandomPairs(109, 20000, 0, 9000);
  const std::vector<NeighborPair> expect = ReferenceSortUnique(base);
  TrajectoryId exact = 0;
  for (const NeighborPair& p : base) exact |= p.a | p.b;
  const TrajectoryId wide_fold = exact | (TrajectoryId{1} << 20);
  const TrajectoryId over_fold = exact | (TrajectoryId{1} << 40);
  const TrajectoryId negative_fold = exact | std::numeric_limits<
      TrajectoryId>::min();
  for (const TrajectoryId fold :
       {exact, wide_fold, over_fold, negative_fold}) {
    std::vector<NeighborPair> pairs = base;
    PairSortScratch scratch;
    SortUniquePairs(pairs, fold, scratch, SimdLevel::kAuto);
    EXPECT_EQ(pairs, expect) << "fold=" << fold;
  }
}

}  // namespace
}  // namespace comove::cluster
