/// Ablation: index build strategies.
///
/// Per-snapshot GR-index construction: incremental R* insertion (required
/// by Lemma 2's interleaved plan) vs STR bulk loading (usable by
/// build-then-query plans), plus the monolithic-build and local-index
/// choices around it.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "common/stopwatch.h"
#include "common/rng.h"
#include "index/gr_index.h"
#include "index/kdtree.h"

namespace comove::bench {
namespace {

void BM_IndexBuildStrategy(benchmark::State& state) {
  const auto which = static_cast<trajgen::StandardDataset>(state.range(0));
  const bool bulk = state.range(1) != 0;
  const trajgen::Dataset& dataset = CachedDataset(which);
  const auto snapshots = dataset.ToSnapshots();
  const double lg = PctOfExtent(dataset, kDefaultLgPct);

  state.SetLabel(std::string(trajgen::StandardDatasetName(which)) +
                 (bulk ? "/STR-bulk" : "/incremental-R*"));
  double build_ms = 0;
  for (auto _ : state) {
    Stopwatch watch;
    std::size_t total = 0;
    for (const Snapshot& s : snapshots) {
      GRIndex index(lg);
      if (bulk) {
        index.BulkLoadSnapshot(s);
      } else {
        index.InsertSnapshot(s);
      }
      total += index.size();
      benchmark::DoNotOptimize(total);
    }
    build_ms = watch.ElapsedMillis();
  }
  state.counters["build_ms_per_snapshot"] =
      build_ms / static_cast<double>(snapshots.size());
}

/// Monolithic (no grid) R-tree build of one large point set: where STR's
/// O(n log n) packing beats repeated R* insertion. Contrast with the
/// per-cell rows above, where trees are tiny and insertion wins.
void BM_MonolithicBuild(benchmark::State& state) {
  const bool bulk = state.range(0) != 0;
  const int n = static_cast<int>(state.range(1));
  Rng rng(3);
  std::vector<Point> points;
  std::vector<TrajectoryId> ids;
  for (TrajectoryId id = 0; id < n; ++id) {
    points.push_back(Point{rng.Uniform(0, 1e4), rng.Uniform(0, 1e4)});
    ids.push_back(id);
  }
  state.SetLabel(std::string(bulk ? "STR-bulk" : "incremental-R*") +
                 "/n=" + std::to_string(n));
  for (auto _ : state) {
    if (bulk) {
      RTree tree = RTree::BulkLoad(points, ids);
      benchmark::DoNotOptimize(tree.Height());
    } else {
      RTree tree;
      for (std::size_t i = 0; i < points.size(); ++i) {
        tree.Insert(points[i], ids[i]);
      }
      benchmark::DoNotOptimize(tree.Height());
    }
  }
}

/// Local-index choice for a build-then-query snapshot workload (build an
/// index over one snapshot, range-query every point): R* insert, STR
/// bulk R-tree, kd-tree, and the no-index brute force floor.
void BM_LocalIndexQuery(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  const trajgen::Dataset& dataset =
      CachedDataset(trajgen::StandardDataset::kTaxi);
  const auto snapshots = dataset.ToSnapshots();
  const double eps = PctOfExtent(dataset, kDefaultEpsPct);
  static const char* kNames[] = {"rtree-insert", "rtree-str", "kdtree",
                                 "brute"};
  state.SetLabel(std::string("Taxi/") + kNames[mode]);

  std::size_t results = 0;
  for (auto _ : state) {
    results = 0;
    for (const Snapshot& s : snapshots) {
      std::vector<Point> points;
      std::vector<TrajectoryId> ids;
      points.reserve(s.entries.size());
      for (const SnapshotEntry& e : s.entries) {
        points.push_back(e.location);
        ids.push_back(e.id);
      }
      std::vector<TrajectoryId> out;
      if (mode == 0 || mode == 1) {
        RTree tree = mode == 0 ? RTree() : RTree::BulkLoad(points, ids);
        if (mode == 0) {
          for (std::size_t i = 0; i < points.size(); ++i) {
            tree.Insert(points[i], ids[i]);
          }
        }
        for (const Point& q : points) {
          out.clear();
          tree.QueryRange(q, eps, &out);
          results += out.size();
        }
      } else if (mode == 2) {
        const KdTree tree = KdTree::Build(points, ids);
        for (const Point& q : points) {
          out.clear();
          tree.QueryRange(q, eps, &out);
          results += out.size();
        }
      } else {
        for (const Point& q : points) {
          for (std::size_t i = 0; i < points.size(); ++i) {
            if (L1Distance(q, points[i]) <= eps) ++results;
          }
        }
      }
    }
    benchmark::DoNotOptimize(results);
  }
  state.counters["result_pairs"] = static_cast<double>(results);
}

void RegisterAll() {
  for (const int mode : {0, 1, 2, 3}) {
    benchmark::RegisterBenchmark("Ablation/LocalIndexQuery",
                                 &BM_LocalIndexQuery)
        ->Arg(mode)
        ->Unit(benchmark::kMillisecond);
  }
  for (const auto which : {trajgen::StandardDataset::kTaxi,
                           trajgen::StandardDataset::kBrinkhoff}) {
    for (const int mode : {0, 1}) {
      benchmark::RegisterBenchmark("Ablation/IndexBuildStrategy",
                                   &BM_IndexBuildStrategy)
          ->Args({static_cast<int>(which), mode})
          ->Unit(benchmark::kMillisecond);
    }
  }
  for (const int mode : {0, 1}) {
    for (const int n : {1000, 10000, 100000}) {
      benchmark::RegisterBenchmark("Ablation/MonolithicBuild",
                                   &BM_MonolithicBuild)
          ->Args({mode, n})
          ->Unit(benchmark::kMillisecond);
    }
  }
}

}  // namespace
}  // namespace comove::bench

int main(int argc, char** argv) {
  comove::bench::WarmUp();
  comove::bench::RegisterAll();
  comove::bench::InitBench(argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
