#ifndef COMOVE_BENCH_BENCH_COMMON_H_
#define COMOVE_BENCH_BENCH_COMMON_H_

#include <benchmark/benchmark.h>

#include <iostream>
#include <map>
#include <mutex>
#include <string_view>

#include "core/icpe_engine.h"
#include "flow/stage_stats.h"
#include "trajgen/standard_datasets.h"

/// \file
/// Shared harness pieces for the per-figure benchmark binaries. The
/// parameter grids mirror Table 3 of the paper, rescaled to the synthetic
/// laptop-scale datasets (see EXPERIMENTS.md for the mapping): the paper
/// sweeps eps over 0.02%..0.12% of the dataset extent on streams of 10^5
/// snapshots; our streams are ~10^2 snapshots of a few hundred objects, so
/// the spatial percentages are x10 and the temporal constraints (K, L, G)
/// are /10, preserving every ratio that drives the algorithms.

namespace comove::bench {

/// Default dataset scale for benchmark runs.
inline constexpr double kBenchScale = 0.25;

/// Table 3 analogue grids (defaults marked with *):
///   eps  (% of extent): 0.2 0.4 *0.6 0.8 1.0 1.2      (paper: 0.02..0.12)
///   lg   (% of extent): 0.2 0.4 0.8 *1.6 3.2 6.4      (paper: same)
///   M: 2 3 *4 5 6                                      (paper: 5..25)
///   K: 12 15 *18 21 24                                 (paper: 120..240)
///   L: 1 2 *3 4 5                                      (paper: 10..50)
///   G: 1 2 *3 4 5                                      (paper: 10..50)
///   Or (%): 10 20 40 60 80 *100
///   N: 1 2 *4 6 8 10
inline constexpr double kEpsPctGrid[] = {0.2, 0.4, 0.6, 0.8, 1.0, 1.2};
inline constexpr double kLgPctGrid[] = {0.2, 0.4, 0.8, 1.6, 3.2, 6.4};
inline constexpr int kMGrid[] = {2, 3, 4, 5, 6};
inline constexpr int kKGrid[] = {12, 15, 18, 21, 24};
inline constexpr int kLGrid[] = {1, 2, 3, 4, 5};
inline constexpr int kGGrid[] = {1, 2, 3, 4, 5};
inline constexpr double kOrGrid[] = {0.1, 0.2, 0.4, 0.6, 0.8, 1.0};
inline constexpr int kNGrid[] = {1, 2, 4, 6, 8, 10};

inline constexpr double kDefaultEpsPct = 0.6;
inline constexpr double kDefaultLgPct = 1.6;
inline constexpr int kDefaultMinPts = 4;  // paper: 10, at 10x object scale
inline constexpr PatternConstraints kDefaultConstraints{4, 18, 3, 3};
inline constexpr int kDefaultParallelism = 4;

/// Returns the (cached) standard dataset at the bench scale plus its
/// maximal L1 distance. Thread-safe; datasets generate once per process.
inline const trajgen::Dataset& CachedDataset(trajgen::StandardDataset which,
                                             double scale = kBenchScale) {
  static std::mutex mu;
  static std::map<std::pair<int, double>, trajgen::Dataset> cache;
  std::lock_guard<std::mutex> lock(mu);
  auto key = std::make_pair(static_cast<int>(which), scale);
  auto it = cache.find(key);
  if (it == cache.end()) {
    it = cache.emplace(key, MakeStandardDataset(which, scale)).first;
  }
  return it->second;
}

/// eps/lg are expressed as a percentage of the dataset's maximal distance,
/// exactly as in Table 3.
inline double PctOfExtent(const trajgen::Dataset& dataset, double pct) {
  return dataset.ComputeStats().MaxDistance() * pct / 100.0;
}

/// Process-wide observability switch, set by the `--stats` flag. When on,
/// every DefaultOptions-based run collects per-stage counters and ReportRun
/// prints the stage table after each benchmark.
inline bool& StatsEnabled() {
  static bool enabled = false;
  return enabled;
}

/// Process-wide trace switch, set by the `--trace` flag. When non-empty,
/// every DefaultOptions-based run records per-stage spans and the LAST run
/// to finish wins the file (benchmarks iterate; each run overwrites it).
inline std::string& TracePath() {
  static std::string path;
  return path;
}

/// Bench entry point: consumes our own flags (`--stats`, `--trace [PATH]`)
/// before handing argv to Google Benchmark, which rejects flags it doesn't
/// know. `--trace` without a PATH (or followed by another flag) defaults to
/// bench_trace.json in the working directory.
inline void InitBench(int& argc, char** argv) {
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--stats") {
      StatsEnabled() = true;
      continue;
    }
    if (std::string_view(argv[i]) == "--trace") {
      TracePath() = "bench_trace.json";
      if (i + 1 < argc && argv[i + 1][0] != '-') TracePath() = argv[++i];
      continue;
    }
    argv[kept++] = argv[i];
  }
  argc = kept;
  benchmark::Initialize(&argc, argv);
}

/// Baseline configuration with all Table 3 defaults applied.
inline core::IcpeOptions DefaultOptions(const trajgen::Dataset& dataset) {
  core::IcpeOptions options;
  options.cluster_options.join.eps = PctOfExtent(dataset, kDefaultEpsPct);
  options.cluster_options.join.grid_cell_width =
      PctOfExtent(dataset, kDefaultLgPct);
  options.cluster_options.dbscan.min_pts = kDefaultMinPts;
  options.constraints = kDefaultConstraints;
  options.parallelism = kDefaultParallelism;
  options.collect_stats = StatsEnabled();
  options.trace_path = TracePath();
  return options;
}

/// Warms caches, page tables and the dataset generator before the first
/// measured run; every bench main() calls this once. Without it the first
/// registered benchmark absorbs one-time costs and distorts its row.
inline void WarmUp() {
  for (const auto which :
       {trajgen::StandardDataset::kGeoLife, trajgen::StandardDataset::kTaxi,
        trajgen::StandardDataset::kBrinkhoff}) {
    const trajgen::Dataset& dataset = CachedDataset(which);
    core::IcpeOptions options = DefaultOptions(dataset);
    options.enumerator = core::EnumeratorKind::kNone;
    benchmark::DoNotOptimize(core::RunIcpe(dataset, options));
  }
}

/// Publishes the paper's two metrics (§7) plus context counters, and -
/// under `--stats` - dumps the per-stage backpressure table to stderr.
inline void ReportRun(benchmark::State& state,
                      const core::IcpeResult& result) {
  state.counters["latency_ms"] = result.snapshots.average_latency_ms;
  state.counters["p50_ms"] = result.snapshots.p50_latency_ms;
  state.counters["p95_ms"] = result.snapshots.p95_latency_ms;
  state.counters["p99_ms"] = result.snapshots.p99_latency_ms;
  state.counters["tps"] = result.snapshots.throughput_tps;
  state.counters["cluster_ms"] = result.avg_cluster_ms;
  state.counters["enum_ms"] = result.avg_enum_ms;
  state.counters["avg_cluster_size"] = result.avg_cluster_size;
  state.counters["patterns"] =
      static_cast<double>(result.patterns.size());
  if (StatsEnabled() && !result.stage_stats.empty()) {
    std::cerr << "\n[stage stats]\n";
    flow::PrintStageStats(result.stage_stats, std::cerr);
  }
}

}  // namespace comove::bench

#endif  // COMOVE_BENCH_BENCH_COMMON_H_
