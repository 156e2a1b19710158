/// comove_tool - the library's command-line Swiss army knife.
///
///   comove_tool generate <geolife|taxi|brinkhoff> <scale> <out.csv>
///       Synthesize a standard dataset and write it as CSV.
///
///   comove_tool detect <in.csv> [--eps X] [--minpts N] [--mklg M,K,L,G]
///                      [--enumerator fba|vba|ba] [--parallelism N]
///                      [--json out.json] [--svg out.svg] [--maximal] [--stats]
///                      [--checkpoint-dir DIR] [--checkpoint-interval N]
///                      [--recover] [--trace out.json]
///                      [--sample-interval MS] [--timeseries out.csv]
///       Run the ICPE pipeline over a CSV stream; print a summary and
///       optionally export JSON results and an SVG rendering. With
///       --checkpoint-dir the run snapshots its state to DIR every N
///       snapshot-times (aligned barriers, default 100); --recover resumes
///       from the newest intact checkpoint in DIR after a crash and
///       produces output identical to an uninterrupted run. --trace writes
///       per-stage spans as Chrome trace_event JSON (load in
///       chrome://tracing or https://ui.perfetto.dev) and prints the
///       worst-snapshot stage breakdown; --sample-interval runs a
///       background metrics sampler at the given cadence,
///       --timeseries writes its samples as tidy CSV.
///
///   comove_tool compress <in.csv> <tolerance> <out.csv>
///       Pattern-based compression round trip: detect patterns, compress,
///       decompress, write the (bounded-error) reconstruction, report the
///       achieved ratio.
///
///   comove_tool worker <coordinator-address> <index>
///       Run as a net worker process (normally spawned by a distributed
///       detect run, not typed by hand). detect grows the deployment
///       flags: --workers N runs the pipeline across N worker processes
///       over --transport unix|tcp loopback sockets, producing the
///       bit-identical pattern multiset of the single-process run;
///       --patterns-out FILE writes that multiset in a canonical text
///       form for diffing; --inject-fault STAGE,SUBTASK,CHECKPOINT kills
///       the named subtask while it snapshots the given checkpoint
///       (pair with --checkpoint-dir, then rerun with --recover).
///       Observability crosses the process boundary: with --workers N,
///       --stats labels every row with its process ("w<i>:" prefixes for
///       worker-hosted stages, "link:*" rows for per-socket transport
///       counters), --trace writes one merged Chrome timeline with a
///       lane group per process (worker clocks aligned to the
///       coordinator's), and --sample-interval samples local and remote
///       rows alike. A clean run that cannot produce a complete merge
///       aborts rather than under-report.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "apps/json_export.h"
#include "flow/checkpoint/snapshot_store.h"
#include "apps/svg_export.h"
#include "apps/trajectory_compression.h"
#include "cluster/join_kernel.h"
#include "common/cpu_features.h"
#include "core/distributed.h"
#include "core/icpe_engine.h"
#include "pattern/analysis.h"
#include "trajgen/csv_loader.h"
#include "trajgen/standard_datasets.h"

namespace {

using namespace comove;

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  comove_tool generate <geolife|taxi|brinkhoff> <scale> <out.csv>\n"
      "  comove_tool detect <in.csv> [--eps X] [--minpts N] "
      "[--mklg M,K,L,G]\n"
      "               [--enumerator fba|vba|ba] [--parallelism N]\n"
      "               [--json out.json] [--svg out.svg] [--maximal] [--stats]\n"
      "               [--checkpoint-dir DIR] [--checkpoint-interval N] "
      "[--recover]\n"
      "               [--trace out.json] [--sample-interval MS] "
      "[--timeseries out.csv]\n"
      "               [--workers N] [--transport unix|tcp] "
      "[--patterns-out FILE]\n"
      "               [--inject-fault STAGE,SUBTASK,CHECKPOINT]\n"
      "  comove_tool compress <in.csv> <tolerance> <out.csv>\n"
      "  comove_tool worker <coordinator-address> <index>\n");
  return 2;
}

/// Canonical text form of a pattern multiset: one line per pattern,
/// "id,id,...:t,t,...", sorted - so two runs agree bit-for-bit exactly
/// when their pattern multisets do (the CI diff job relies on this).
bool WritePatternsText(const std::vector<CoMovementPattern>& patterns,
                       const std::string& path) {
  std::vector<std::string> lines;
  lines.reserve(patterns.size());
  for (const CoMovementPattern& p : patterns) {
    std::string line;
    for (std::size_t i = 0; i < p.objects.size(); ++i) {
      if (i > 0) line += ',';
      line += std::to_string(p.objects[i]);
    }
    line += ':';
    for (std::size_t i = 0; i < p.times.size(); ++i) {
      if (i > 0) line += ',';
      line += std::to_string(p.times[i]);
    }
    lines.push_back(std::move(line));
  }
  std::sort(lines.begin(), lines.end());
  std::ofstream out(path);
  if (!out) return false;
  for (const std::string& line : lines) out << line << '\n';
  return out.good();
}

int RunGenerate(int argc, char** argv) {
  if (argc != 5) return Usage();
  trajgen::StandardDataset which;
  const std::string name = argv[2];
  if (name == "geolife") {
    which = trajgen::StandardDataset::kGeoLife;
  } else if (name == "taxi") {
    which = trajgen::StandardDataset::kTaxi;
  } else if (name == "brinkhoff") {
    which = trajgen::StandardDataset::kBrinkhoff;
  } else {
    return Usage();
  }
  const double scale = std::atof(argv[3]);
  if (scale <= 0.0 || scale > 1.0) {
    std::fprintf(stderr, "scale must be in (0, 1]\n");
    return 2;
  }
  const trajgen::Dataset dataset = MakeStandardDataset(which, scale);
  std::ofstream out(argv[4]);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", argv[4]);
    return 1;
  }
  WriteCsvDataset(dataset, out);
  const auto stats = dataset.ComputeStats();
  std::printf("wrote %s: %lld trajectories, %lld records, %lld snapshots\n",
              argv[4], static_cast<long long>(stats.trajectories),
              static_cast<long long>(stats.locations),
              static_cast<long long>(stats.snapshots));
  return 0;
}

bool ParseMklg(const char* text, PatternConstraints* c) {
  return std::sscanf(text, "%d,%d,%d,%d", &c->m, &c->k, &c->l, &c->g) == 4 &&
         c->IsValid();
}

int RunDetect(int argc, char** argv) {
  if (argc < 3) return Usage();
  trajgen::Dataset dataset;
  const auto load = trajgen::LoadCsvDatasetFile(argv[2], &dataset);
  if (!load.ok) {
    std::fprintf(stderr, "error: %s\n", load.error.c_str());
    return 1;
  }
  const auto stats = dataset.ComputeStats();

  core::IcpeOptions options;
  options.cluster_options.join.eps = stats.MaxDistance() * 0.006;
  options.cluster_options.join.grid_cell_width = stats.MaxDistance() * 0.016;
  options.cluster_options.dbscan.min_pts = 4;
  options.constraints = PatternConstraints{3, 8, 3, 2};
  std::string json_path;
  std::string svg_path;
  std::string checkpoint_dir;
  std::string timeseries_path;
  std::string patterns_out;
  std::int64_t checkpoint_interval = 100;
  bool recover = false;
  bool maximal_only = false;
  core::DistributedOptions dist;
  dist.workers = 0;  // 0 = single process (the default deployment)
  for (int i = 3; i < argc; ++i) {
    const auto next = [&]() -> const char* {
      return ++i < argc ? argv[i] : nullptr;
    };
    if (!std::strcmp(argv[i], "--eps")) {
      if (const char* v = next()) options.cluster_options.join.eps =
          std::atof(v);
    } else if (!std::strcmp(argv[i], "--minpts")) {
      if (const char* v = next()) {
        options.cluster_options.dbscan.min_pts = std::atoi(v);
      }
    } else if (!std::strcmp(argv[i], "--mklg")) {
      const char* v = next();
      if (v == nullptr || !ParseMklg(v, &options.constraints)) {
        std::fprintf(stderr, "bad --mklg (want M,K,L,G)\n");
        return 2;
      }
    } else if (!std::strcmp(argv[i], "--enumerator")) {
      const char* v = next();
      if (v == nullptr) return Usage();
      if (!std::strcmp(v, "fba")) {
        options.enumerator = core::EnumeratorKind::kFBA;
      } else if (!std::strcmp(v, "vba")) {
        options.enumerator = core::EnumeratorKind::kVBA;
      } else if (!std::strcmp(v, "ba")) {
        options.enumerator = core::EnumeratorKind::kBA;
      } else {
        return Usage();
      }
    } else if (!std::strcmp(argv[i], "--parallelism")) {
      if (const char* v = next()) options.parallelism = std::atoi(v);
    } else if (!std::strcmp(argv[i], "--json")) {
      if (const char* v = next()) json_path = v;
    } else if (!std::strcmp(argv[i], "--svg")) {
      if (const char* v = next()) svg_path = v;
    } else if (!std::strcmp(argv[i], "--checkpoint-dir")) {
      if (const char* v = next()) checkpoint_dir = v;
    } else if (!std::strcmp(argv[i], "--checkpoint-interval")) {
      if (const char* v = next()) checkpoint_interval = std::atoll(v);
    } else if (!std::strcmp(argv[i], "--recover")) {
      recover = true;
    } else if (!std::strcmp(argv[i], "--maximal")) {
      maximal_only = true;
    } else if (!std::strcmp(argv[i], "--stats")) {
      options.collect_stats = true;
    } else if (!std::strcmp(argv[i], "--trace")) {
      if (const char* v = next()) options.trace_path = v;
    } else if (!std::strcmp(argv[i], "--sample-interval")) {
      if (const char* v = next()) options.sample_interval_ms = std::atoll(v);
    } else if (!std::strcmp(argv[i], "--timeseries")) {
      if (const char* v = next()) timeseries_path = v;
    } else if (!std::strcmp(argv[i], "--workers")) {
      if (const char* v = next()) dist.workers = std::atoi(v);
    } else if (!std::strcmp(argv[i], "--transport")) {
      const char* v = next();
      if (v == nullptr ||
          (std::strcmp(v, "unix") != 0 && std::strcmp(v, "tcp") != 0)) {
        std::fprintf(stderr, "--transport must be unix or tcp\n");
        return 2;
      }
      dist.transport = v;
    } else if (!std::strcmp(argv[i], "--patterns-out")) {
      if (const char* v = next()) patterns_out = v;
    } else if (!std::strcmp(argv[i], "--inject-fault")) {
      const char* v = next();
      char stage[16] = {0};
      int subtask = 0;
      long long at = 0;
      if (v == nullptr ||
          std::sscanf(v, "%15[a-z],%d,%lld", stage, &subtask, &at) != 3) {
        std::fprintf(stderr,
                     "bad --inject-fault (want STAGE,SUBTASK,CHECKPOINT)\n");
        return 2;
      }
      options.fault = core::FaultSpec{stage, subtask, at};
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  if (recover && checkpoint_dir.empty()) {
    std::fprintf(stderr, "--recover requires --checkpoint-dir\n");
    return 2;
  }
  if (checkpoint_interval <= 0) {
    std::fprintf(stderr, "--checkpoint-interval must be positive\n");
    return 2;
  }
  if (options.sample_interval_ms < 0) {
    std::fprintf(stderr, "--sample-interval must be non-negative\n");
    return 2;
  }
  // A time-series file needs a sampler; pick a sane default cadence.
  if (!timeseries_path.empty() && options.sample_interval_ms == 0) {
    options.sample_interval_ms = 100;
  }
  std::unique_ptr<flow::FileSnapshotStore> store;
  if (!checkpoint_dir.empty()) {
    store = std::make_unique<flow::FileSnapshotStore>(checkpoint_dir);
    options.snapshot_store = store.get();
    options.checkpoint_interval = checkpoint_interval;
    options.recover = recover;
  }

  if (dist.workers < 0) {
    std::fprintf(stderr, "--workers must be >= 0\n");
    return 2;
  }
  if (dist.workers > options.parallelism) {
    std::fprintf(stderr, "--workers must be <= --parallelism\n");
    return 2;
  }
  core::IcpeResult result =
      dist.workers > 0 ? RunIcpeDistributed(dataset, options, dist)
                       : RunIcpe(dataset, options);
  if (dist.workers > 0) {
    std::printf("deployment: coordinator + %d worker processes over %s "
                "loopback\n",
                dist.workers, dist.transport.c_str());
  }
  if (result.crashed) {
    std::printf("run crashed (injected or real fault); no patterns were "
                "committed, a --recover run reports them\n");
  }
  if (store != nullptr) {
    std::printf("checkpoints: %lld completed, %lld failed, latest id %lld "
                "-> %s\n",
                static_cast<long long>(result.checkpoints_completed),
                static_cast<long long>(result.checkpoints_failed),
                static_cast<long long>(result.last_checkpoint_id),
                store->directory().c_str());
  }
  if (maximal_only) {
    result.patterns = pattern::FilterMaximalPatterns(result.patterns);
  }
  const auto pstats = pattern::ComputePatternStatistics(result.patterns);
  std::printf("%s: %zu patterns (%s), mean size %.1f, mean duration %.1f\n",
              dataset.name.c_str(), result.patterns.size(),
              maximal_only ? "maximal" : "all", pstats.mean_size,
              pstats.mean_duration);
  std::printf("latency %.2f ms | throughput %.0f snapshots/s | "
              "clusters %lld (avg %.1f members)\n",
              result.snapshots.average_latency_ms,
              result.snapshots.throughput_tps,
              static_cast<long long>(result.cluster_count),
              result.avg_cluster_size);
  if (options.collect_stats) {
    const auto& cpu = GetCpuFeatures();
    const SimdLevel selected =
        cluster::ResolveSimdLevel(options.cluster_options.join.simd);
    std::printf("simd: %s kernels (cpu avx2=%s)\n",
                SimdLevelName(selected), cpu.avx2 ? "yes" : "no");
    std::printf("\n[run counters]\n");
    for (const core::CounterField& f : core::kCounterFields) {
      std::printf("  %-22s %lld\n", f.name,
                  static_cast<long long>(result.*f.value));
    }
  }
  if (options.collect_stats && !result.stage_stats.empty()) {
    std::printf("\n[stage stats]\n");
    flow::PrintStageStats(result.stage_stats, std::cout);
  }
  if (!result.worst_snapshots.empty()) {
    std::printf("\n[worst snapshots]  (per-stage span time, ms)\n");
    flow::PrintSnapshotBreakdown(result.worst_snapshots, std::cout);
  }
  if (result.trace_events > 0) {
    std::printf("trace: %lld events recorded, %lld dropped",
                static_cast<long long>(result.trace_events),
                static_cast<long long>(result.trace_dropped));
    if (!options.trace_path.empty()) {
      std::printf(" -> %s", options.trace_path.c_str());
    }
    std::printf("\n");
  }
  if (!result.time_series.empty()) {
    std::printf("time series: %zu samples at %lld ms cadence\n",
                result.time_series.size(),
                static_cast<long long>(options.sample_interval_ms));
  }
  if (!timeseries_path.empty()) {
    std::ofstream out(timeseries_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", timeseries_path.c_str());
      return 1;
    }
    flow::WriteTimeSeriesCsv(result.time_series, out);
    std::printf("time series -> %s\n", timeseries_path.c_str());
  }
  if (!patterns_out.empty()) {
    if (!WritePatternsText(result.patterns, patterns_out)) {
      std::fprintf(stderr, "cannot write %s\n", patterns_out.c_str());
      return 1;
    }
    std::printf("pattern multiset -> %s\n", patterns_out.c_str());
  }
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    apps::WriteResultJson(result, out);
    std::printf("results -> %s\n", json_path.c_str());
  }
  if (!svg_path.empty()) {
    std::ofstream out(svg_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", svg_path.c_str());
      return 1;
    }
    apps::WriteSvg(dataset, result.patterns, out);
    std::printf("rendering -> %s\n", svg_path.c_str());
  }
  return 0;
}

int RunCompress(int argc, char** argv) {
  if (argc != 5) return Usage();
  trajgen::Dataset dataset;
  const auto load = trajgen::LoadCsvDatasetFile(argv[2], &dataset);
  if (!load.ok) {
    std::fprintf(stderr, "error: %s\n", load.error.c_str());
    return 1;
  }
  const double tolerance = std::atof(argv[3]);
  const auto stats = dataset.ComputeStats();

  core::IcpeOptions options;
  options.cluster_options.join.eps = stats.MaxDistance() * 0.006;
  options.cluster_options.join.grid_cell_width = stats.MaxDistance() * 0.016;
  options.cluster_options.dbscan.min_pts = 3;
  options.constraints = PatternConstraints{3, 8, 3, 2};
  const core::IcpeResult result = RunIcpe(dataset, options);

  apps::CompressionOptions copts;
  copts.tolerance = tolerance;
  const auto compressed =
      CompressWithPatterns(dataset, result.patterns, copts);
  const std::size_t baseline =
      apps::CompressWithPatterns(dataset, {}, {0.0, 1.0}).EstimateBytes();
  const trajgen::Dataset restored = compressed.Decompress();
  std::ofstream out(argv[4]);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", argv[4]);
    return 1;
  }
  WriteCsvDataset(restored, out);
  std::printf("%zu patterns | %zu/%zu records as deltas | %zu -> %zu bytes "
              "(%.2fx) | error <= %.4f\n",
              result.patterns.size(), compressed.delta_records(),
              compressed.total_records(), baseline,
              compressed.EstimateBytes(),
              static_cast<double>(baseline) /
                  static_cast<double>(compressed.EstimateBytes()),
              tolerance / 2);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A distributed run re-executes this binary as its worker processes.
  if (const auto code = comove::core::MaybeNetWorker(argc, argv)) {
    return *code;
  }
  if (argc < 2) return Usage();
  if (!std::strcmp(argv[1], "generate")) return RunGenerate(argc, argv);
  if (!std::strcmp(argv[1], "detect")) return RunDetect(argc, argv);
  if (!std::strcmp(argv[1], "compress")) return RunCompress(argc, argv);
  if (!std::strcmp(argv[1], "worker") && argc == 4) {
    return comove::core::NetWorkerMain(argv[2], std::atoi(argv[3]));
  }
  return Usage();
}
