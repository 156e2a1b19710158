// The benchmark of record's engine-side program. One process per command,
// so every measured engine run starts from a fresh heap:
//
//   e2ebench generate <workload> <seed> <csv>
//   e2ebench run <workload> <csv> [--stats] [--checkpoint-dir DIR]
//       (the directory is used only by checkpointing workloads)
//   e2ebench replay <workload> <csv> [--trace-out PATH]
//   e2ebench selftest
//
// Each command prints one JSON object as its last stdout line; run.py in
// this directory drives them and aggregates across processes.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "common/stopwatch.h"
#include "core/distributed.h"
#include "core/icpe_engine.h"
#include "digest.h"
#include "flow/checkpoint/snapshot_store.h"
#include "flow/stage_stats.h"
#include "flow/trace.h"
#include "replay.h"
#include "trajgen/csv_loader.h"
#include "workloads.h"

namespace comove::e2ebench {
namespace {

/// Flat JSON object writer; keys and string values are plain identifiers.
class Json {
 public:
  Json& Num(std::string_view key, double value) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return Raw(key, buf);
  }
  Json& Str(std::string_view key, std::string_view value) {
    std::string quoted = "\"";
    quoted.append(value).append("\"");
    return Raw(key, quoted);
  }
  Json& Raw(std::string_view key, std::string_view value) {
    text_.append(text_.empty() ? "{\"" : ", \"").append(key).append("\": ");
    text_.append(value);
    return *this;
  }
  std::string str() const { return text_.empty() ? "{}" : text_ + "}"; }

 private:
  std::string text_;
};

double CpuSeconds(int who) {
  rusage usage{};
  getrusage(who, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// Peak resident set in MB: of this process (its VmHWM) for RUSAGE_SELF,
/// of the largest reaped child for RUSAGE_CHILDREN.
double MaxRssMb(int who) {
  rusage usage{};
  getrusage(who, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

[[noreturn]] void Fail(const std::string& message) {
  std::fprintf(stderr, "e2ebench: %s\n", message.c_str());
  std::exit(2);
}

const Workload& WorkloadArg(const char* name) {
  const Workload* w = FindWorkload(name);
  if (w == nullptr) Fail(std::string("unknown workload ") + name);
  return *w;
}

/// The set-up every engine run pays: parse the CSV and derive the extent
/// that eps and lg are scaled by.
struct Loaded {
  trajgen::Dataset dataset;
  trajgen::DatasetStats stats;
  double parse_ms = 0.0;
  double setup_s = 0.0;
  double rss_mb = 0.0;  ///< growth of the peak resident set by the load
};

Loaded Load(const std::string& csv) {
  Loaded loaded;
  const double rss_before = MaxRssMb(RUSAGE_SELF);
  Stopwatch watch;
  const trajgen::CsvLoadResult result =
      trajgen::LoadCsvDatasetFile(csv, &loaded.dataset);
  if (!result.ok) Fail("cannot load " + csv + ": " + result.error);
  loaded.parse_ms = watch.ElapsedMillis();
  loaded.stats = loaded.dataset.ComputeStats();
  loaded.setup_s = watch.ElapsedSeconds();
  loaded.rss_mb = MaxRssMb(RUSAGE_SELF) - rss_before;
  return loaded;
}

int Generate(const Workload& w, std::uint64_t seed, const std::string& csv) {
  const trajgen::Dataset dataset = GenerateWorkload(w, seed);
  const std::string tmp = csv + ".tmp";
  std::ofstream out(tmp);
  trajgen::WriteCsvDataset(dataset, out);
  out.close();
  if (out.fail()) Fail("cannot write " + tmp);
  if (std::rename(tmp.c_str(), csv.c_str()) != 0) Fail("cannot rename " + tmp);
  std::printf("%s\n", Json()
                          .Num("records", static_cast<double>(
                                              dataset.records.size()))
                          .str()
                          .c_str());
  return 0;
}

/// The stage-stats rows a --stats run reports, as a nested JSON object
/// keyed by row name ("source->assembler", "w0:link:coord", ...).
std::string StageRows(const std::vector<flow::StageStatsSnapshot>& rows) {
  std::string out = "{";
  for (const flow::StageStatsSnapshot& row : rows) {
    if (out.size() > 1) out += ", ";
    out.append("\"").append(row.stage).append("\": ");
    Json fields;
    for (const flow::StageStatsField& f : flow::StageStatsFields()) {
      fields.Num(f.json_name, f.value(row));
    }
    out += fields.str();
  }
  return out + "}";
}

int Run(const Workload& w, const std::string& csv, bool stats,
        const std::string& checkpoint_dir) {
  const Loaded loaded = Load(csv);
  core::IcpeOptions options = EngineOptions(w, loaded.stats);
  options.collect_stats = stats;
  std::unique_ptr<flow::FileSnapshotStore> store;
  if (w.checkpoint_interval > 0) {
    if (checkpoint_dir.empty()) Fail("this workload needs --checkpoint-dir");
    store = std::make_unique<flow::FileSnapshotStore>(checkpoint_dir);
    options.checkpoint_interval = w.checkpoint_interval;
    options.snapshot_store = store.get();
  }

  const double cpu_before = CpuSeconds(RUSAGE_SELF) +
                            CpuSeconds(RUSAGE_CHILDREN);
  const auto start = std::chrono::steady_clock::now();
  const core::IcpeResult result =
      w.distributed
          ? core::RunIcpeDistributed(loaded.dataset, options,
                                     core::DistributedOptions{1, "tcp"})
          : core::RunIcpe(loaded.dataset, options);
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
  const double cpu_s =
      CpuSeconds(RUSAGE_SELF) + CpuSeconds(RUSAGE_CHILDREN) - cpu_before;
  if (result.crashed) Fail("engine run crashed");

  const auto snapshots = static_cast<double>(result.snapshot_count);
  Json json;
  json.Str("workload", w.name)
      .Num("snapshots", snapshots)
      .Num("throughput_sps", snapshots / wall_s)
      .Num("cpu_ms_per_snapshot", cpu_s * 1e3 / snapshots)
      .Num("latency_p50_ms", result.snapshots.p50_latency_ms)
      .Num("latency_p95_ms", result.snapshots.p95_latency_ms)
      .Num("latency_p99_ms", result.snapshots.p99_latency_ms)
      .Num("ingest_sps", result.snapshots.throughput_tps)
      .Num("peak_rss_mb", MaxRssMb(RUSAGE_SELF) + MaxRssMb(RUSAGE_CHILDREN))
      .Num("setup_s", loaded.setup_s)
      .Num("avg_enum_ms", result.avg_enum_ms)
      .Num("checkpoints", static_cast<double>(result.checkpoints_completed))
      .Num("clusters", static_cast<double>(result.cluster_count))
      .Num("cluster_members",
           std::round(result.avg_cluster_size *
                      static_cast<double>(result.cluster_count)))
      .Str("digest", PatternDigest(result.patterns));
  if (stats) json.Raw("stages", StageRows(result.stage_stats));
  std::printf("%s\n", json.str().c_str());
  return 0;
}

int Replay(const Workload& w, const std::string& csv,
           const std::string& trace_out) {
  const Loaded loaded = Load(csv);
  const core::IcpeOptions options = EngineOptions(w, loaded.stats);
  // Large enough to keep every span of these workloads; drops are
  // reported, and self times never depend on the ring.
  flow::TraceRecorder trace(1u << 19);
  const ReplayReport r = LayeredReplay(w, loaded.dataset, options, trace);
  if (!trace_out.empty()) {
    std::ofstream out(trace_out);
    trace.WriteChromeTrace(out);
  }
  Json json;
  json.Str("workload", w.name)
      .Num("records", static_cast<double>(loaded.dataset.records.size()))
      .Num("csv_parse_ms", loaded.parse_ms)
      .Num("dataset_rss_mb", loaded.rss_mb)
      .Num("snapshots", static_cast<double>(r.snapshots))
      .Num("wall_ms", r.wall_ms);
  for (int l = 0; l < kLayerCount; ++l) {
    json.Num(std::string(kLayerMetric[l]) + ".self_ms", r.self_ms[l]);
  }
  json.Num("clusters", static_cast<double>(r.clusters))
      .Num("cluster_members", static_cast<double>(r.cluster_members))
      .Num("partition_members", static_cast<double>(r.partition_members))
      .Num("strings_opened",
           static_cast<double>(r.enumeration.strings_opened))
      .Num("candidates_peak",
           static_cast<double>(r.enumeration.candidates_peak))
      .Num("apriori_nodes", static_cast<double>(r.enumeration.apriori_nodes))
      .Num("apriori_pruned",
           static_cast<double>(r.enumeration.apriori_pruned))
      .Num("state_bytes", static_cast<double>(r.state_bytes))
      .Num("emitted", static_cast<double>(r.emitted))
      .Num("checkpoints", static_cast<double>(r.checkpoints))
      .Num("spans", static_cast<double>(r.spans))
      .Num("spans_dropped", static_cast<double>(r.spans_dropped))
      .Num("patterns", static_cast<double>(r.patterns))
      .Str("digest", r.digest);
  std::printf("%s\n", json.str().c_str());
  return 0;
}

/// The digest must not depend on pattern order, and must see any change.
int SelfTest() {
  std::vector<CoMovementPattern> patterns = {
      {{1, 2, 3}, {4, 5, 6, 7}},
      {{1, 2}, {4, 5, 6}},
      {{2, 9}, {10, 11}},
      {{1, 2}, {4, 5, 6}},  // a multiset may repeat a pattern
  };
  const std::string digest = PatternDigest(patterns);
  bool ok = digest.size() == 16;
  const auto by_times = [](const CoMovementPattern& a,
                           const CoMovementPattern& b) {
    return std::tie(a.times, a.objects) < std::tie(b.times, b.objects);
  };
  std::sort(patterns.begin(), patterns.end(), by_times);
  do {
    ok = ok && PatternDigest(patterns) == digest;
  } while (std::next_permutation(patterns.begin(), patterns.end(), by_times));
  std::vector<CoMovementPattern> fewer(patterns.begin(), patterns.end() - 1);
  std::vector<CoMovementPattern> shifted = patterns;
  ++shifted.back().times.back();
  ok = ok && PatternDigest(fewer) != digest &&
       PatternDigest(shifted) != digest && PatternDigest({}) != digest;
  std::printf("%s\n",
              Json().Str("selftest", ok ? "ok" : "failed").str().c_str());
  return ok ? 0 : 1;
}

int Main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  const auto flag_value = [&](std::string_view flag) -> std::string {
    for (std::size_t i = 0; i + 1 < args.size(); ++i) {
      if (args[i] == flag) return args[i + 1];
    }
    return "";
  };
  const auto has_flag = [&](std::string_view flag) {
    return std::find(args.begin(), args.end(), flag) != args.end();
  };
  const std::string command = args.empty() ? "" : args[0];
  if (command == "generate" && args.size() == 4) {
    return Generate(WorkloadArg(argv[2]), std::strtoull(argv[3], nullptr, 10),
                    args[3]);
  }
  if (command == "run" && args.size() >= 3) {
    return Run(WorkloadArg(argv[2]), args[2], has_flag("--stats"),
               flag_value("--checkpoint-dir"));
  }
  if (command == "replay" && args.size() >= 3) {
    return Replay(WorkloadArg(argv[2]), args[2], flag_value("--trace-out"));
  }
  if (command == "selftest") return SelfTest();
  Fail("usage: e2ebench generate|run|replay|selftest ... (see e2ebench.cc)");
}

}  // namespace
}  // namespace comove::e2ebench

int main(int argc, char** argv) {
  // Worker processes of the distributed workload re-execute this binary.
  if (const auto code = comove::core::MaybeNetWorker(argc, argv)) return *code;
  return comove::e2ebench::Main(argc, argv);
}
