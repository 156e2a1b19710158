// Checkpointing overhead: end-to-end pipeline throughput with aligned
// barrier snapshotting at several intervals, against the same pipeline
// with checkpointing off. The interesting quantity is the tax the fault-
// tolerance subsystem levies on failure-free runs - barrier broadcasts,
// consumer-side alignment, per-operator state serialisation, the
// coordinator's bundle assembly and the commit of each bundle's pattern
// epochs. Snapshots go to a MemorySnapshotStore so the measurement
// isolates the subsystem cost from disk bandwidth (the file store's
// atomic-rename path is covered functionally by the tests).
//
// Grid: stream length {400, 1600} ticks x parallelism {1, 4} x checkpoint
// interval {off, 100, 20, 5} snapshot-times, on a taxi-like workload (a
// fleet that never leaves service, so the assembler's "last time" horizon
// keeps advancing and the stream is processed as a stream). The two
// lengths are the same fleet, so the live state is the same: a bundle
// holds the operator state and the patterns of one epoch, and bytes per
// checkpoint should not grow with the stream.
//
// Each (length, parallelism, interval) row runs `reps` off/on pairs back
// to back, alternating which side goes first. Its overhead is the median
// over pairs of 1 - on/off, so a slow phase of a shared machine hits both
// sides of a ratio; the off row reports the median of every off-run of
// its cell.
//
// Output: a human-readable table on stdout and machine-readable JSON (one
// row object per line) for scripts/bench_smoke.sh, default
// BENCH_checkpoint.json, overridable with --out <path>. The smoke gate
// holds interval=100 to <= 5% overhead at every (parallelism, length),
// and bytes per checkpoint at 1600 ticks within 1.5x of 400.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "core/icpe_engine.h"
#include "flow/checkpoint/snapshot_store.h"
#include "trajgen/brinkhoff_generator.h"

namespace comove::bench {
namespace {

constexpr std::int32_t kObjects = 250;
constexpr Timestamp kDurations[] = {400, 1600};
constexpr std::int64_t kIntervals[] = {100, 20, 5};
constexpr double kEps = 8.0;
constexpr double kGridWidth = 60.0;

struct Row {
  int parallelism = 0;
  Timestamp duration = 0;
  std::int64_t interval = 0;  ///< 0 = checkpointing off
  double snapshots_per_sec = 0.0;  ///< median over the row's runs
  double overhead = 0.0;           ///< median over pairs of 1 - on/off
  std::int64_t checkpoints = 0;
  std::int64_t snapshot_bytes = 0;
  std::int64_t largest_bundle = 0;

  std::int64_t bytes_per_checkpoint() const {
    return checkpoints > 0 ? snapshot_bytes / checkpoints : 0;
  }
};

/// Counts the state bytes of the largest bundle it stores.
class SizingStore : public flow::MemorySnapshotStore {
 public:
  std::optional<std::uint32_t> Write(
      const flow::CheckpointBundle& bundle) override {
    std::int64_t bytes = 0;
    for (const flow::OperatorState& state : bundle.states) {
      bytes += static_cast<std::int64_t>(state.bytes.size());
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      largest_ = std::max(largest_, bytes);
    }
    return MemorySnapshotStore::Write(bundle);
  }

  std::int64_t largest() const {
    std::lock_guard<std::mutex> lock(mu_);
    return largest_;
  }

 private:
  mutable std::mutex mu_;
  std::int64_t largest_ = 0;
};

core::IcpeOptions BaseOptions(int parallelism) {
  core::IcpeOptions options;
  options.cluster_options.join.eps = kEps;
  options.cluster_options.join.grid_cell_width = kGridWidth;
  options.cluster_options.dbscan.min_pts = 3;
  options.constraints = PatternConstraints{3, 6, 3, 2};
  options.enumerator = core::EnumeratorKind::kFBA;
  options.parallelism = parallelism;
  return options;
}

/// End-to-end snapshots per second of one run. Timed runs keep stats
/// collection OFF (the instrumentation has its own cost, which must not
/// be booked against checkpointing).
double Rate(const trajgen::Dataset& dataset, int parallelism,
            std::int64_t interval) {
  flow::MemorySnapshotStore store;
  core::IcpeOptions options = BaseOptions(parallelism);
  if (interval > 0) {
    options.checkpoint_interval = interval;
    options.snapshot_store = &store;
  }
  Stopwatch watch;
  const core::IcpeResult result = RunIcpe(dataset, options);
  return static_cast<double>(result.snapshot_count) / watch.ElapsedSeconds();
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// The off row and one row per interval of one (length, parallelism)
/// cell. The checkpoint count and byte columns come from one extra
/// untimed run per interval with stats on.
std::vector<Row> MeasureCell(const trajgen::Dataset& dataset,
                             Timestamp duration, int parallelism, int reps) {
  std::vector<double> off;
  std::vector<Row> rows;
  for (const std::int64_t interval : kIntervals) {
    std::vector<double> on;
    std::vector<double> ratio;
    for (int r = 0; r < reps; ++r) {
      // Alternate which side of a pair runs first, so neither gains from
      // its position (a warm heap, a quiet phase of the machine).
      double base = 0.0;
      double rate = 0.0;
      if (r % 2 == 0) {
        base = Rate(dataset, parallelism, 0);
        rate = Rate(dataset, parallelism, interval);
      } else {
        rate = Rate(dataset, parallelism, interval);
        base = Rate(dataset, parallelism, 0);
      }
      off.push_back(base);
      on.push_back(rate);
      ratio.push_back(rate / base);
    }
    Row row;
    row.parallelism = parallelism;
    row.duration = duration;
    row.interval = interval;
    row.snapshots_per_sec = Median(on);
    row.overhead = 1.0 - Median(ratio);
    SizingStore store;
    core::IcpeOptions options = BaseOptions(parallelism);
    options.checkpoint_interval = interval;
    options.snapshot_store = &store;
    options.collect_stats = true;
    const core::IcpeResult result = RunIcpe(dataset, options);
    row.checkpoints = result.checkpoints_completed;
    for (const auto& stage : result.stage_stats) {
      if (stage.stage == "checkpoint") {
        row.snapshot_bytes = stage.snapshot_bytes;
      }
    }
    row.largest_bundle = store.largest();
    rows.push_back(row);
  }
  Row off_row;
  off_row.parallelism = parallelism;
  off_row.duration = duration;
  off_row.snapshots_per_sec = Median(off);
  rows.insert(rows.begin(), off_row);
  return rows;
}

}  // namespace
}  // namespace comove::bench

int main(int argc, char** argv) {
  using comove::bench::Row;

  std::string out_path = "BENCH_checkpoint.json";
  int reps = 9;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--reps" && i + 1 < argc) {
      reps = std::max(1, std::stoi(argv[++i]));
    } else {
      std::cerr << "usage: " << argv[0] << " [--out path] [--reps n]\n";
      return 2;
    }
  }

  std::vector<Row> rows;
  for (const comove::Timestamp duration : comove::bench::kDurations) {
    const comove::trajgen::Dataset dataset =
        comove::trajgen::GenerateTaxiLike(comove::bench::kObjects, duration,
                                          /*seed=*/42);
    for (const int parallelism : {1, 4}) {
      for (const Row& row : comove::bench::MeasureCell(dataset, duration,
                                                       parallelism, reps)) {
        rows.push_back(row);
      }
    }
  }

  std::printf("%4s %6s %9s %18s %9s %12s %12s %12s %14s\n", "p", "ticks",
              "interval", "snapshots_per_sec", "overhead", "checkpoints",
              "snap_bytes", "bytes/ckpt", "largest_bundle");
  for (const Row& row : rows) {
    std::printf("%4d %6d %9lld %18.0f %8.1f%% %12lld %12lld %12lld %14lld\n",
                row.parallelism, static_cast<int>(row.duration),
                static_cast<long long>(row.interval), row.snapshots_per_sec,
                row.overhead * 100.0, static_cast<long long>(row.checkpoints),
                static_cast<long long>(row.snapshot_bytes),
                static_cast<long long>(row.bytes_per_checkpoint()),
                static_cast<long long>(row.largest_bundle));
  }

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  for (const Row& row : rows) {
    out << "{\"workload\": \"checkpoint\", \"parallelism\": "
        << row.parallelism << ", \"duration\": " << row.duration
        << ", \"interval\": " << row.interval
        << ", \"snapshots_per_sec\": "
        << static_cast<std::int64_t>(row.snapshots_per_sec)
        << ", \"overhead_pct\": "
        << static_cast<double>(static_cast<std::int64_t>(
               row.overhead * 1000.0)) / 10.0
        << ", \"checkpoints\": " << row.checkpoints
        << ", \"snapshot_bytes\": " << row.snapshot_bytes
        << ", \"bytes_per_checkpoint\": " << row.bytes_per_checkpoint()
        << ", \"largest_bundle\": " << row.largest_bundle << "}\n";
  }
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
