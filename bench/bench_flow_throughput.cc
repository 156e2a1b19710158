// Flow-layer transfer throughput: how many payloads per second the bounded
// channels move between stages, swept over group size and stage
// parallelism. Every transfer moves one element, and here an element is
// one group of `batch` payloads built per destination and sent with
// Exchange::Send - the way RunClusterSubtask ships one PartitionGroup per
// (snapshot, destination subtask). This isolates what the pipeline pays
// per element for locks, condvars and the group's heap block, independent
// of join/DBSCAN compute.
//
// Workloads:
//   source_pipe         - 1 producer -> 1 consumer, no routing. No engine
//                         edge has this shape any more (the source feeds
//                         the assembler by function call); the key names
//                         the committed baseline rows.
//   join_parallel_cells - a synthetic p producers -> p consumers shuffle
//                         of groups of grid-object-sized payloads,
//                         hash-routed with periodic watermark broadcasts:
//                         the all-to-all pattern of the cluster->enumerate
//                         partition edge at a higher element rate. The key
//                         is kept because it names the committed baseline
//                         rows and the scripts/bench_smoke.sh gate.
//
// A producer ships a destination's group when it holds `batch` payloads,
// and flushes every partial group before each watermark (one per 1024
// payloads per producer) and at close, so a watermark always follows the
// data it covers. Consumers drain up to kDrain queued elements per lock,
// as the enumerate subtasks do. records_per_sec counts payloads.
//
// Output: a human-readable table on stdout and machine-readable JSON (one
// row object per line) for scripts/bench_smoke.sh, default
// BENCH_flow_throughput.json, overridable with --out <path>.
//
// The trace_overhead workload guards the tracing layer's cost on this
// path. It runs the same shuffle three ways, interleaved within one
// process so the comparison is paired rather than against a stored file
// (run-to-run noise on this bench swings several percent, dwarfing a 1%
// budget):
//   ref - a bare group Send, no hook (the code the production path is
//         allowed to cost at most 1% more than),
//   off - RunClusterSubtask's flush/partitions span hook around the Send
//         with a null recorder (the branch-only path every untraced run
//         takes),
//   on  - the same hook with a live recorder, one span per shipped group.
// scripts/bench_smoke.sh gates off/ref >= 0.99 and on/off >= 0.95.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "cluster/grid_object.h"
#include "common/stopwatch.h"
#include "flow/exchange.h"
#include "flow/task_group.h"
#include "flow/trace.h"

namespace comove::bench {
namespace {

/// Shuffle payload: a timestamp plus one grid object, a fixed-size
/// element comparable to the pipeline's records and partitions.
struct CellPayload {
  Timestamp time = 0;
  cluster::GridObject object;
};

/// One transfer: a destination's payloads, as a PartitionGroup holds one
/// snapshot's partitions for one enumerate subtask.
using Group = std::vector<CellPayload>;

constexpr std::size_t kChannelCapacity = 128;  // engine default
constexpr std::size_t kDrain = 64;  // RunEnumerateSubtask's PopBatch size
constexpr std::int64_t kWatermarkEvery = 1024;  // payloads per producer

struct Row {
  std::string workload;
  int parallelism = 0;
  std::size_t batch = 0;
  std::string mode;  ///< trace_overhead only: "ref" | "off" | "on"
  double records_per_sec = 0.0;
};

/// One producer's group builder (not thread-safe; one per producer).
/// With kHook each Send is wrapped in RunClusterSubtask's "flush" span
/// hook, which records nothing when `trace` is null; without it the Send
/// is bare - the trace_overhead reference.
template <bool kHook>
class GroupSender {
 public:
  GroupSender(flow::Exchange<Group>& exchange, std::int32_t producer,
              std::size_t batch, flow::TraceRecorder* trace)
      : exchange_(&exchange),
        producer_(producer),
        batch_(batch),
        trace_(trace),
        groups_(static_cast<std::size_t>(exchange.consumers())) {}

  GroupSender(const GroupSender&) = delete;
  GroupSender& operator=(const GroupSender&) = delete;

  /// Adds a payload to `target`'s group; ships the group once full.
  void Add(std::size_t target, const CellPayload& payload) {
    Group& group = groups_[target];
    group.push_back(payload);
    if (group.size() >= batch_) Ship(target);
  }

  /// Ships every partial group, then broadcasts watermark `t`.
  void BroadcastWatermark(Timestamp t) {
    FlushAll();
    exchange_->BroadcastWatermark(producer_, t);
  }

  /// Ships every partial group and closes this producer.
  void Close() {
    FlushAll();
    exchange_->CloseProducer(producer_);
  }

 private:
  void FlushAll() {
    for (std::size_t target = 0; target < groups_.size(); ++target) {
      if (!groups_[target].empty()) Ship(target);
    }
  }

  void Ship(std::size_t target) {
    Group& group = groups_[target];
    if constexpr (kHook) {
      // RunClusterSubtask's hook: the span covers the push, including
      // any backpressure from a full channel.
      const Timestamp t = group.back().time;
      const auto count = static_cast<std::int64_t>(group.size());
      const std::uint64_t f0 = trace_ != nullptr ? trace_->NowNs() : 0;
      exchange_->Send(producer_, target, std::move(group));
      group.clear();  // moved-from: make it empty for the next group
      if (trace_ != nullptr) {
        trace_->RecordSpanSince("flush", "partitions", producer_, t, f0,
                                count);
      }
    } else {
      exchange_->Send(producer_, target, std::move(group));
      group.clear();
    }
  }

  flow::Exchange<Group>* exchange_;
  std::int32_t producer_;
  std::size_t batch_;
  flow::TraceRecorder* trace_;
  std::vector<Group> groups_;  ///< one per destination
};

/// Moves `total` payloads through a p-producer p-consumer hash-routed
/// exchange in groups of `batch` and returns the wall-clock seconds.
template <bool kHook>
double RunShuffle(int parallelism, std::size_t batch, std::int64_t total,
                  flow::TraceRecorder* trace) {
  const auto p = static_cast<std::int32_t>(parallelism);
  const std::int64_t per_producer = total / parallelism;
  flow::Exchange<Group> exchange(p, p, kChannelCapacity);
  flow::TaskGroup tasks;
  Stopwatch watch;
  for (std::int32_t producer = 0; producer < p; ++producer) {
    tasks.Spawn([&exchange, producer, per_producer, batch, parallelism,
                 trace] {
      GroupSender<kHook> sender(exchange, producer, batch, trace);
      CellPayload payload;
      payload.object.id = producer;
      for (std::int64_t i = 0; i < per_producer; ++i) {
        payload.time = i / kWatermarkEvery;
        payload.object.key =
            GridKey{static_cast<std::int32_t>(i & 63), producer};
        sender.Add(static_cast<std::size_t>(i) %
                       static_cast<std::size_t>(parallelism),
                   payload);
        if ((i + 1) % kWatermarkEvery == 0) {
          sender.BroadcastWatermark(payload.time);
        }
      }
      sender.Close();
    });
  }
  std::vector<std::int64_t> received(static_cast<std::size_t>(p), 0);
  for (std::int32_t consumer = 0; consumer < p; ++consumer) {
    tasks.Spawn([&exchange, &received, consumer] {
      auto& channel = exchange.channel(consumer);
      std::vector<flow::Element<Group>> drained;
      std::int64_t count = 0;
      while (channel.PopBatch(drained, kDrain) > 0) {
        for (const flow::Element<Group>& element : drained) {
          if (element.is_data()) {
            count += static_cast<std::int64_t>(element.data.size());
          }
        }
      }
      received[static_cast<std::size_t>(consumer)] = count;
    });
  }
  tasks.JoinAll();
  const double seconds = watch.ElapsedMillis() / 1e3;
  std::int64_t delivered = 0;
  for (const std::int64_t c : received) delivered += c;
  if (delivered != per_producer * parallelism) {
    std::cerr << "payload loss: " << delivered << " != "
              << per_producer * parallelism << "\n";
    std::abort();
  }
  return seconds;
}

/// Best-of-`reps` throughput of the production configuration (the hook
/// with tracing disabled), so one descheduled run cannot fake a
/// regression in the smoke gate.
Row Measure(const std::string& workload, int parallelism, std::size_t batch,
            std::int64_t total, int reps) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const double seconds =
        RunShuffle<true>(parallelism, batch, total, nullptr);
    best = std::max(best, static_cast<double>(total) / seconds);
  }
  return Row{workload, parallelism, batch, "", best};
}

/// The paired tracing-overhead comparison: ref / off / on measured
/// back-to-back inside each rep (interleaved, so drift hits all three
/// alike). p=4 batch=64 - the engine's default parallelism on a shuffle
/// of mid-sized groups.
///
/// Estimation: a 1% gate cannot be read off per-mode aggregate rates -
/// machine load drifts several percent between reps, which any per-mode
/// statistic (max, mean) absorbs as bias. Instead each rep yields PAIRED
/// ratios off/ref and on/off from its three adjacent runs (drift within a
/// rep's ~half-second window is far smaller), and the gate uses the
/// median ratio across reps - robust to the occasional descheduled run.
/// The exported rows encode exactly those medians: ref carries its
/// trimmed-mean rate for drift reporting, and off/on are scaled from it
/// so that downstream rate ratios reproduce the median paired ratios.
std::vector<Row> MeasureTraceOverhead(std::int64_t total, int reps) {
  constexpr int kP = 4;
  constexpr std::size_t kBatch = 64;
  // Percent-level gates need more samples and longer runs than the
  // coarse 20%-gated sweep rows; rotate the in-rep mode order so any
  // position-correlated cost (cold caches after the previous mode's
  // teardown) cannot systematically favour one mode.
  const int overhead_reps = std::max(reps * 3, 9);
  total *= 2;
  const auto run_ref = [total] {
    return RunShuffle<false>(kP, kBatch, total, nullptr);
  };
  const auto run_off = [total] {
    return RunShuffle<true>(kP, kBatch, total, nullptr);
  };
  const auto run_on = [total] {
    // One recorder per run: spans from a run never spill into the next.
    flow::TraceRecorder recorder;
    return RunShuffle<true>(kP, kBatch, total, &recorder);
  };
  const auto top_half_mean = [](std::vector<double>& rates) {
    std::sort(rates.begin(), rates.end(), std::greater<double>());
    const std::size_t keep = (rates.size() + 1) / 2;
    double sum = 0.0;
    for (std::size_t i = 0; i < keep; ++i) sum += rates[i];
    return sum / static_cast<double>(keep);
  };
  const auto median = [](std::vector<double>& values) {
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : (values[n / 2 - 1] + values[n / 2]) / 2.0;
  };
  std::vector<double> ref_rates, off_ref_ratios, on_off_ratios;
  for (int r = 0; r < overhead_reps; ++r) {
    double ref_s = 0.0, off_s = 0.0, on_s = 0.0;
    switch (r % 3) {
      case 0: ref_s = run_ref(); off_s = run_off(); on_s = run_on(); break;
      case 1: off_s = run_off(); on_s = run_on(); ref_s = run_ref(); break;
      default: on_s = run_on(); ref_s = run_ref(); off_s = run_off(); break;
    }
    ref_rates.push_back(static_cast<double>(total) / ref_s);
    // Throughput ratios: throughput is inversely proportional to the
    // measured seconds of the same fixed record count.
    off_ref_ratios.push_back(ref_s / off_s);
    on_off_ratios.push_back(off_s / on_s);
  }
  const double ref = top_half_mean(ref_rates);
  const double off = ref * median(off_ref_ratios);
  const double on = off * median(on_off_ratios);
  return {Row{"trace_overhead", kP, kBatch, "ref", ref},
          Row{"trace_overhead", kP, kBatch, "off", off},
          Row{"trace_overhead", kP, kBatch, "on", on}};
}

}  // namespace
}  // namespace comove::bench

int main(int argc, char** argv) {
  using comove::bench::Measure;
  using comove::bench::Row;

  std::string out_path = "BENCH_flow_throughput.json";
  std::int64_t total = 1 << 21;  // payloads per configuration
  int reps = 5;  // best-of: enough that the peak estimate is stable
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--records" && i + 1 < argc) {
      total = std::stoll(argv[++i]);
    } else if (arg == "--reps" && i + 1 < argc) {
      reps = std::stoi(argv[++i]);
    } else {
      std::cerr << "usage: " << argv[0]
                << " [--out path] [--records n] [--reps n]\n";
      return 2;
    }
  }

  const std::size_t batches[] = {1, 16, 64, 256};
  std::vector<Row> rows;
  for (const std::size_t batch : batches) {
    rows.push_back(Measure("source_pipe", 1, batch, total, reps));
  }
  for (const int parallelism : {1, 4, 8}) {
    for (const std::size_t batch : batches) {
      rows.push_back(
          Measure("join_parallel_cells", parallelism, batch, total, reps));
    }
  }
  for (Row& row : comove::bench::MeasureTraceOverhead(total, reps)) {
    rows.push_back(std::move(row));
  }

  std::printf("%-22s %4s %6s %5s %16s\n", "workload", "p", "batch", "mode",
              "records_per_sec");
  for (const Row& row : rows) {
    std::printf("%-22s %4d %6zu %5s %16.0f\n", row.workload.c_str(),
                row.parallelism, row.batch,
                row.mode.empty() ? "-" : row.mode.c_str(),
                row.records_per_sec);
  }
  // The group-edge ratio scripts/bench_smoke.sh floors at 1.5x: what
  // moving a snapshot's partitions as one element buys over one payload
  // per transfer.
  double base = 0.0, batched = 0.0;
  for (const Row& row : rows) {
    if (row.workload == "join_parallel_cells" && row.parallelism == 4) {
      if (row.batch == 1) base = row.records_per_sec;
      if (row.batch == 64) batched = row.records_per_sec;
    }
  }
  if (base > 0.0) {
    std::printf("join_parallel_cells p=4: batch64/batch1 = %.2fx\n",
                batched / base);
  }
  double ref = 0.0, off = 0.0, on = 0.0;
  for (const Row& row : rows) {
    if (row.workload != "trace_overhead") continue;
    if (row.mode == "ref") ref = row.records_per_sec;
    if (row.mode == "off") off = row.records_per_sec;
    if (row.mode == "on") on = row.records_per_sec;
  }
  if (ref > 0.0 && off > 0.0 && on > 0.0) {
    std::printf("trace_overhead p=4 batch=64: off/ref = %.3f, "
                "on/off = %.3f\n",
                off / ref, on / off);
  }

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  for (const Row& row : rows) {
    out << "{\"workload\": \"" << row.workload
        << "\", \"parallelism\": " << row.parallelism
        << ", \"batch\": " << row.batch;
    if (!row.mode.empty()) out << ", \"mode\": \"" << row.mode << "\"";
    out << ", \"records_per_sec\": "
        << static_cast<std::int64_t>(row.records_per_sec) << "}\n";
  }
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
