#ifndef COMOVE_FLOW_METRICS_H_
#define COMOVE_FLOW_METRICS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "flow/stage_stats.h"

/// \file
/// Latency/throughput metrics matching the paper's definitions (§7):
/// latency is the response time per snapshot (ingest until every subtask
/// of the final stage has finalised it), throughput is the number of
/// snapshots processed per second. Beyond the paper's average we keep a
/// log-scale histogram of the per-snapshot latencies, so a run also
/// reports p50/p95/p99 - the tail is where backpressure and watermark lag
/// show up first.

namespace comove::flow {

/// Aggregated results of one pipeline run.
struct RunMetrics {
  std::int64_t snapshots = 0;
  double average_latency_ms = 0.0;
  double max_latency_ms = 0.0;
  /// Histogram estimates with within-bucket rank interpolation; see the
  /// error-bound test in metrics_test - a few percent relative error on
  /// smooth distributions, ~12.5% (one sub-bucket) worst case.
  double p50_latency_ms = 0.0;
  double p95_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  double throughput_tps = 0.0;  ///< snapshots per second
  double wall_seconds = 0.0;
};

/// The run's per-snapshot ledger, thread-safe. The ingest subtask calls
/// MarkIngest(time) when a snapshot enters the pipeline; each subtask of
/// the final stage (enumerate, or cluster when the run does not
/// enumerate) calls Progress(subtask, through) once it has finalised
/// every time <= `through`. A snapshot is answered - its latency clock
/// stops - when every subtask has passed it.
class SnapshotMetrics {
 public:
  using Clock = std::chrono::steady_clock;

  /// A ledger over the final stage's `subtasks` subtasks.
  explicit SnapshotMetrics(std::int32_t subtasks)
      : progress_(static_cast<std::size_t>(subtasks),
                  std::numeric_limits<Timestamp>::min()) {
    COMOVE_CHECK(subtasks > 0);
  }

  /// Starts the latency clock for `snapshot_time`. Each snapshot time may
  /// be ingested at most once per completion: a duplicate mark would
  /// silently measure from the first ingest, so it aborts instead.
  void MarkIngest(Timestamp snapshot_time) {
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    const bool inserted = ingest_.emplace(snapshot_time, now).second;
    COMOVE_CHECK_MSG(inserted, "duplicate ingest mark for snapshot %d",
                     snapshot_time);
    if (!started_) {
      start_ = now;
      started_ = true;
    }
  }

  /// Subtask `subtask` finalised every snapshot time <= `through`; a
  /// stale report never moves its progress back. Completes, in ascending
  /// time, every ingested snapshot all subtasks have passed.
  void Progress(std::int32_t subtask, Timestamp through) {
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    COMOVE_CHECK_MSG(
        subtask >= 0 && static_cast<std::size_t>(subtask) < progress_.size(),
        "progress from unknown subtask %d of %zu", subtask,
        progress_.size());
    Timestamp& p = progress_[static_cast<std::size_t>(subtask)];
    p = std::max(p, through);
    const Timestamp frontier =
        *std::min_element(progress_.begin(), progress_.end());
    while (!ingest_.empty() && ingest_.begin()->first <= frontier) {
      const auto latency_ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              now - ingest_.begin()->second)
              .count();
      histogram_.RecordNs(static_cast<std::uint64_t>(latency_ns));
      if (keep_per_snapshot_) {
        per_snapshot_.emplace_back(ingest_.begin()->first,
                                   static_cast<double>(latency_ns) / 1e6);
      }
      ingest_.erase(ingest_.begin());
      end_ = now;
    }
  }

  /// Snapshots ingested but not yet answered; 0 once a run has drained.
  std::size_t pending() const {
    std::lock_guard<std::mutex> lock(mu_);
    return ingest_.size();
  }

  /// Opt into retaining every (snapshot_time, latency_ms) pair. Off by
  /// default - the aggregate histogram is O(1) per snapshot while this is
  /// O(n) memory; the trace exporter turns it on to rank the worst-k
  /// snapshots for the stage-latency breakdown.
  void KeepPerSnapshot(bool keep) {
    std::lock_guard<std::mutex> lock(mu_);
    keep_per_snapshot_ = keep;
  }

  /// The retained per-snapshot latencies, in completion order (empty
  /// unless KeepPerSnapshot(true) was set before the run).
  std::vector<std::pair<Timestamp, double>> PerSnapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return per_snapshot_;
  }

  /// Final aggregation; call after the pipeline has drained.
  RunMetrics Collect() const {
    std::lock_guard<std::mutex> lock(mu_);
    RunMetrics m;
    m.snapshots = histogram_.count();
    if (m.snapshots > 0) {
      m.average_latency_ms = histogram_.AverageMs();
      m.max_latency_ms = histogram_.MaxMs();
      m.p50_latency_ms = histogram_.PercentileMs(0.50);
      m.p95_latency_ms = histogram_.PercentileMs(0.95);
      m.p99_latency_ms = histogram_.PercentileMs(0.99);
      m.wall_seconds = std::chrono::duration<double>(end_ - start_).count();
      m.throughput_tps = m.wall_seconds > 0.0
                             ? static_cast<double>(m.snapshots) /
                                   m.wall_seconds
                             : 0.0;
    }
    return m;
  }

 private:
  mutable std::mutex mu_;
  /// Each in-flight snapshot time and its ingest stamp, ascending.
  std::map<Timestamp, Clock::time_point> ingest_;
  /// Per final-stage subtask: every time <= this is finalised.
  std::vector<Timestamp> progress_;
  LatencyHistogram histogram_;
  bool keep_per_snapshot_ = false;
  std::vector<std::pair<Timestamp, double>> per_snapshot_;
  bool started_ = false;
  Clock::time_point start_{};
  Clock::time_point end_{};
};

}  // namespace comove::flow

#endif  // COMOVE_FLOW_METRICS_H_
