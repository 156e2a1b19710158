#include "flow/metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <utility>
#include <vector>

#include "flow/stage_stats.h"

namespace comove::flow {
namespace {

/// The snapshot times `ledger` has answered, in completion order (it must
/// keep per-snapshot latencies).
std::vector<Timestamp> Answered(const SnapshotMetrics& ledger) {
  std::vector<Timestamp> times;
  for (const auto& [time, latency_ms] : ledger.PerSnapshot()) {
    times.push_back(time);
  }
  return times;
}

TEST(SnapshotMetrics, EmptyRunCollectsZeros) {
  SnapshotMetrics metrics(1);
  const RunMetrics m = metrics.Collect();
  EXPECT_EQ(m.snapshots, 0);
  EXPECT_DOUBLE_EQ(m.average_latency_ms, 0.0);
  EXPECT_DOUBLE_EQ(m.throughput_tps, 0.0);
}

TEST(SnapshotMetrics, CountsCompletedSnapshots) {
  SnapshotMetrics metrics(1);
  for (Timestamp t = 0; t < 5; ++t) metrics.MarkIngest(t);
  for (Timestamp t = 0; t < 5; ++t) metrics.Progress(0, t);
  const RunMetrics m = metrics.Collect();
  EXPECT_EQ(m.snapshots, 5);
  EXPECT_GE(m.average_latency_ms, 0.0);
  EXPECT_GE(m.max_latency_ms, m.average_latency_ms);
}

TEST(SnapshotMetrics, LatencyReflectsElapsedTime) {
  SnapshotMetrics metrics(1);
  metrics.MarkIngest(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  metrics.Progress(0, 1);
  const RunMetrics m = metrics.Collect();
  EXPECT_GE(m.average_latency_ms, 15.0);
  EXPECT_LT(m.average_latency_ms, 500.0);
}

TEST(SnapshotMetrics, ThroughputUsesWallSpan) {
  SnapshotMetrics metrics(1);
  for (Timestamp t = 0; t < 10; ++t) metrics.MarkIngest(t);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  for (Timestamp t = 0; t < 10; ++t) metrics.Progress(0, t);
  const RunMetrics m = metrics.Collect();
  EXPECT_GT(m.wall_seconds, 0.0);
  EXPECT_NEAR(m.throughput_tps, 10.0 / m.wall_seconds, 1e-6);
}

TEST(SnapshotMetrics, ProgressFromUnknownSubtaskAborts) {
  // A PROGRESS frame naming a subtask the run does not have is a broken
  // invariant; it must fail with a message, not index out of range.
  SnapshotMetrics metrics(2);
  EXPECT_DEATH(metrics.Progress(-1, 0), "progress from unknown subtask -1");
  EXPECT_DEATH(metrics.Progress(2, 0), "progress from unknown subtask 2");
}

TEST(SnapshotMetrics, DuplicateIngestAborts) {
  // A silent duplicate would measure latency from the FIRST ingest;
  // fail fast at the actual bug instead.
  SnapshotMetrics metrics(1);
  metrics.MarkIngest(3);
  EXPECT_DEATH(metrics.MarkIngest(3), "duplicate ingest");
}

TEST(SnapshotMetrics, ReingestAfterCompleteIsAllowed) {
  SnapshotMetrics metrics(1);
  metrics.MarkIngest(3);
  metrics.Progress(0, 3);
  metrics.MarkIngest(3);  // a fresh ingest/complete cycle is fine
  metrics.Progress(0, 3);
  EXPECT_EQ(metrics.Collect().snapshots, 2);
}

TEST(SnapshotMetrics, PercentilesAreOrderedAndBracketTheSamples) {
  SnapshotMetrics metrics(1);
  for (Timestamp t = 0; t < 20; ++t) {
    metrics.MarkIngest(t);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    metrics.Progress(0, t);
  }
  const RunMetrics m = metrics.Collect();
  EXPECT_GT(m.p50_latency_ms, 0.0);
  EXPECT_LE(m.p50_latency_ms, m.p95_latency_ms);
  EXPECT_LE(m.p95_latency_ms, m.p99_latency_ms);
  // The histogram's bucket error is ~12.5%; allow that over the true max.
  EXPECT_LE(m.p99_latency_ms, m.max_latency_ms * 1.13);
  EXPECT_GE(m.max_latency_ms, m.average_latency_ms);
}

TEST(SnapshotMetrics, PerSnapshotRetentionIsOptIn) {
  SnapshotMetrics metrics(1);
  metrics.MarkIngest(1);
  metrics.Progress(0, 1);
  EXPECT_TRUE(metrics.PerSnapshot().empty());  // off by default

  metrics.KeepPerSnapshot(true);
  metrics.MarkIngest(4);
  metrics.Progress(0, 4);
  metrics.MarkIngest(2);  // already passed: the next report answers it
  metrics.Progress(0, 2);
  const std::vector<std::pair<Timestamp, double>> kept =
      metrics.PerSnapshot();
  ASSERT_EQ(kept.size(), 2u);  // completion order, opt-in onwards only
  EXPECT_EQ(kept[0].first, 4);
  EXPECT_EQ(kept[1].first, 2);
  EXPECT_GE(kept[0].second, 0.0);
}

/// Deterministic inverse-CDF sampling: feeding the histogram the exact
/// (i + 0.5)/N quantiles of a known distribution makes the true quantile
/// function available in closed form, so the test pins an error BOUND
/// rather than eyeballing monotonicity.
template <typename InverseCdf>
void CheckQuantileError(const InverseCdf& inverse_cdf,
                        double max_relative_error) {
  constexpr int kSamples = 20000;
  LatencyHistogram histogram;
  for (int i = 0; i < kSamples; ++i) {
    histogram.RecordMs(inverse_cdf((i + 0.5) / kSamples));
  }
  for (const double q : {0.50, 0.90, 0.95, 0.99}) {
    const double truth = inverse_cdf(q);
    const double estimate = histogram.PercentileMs(q);
    EXPECT_NEAR(estimate, truth, truth * max_relative_error)
        << "q=" << q;
  }
}

TEST(LatencyHistogram, InterpolationBoundsQuantileErrorUniform) {
  // Uniform on [1 ms, 100 ms]: inverse CDF is affine. Without
  // within-bucket interpolation the log-scale buckets would be ~12.5%
  // off; interpolation brings smooth distributions under 3%.
  CheckQuantileError([](double u) { return 1.0 + 99.0 * u; }, 0.03);
}

TEST(LatencyHistogram, InterpolationBoundsQuantileErrorExponential) {
  // Exponential with 10 ms mean - the shape real queueing latencies take.
  CheckQuantileError(
      [](double u) { return -10.0 * std::log(1.0 - u); }, 0.03);
}

TEST(SnapshotMetrics, ConcurrentMarksAreSafe) {
  // Two subtasks report concurrently while the ingest side keeps marking.
  SnapshotMetrics metrics(2);
  constexpr int kCount = 2000;
  std::thread ingest([&] {
    for (Timestamp t = 0; t < kCount; ++t) metrics.MarkIngest(t);
  });
  std::thread a([&] {
    for (Timestamp t = 0; t < kCount; ++t) metrics.Progress(0, t);
  });
  std::thread b([&] {
    for (Timestamp t = 0; t < kCount; ++t) metrics.Progress(1, t);
  });
  ingest.join();
  a.join();
  b.join();
  // A time ingested after both subtasks passed it waits for a report.
  metrics.Progress(0, kCount);
  EXPECT_EQ(metrics.pending(), 0u);
  EXPECT_EQ(metrics.Collect().snapshots, kCount);
}

TEST(CompletionTracker, CompletesAtMinWorkerProgress) {
  SnapshotMetrics ledger(3);
  ledger.KeepPerSnapshot(true);
  ledger.MarkIngest(1);
  ledger.MarkIngest(2);
  ledger.MarkIngest(5);
  ledger.Progress(0, 10);
  ledger.Progress(1, 2);
  EXPECT_TRUE(Answered(ledger).empty());
  ledger.Progress(2, 3);
  EXPECT_EQ(Answered(ledger), (std::vector<Timestamp>{1, 2}));
  EXPECT_EQ(ledger.pending(), 1u);
  ledger.Progress(1, 99);  // subtask 2 still at 3
  EXPECT_EQ(ledger.pending(), 1u);
  ledger.Progress(2, 99);
  EXPECT_EQ(Answered(ledger), (std::vector<Timestamp>{1, 2, 5}));
  EXPECT_EQ(ledger.pending(), 0u);
}

TEST(CompletionTracker, ProgressNeverRegresses) {
  SnapshotMetrics ledger(2);
  ledger.KeepPerSnapshot(true);
  ledger.MarkIngest(4);
  ledger.Progress(0, 10);
  ledger.Progress(1, 10);  // completes 4
  ledger.MarkIngest(7);
  // A stale report must not regress progress: the frontier is still 10,
  // so 7 completes immediately despite the lower through-value.
  ledger.Progress(0, 3);
  EXPECT_EQ(Answered(ledger), (std::vector<Timestamp>{4, 7}));
  EXPECT_EQ(ledger.pending(), 0u);
}

}  // namespace
}  // namespace comove::flow
