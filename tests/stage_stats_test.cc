#include "flow/stage_stats.h"

#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <thread>
#include <vector>

#include "flow/channel.h"
#include "flow/element.h"
#include "flow/exchange.h"
#include "int_codec.h"

namespace comove::flow {
namespace {

TEST(LatencyHistogram, EmptyReportsZeros) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.AverageMs(), 0.0);
  EXPECT_DOUBLE_EQ(h.MaxMs(), 0.0);
  EXPECT_DOUBLE_EQ(h.PercentileMs(0.5), 0.0);
}

TEST(LatencyHistogram, BucketIndexIsMonotoneAndBoundsConsistent) {
  std::size_t last = 0;
  for (std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{15},
        std::uint64_t{16}, std::uint64_t{17}, std::uint64_t{100},
        std::uint64_t{1000}, std::uint64_t{1} << 20,
        (std::uint64_t{1} << 20) + 12345, std::uint64_t{1} << 40,
        ~std::uint64_t{0}}) {
    const std::size_t i = LatencyHistogram::BucketIndex(v);
    ASSERT_LT(i, LatencyHistogram::kBucketCount);
    EXPECT_GE(i, last);
    last = i;
    // The value must lie inside its bucket's [lower, lower + width) range.
    const std::uint64_t lower = LatencyHistogram::BucketLowerNs(i);
    EXPECT_GE(v, lower);
    if (i + 1 < LatencyHistogram::kBucketCount) {
      EXPECT_LT(v, LatencyHistogram::BucketLowerNs(i + 1));
      EXPECT_EQ(lower + LatencyHistogram::BucketWidthNs(i),
                LatencyHistogram::BucketLowerNs(i + 1));
    }
  }
}

TEST(LatencyHistogram, PercentilesOfUniformSamplesAreAccurate) {
  LatencyHistogram h;
  // 1..1000 ms uniformly: true p50 = 500 ms, p95 = 950 ms, p99 = 990 ms.
  for (int ms = 1; ms <= 1000; ++ms) h.RecordMs(static_cast<double>(ms));
  EXPECT_EQ(h.count(), 1000);
  EXPECT_NEAR(h.AverageMs(), 500.5, 1.0);
  EXPECT_NEAR(h.MaxMs(), 1000.0, 1e-6);
  // Within-bucket interpolation holds smooth distributions to a few
  // percent (metrics_test pins the bound; raw buckets would be ~12.5%).
  EXPECT_NEAR(h.PercentileMs(0.50), 500.0, 500.0 * 0.03);
  EXPECT_NEAR(h.PercentileMs(0.95), 950.0, 950.0 * 0.03);
  EXPECT_NEAR(h.PercentileMs(0.99), 990.0, 990.0 * 0.03);
  // Quantiles are monotone in q.
  EXPECT_LE(h.PercentileMs(0.50), h.PercentileMs(0.95));
  EXPECT_LE(h.PercentileMs(0.95), h.PercentileMs(0.99));
  EXPECT_LE(h.PercentileMs(0.99), h.MaxMs());
}

TEST(LatencyHistogram, SmallNanosecondValuesAreExact) {
  LatencyHistogram h;
  for (std::uint64_t ns = 0; ns < 16; ++ns) h.RecordNs(ns);
  // p50 over 0..15 lands on rank 8 -> value 7 ns, exact bucket.
  EXPECT_NEAR(h.PercentileMs(0.5), 7e-6, 2e-6);
  EXPECT_NEAR(h.MaxMs(), 15e-6, 1e-9);
}

TEST(LatencyHistogram, ConcurrentRecordsAreSafe) {
  LatencyHistogram h;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&h] {
      for (int i = 1; i <= 10000; ++i) {
        h.RecordNs(static_cast<std::uint64_t>(i));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), 40000);
}

TEST(StageStats, CountsDepthAndSplitsWatermarks) {
  StageStats stats("test-stage");
  Channel<Element<int>> ch(8, &stats);
  ch.RegisterProducer();
  ch.Push(Element<int>::Data(1, 0));
  ch.Push(Element<int>::Data(2, 0));
  ch.Push(Element<int>::Watermark(5, 0));

  StageStatsSnapshot s = stats.Snapshot();
  EXPECT_EQ(s.stage, "test-stage");
  EXPECT_EQ(s.records_pushed, 2);
  EXPECT_EQ(s.watermarks_pushed, 1);
  EXPECT_EQ(s.records_popped, 0);
  EXPECT_EQ(s.queue_depth, 3);
  EXPECT_EQ(s.max_queue_depth, 3);

  ch.CloseProducer();
  while (ch.Pop().has_value()) {
  }
  s = stats.Snapshot();
  EXPECT_EQ(s.records_popped, 2);
  EXPECT_EQ(s.watermarks_popped, 1);
  EXPECT_EQ(s.queue_depth, 0);
  EXPECT_EQ(s.max_queue_depth, 3);
}

TEST(StageStats, PlainPayloadsCountAsRecords) {
  StageStats stats("ints");
  Channel<int> ch(4, &stats);
  ch.RegisterProducer();
  ch.Push(7);
  int out = 0;
  EXPECT_EQ(ch.TryPop(out), PollResult::kItem);
  ch.CloseProducer();
  const StageStatsSnapshot s = stats.Snapshot();
  EXPECT_EQ(s.records_pushed, 1);
  EXPECT_EQ(s.records_popped, 1);
  EXPECT_EQ(s.watermarks_pushed, 0);
  EXPECT_EQ(s.queue_depth, 0);
}

TEST(StageStats, PushBlockedTimeAccountsBackpressure) {
  StageStats stats("backpressured");
  Channel<int> ch(1, &stats);
  ch.RegisterProducer();
  ch.Push(1);  // fills the channel without blocking
  std::thread producer([&] {
    ch.Push(2);  // blocks until the consumer frees capacity
    ch.CloseProducer();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_EQ(ch.Pop(), 1);
  producer.join();
  const StageStatsSnapshot s = stats.Snapshot();
  EXPECT_GE(s.push_blocked_ms, 30.0);
  EXPECT_DOUBLE_EQ(s.pop_blocked_ms, 0.0);
}

TEST(StageStats, PopBlockedTimeAccountsStarvation) {
  StageStats stats("starved");
  Channel<int> ch(4, &stats);
  ch.RegisterProducer();
  std::thread consumer([&] { EXPECT_EQ(ch.Pop(), 9); });
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  ch.Push(9);
  consumer.join();
  ch.CloseProducer();
  const StageStatsSnapshot s = stats.Snapshot();
  EXPECT_GE(s.pop_blocked_ms, 30.0);
  EXPECT_DOUBLE_EQ(s.push_blocked_ms, 0.0);
}

TEST(StageStats, ExchangeAggregatesAllConsumerChannels) {
  StageStatsRegistry registry;
  StageStats& stats = registry.Get("producer->consumer");
  Exchange<int, IntCodec> exchange(/*producers=*/1, /*consumers=*/2,
                                   /*capacity_per_channel=*/16, &stats);
  exchange.Send(0, 0, 10);
  exchange.Send(0, 1, 20);
  exchange.BroadcastWatermark(0, 7);  // one per consumer
  exchange.CloseProducer(0);

  StageStatsSnapshot s = stats.Snapshot();
  EXPECT_EQ(s.records_pushed, 2);
  EXPECT_EQ(s.watermarks_pushed, 2);
  EXPECT_EQ(s.queue_depth, 4);

  for (std::int32_t c = 0; c < 2; ++c) {
    while (exchange.channel(c).Pop().has_value()) {
    }
  }
  s = stats.Snapshot();
  EXPECT_EQ(s.records_popped, 2);
  EXPECT_EQ(s.watermarks_popped, 2);
  EXPECT_EQ(s.queue_depth, 0);
  EXPECT_EQ(s.max_queue_depth, 4);
}

TEST(StageStatsRegistry, GetReturnsStableInstancePerName) {
  StageStatsRegistry registry;
  StageStats& a = registry.Get("a");
  StageStats& b = registry.Get("b");
  EXPECT_NE(&a, &b);
  EXPECT_EQ(&registry.Get("a"), &a);
  a.OnPush(false, 0);
  const auto snapshots = registry.Snapshot();
  ASSERT_EQ(snapshots.size(), 2u);
  EXPECT_EQ(snapshots[0].stage, "a");
  EXPECT_EQ(snapshots[0].records_pushed, 1);
  EXPECT_EQ(snapshots[1].stage, "b");
}

TEST(StageStats, BatchedPopsAggregateLikeSinglePops) {
  StageStats stats("s");
  Channel<Element<int>> ch(64, &stats);
  ch.RegisterProducer();
  for (int i = 0; i < 4; ++i) ch.Push(Element<int>::Data(i, 0));
  ch.Push(Element<int>::Watermark(10, 0));
  StageStatsSnapshot s = stats.Snapshot();
  EXPECT_EQ(s.records_pushed, 4);
  EXPECT_EQ(s.watermarks_pushed, 1);
  EXPECT_EQ(s.queue_depth, 5);
  std::vector<Element<int>> out;
  EXPECT_EQ(ch.PopBatch(out, 16), 5u);
  s = stats.Snapshot();
  EXPECT_EQ(s.records_popped, 4);
  EXPECT_EQ(s.watermarks_popped, 1);
  EXPECT_EQ(s.queue_depth, 0);
  ch.CloseProducer();
}

TEST(StageStats, LastWatermarkIsMaxOfObservedValues) {
  StageStats stats("a->b");
  EXPECT_EQ(stats.Snapshot().last_watermark, kNoTime);  // none seen yet

  stats.OnWatermarkValue(5);
  stats.OnWatermarkValue(9);
  stats.OnWatermarkValue(7);  // out-of-order arrival must not regress
  EXPECT_EQ(stats.Snapshot().last_watermark, 9);

  // The end-of-stream sentinel is excluded so the gauge keeps reporting
  // real event time.
  stats.OnWatermarkValue(std::numeric_limits<Timestamp>::max());
  EXPECT_EQ(stats.Snapshot().last_watermark, 9);
}

TEST(StageStats, SentinelOnlyWatermarksLeaveGaugeUnset) {
  StageStats stats("a->b");
  stats.OnWatermarkValue(std::numeric_limits<Timestamp>::max());
  EXPECT_EQ(stats.Snapshot().last_watermark, kNoTime);
}

TEST(StageStats, LinkCountersTrackFramesBytesAndRejects) {
  StageStats stats("link:w0");
  stats.OnLinkFrameSent(100, 2'000'000);     // 2 ms blocked in write
  stats.OnLinkFrameSent(50, 0);              // zero blocked time elided
  stats.OnLinkFrameReceived(80, 1'000'000);  // 1 ms blocked in read
  stats.OnCrcReject();
  const StageStatsSnapshot s = stats.Snapshot();
  EXPECT_EQ(s.records_pushed, 2);  // frames ride the records counters
  EXPECT_EQ(s.records_popped, 1);
  EXPECT_EQ(s.bytes_pushed, 150);
  EXPECT_EQ(s.bytes_popped, 80);
  EXPECT_EQ(s.crc_rejects, 1);
  EXPECT_DOUBLE_EQ(s.push_blocked_ms, 2.0);
  EXPECT_DOUBLE_EQ(s.pop_blocked_ms, 1.0);
  // Links have no user-space queue: the depth gauge stays untouched.
  EXPECT_EQ(s.queue_depth, 0);
  EXPECT_EQ(s.max_queue_depth, 0);
}

TEST(StageStats, OverwriteFromRoundTripsEveryField) {
  // Build a source row with every counter family exercised...
  StageStats source("w0:cluster->enumerate");
  for (int i = 0; i < 3; ++i) source.OnPush(/*is_watermark=*/false, 0);
  source.OnPush(/*is_watermark=*/true, 0);
  source.OnPop(/*is_watermark=*/false, 0);
  source.OnPop(/*is_watermark=*/false, 0);
  source.OnPop(/*is_watermark=*/true, 0);
  source.OnWatermarkValue(41);
  source.OnBarrierPushed(/*blocked_ns=*/4'000'000);
  source.OnBarrierPopped(/*blocked_ns=*/6'000'000);
  source.OnAlignBlocked(8'000'000);
  source.OnSnapshot(512, 7);
  source.OnLinkFrameSent(100, 0);
  source.OnLinkFrameReceived(60, 0);
  source.OnCrcReject();
  const StageStatsSnapshot from = source.Snapshot();

  // ...stamp it into a fresh registry row (the coordinator's merge
  // path), and the re-snapshot must match field for field.
  StageStats target("w0:cluster->enumerate");
  target.OverwriteFrom(from);
  const StageStatsSnapshot got = target.Snapshot();
  EXPECT_EQ(got.records_pushed, from.records_pushed);
  EXPECT_EQ(got.records_popped, from.records_popped);
  EXPECT_EQ(got.watermarks_pushed, from.watermarks_pushed);
  EXPECT_EQ(got.watermarks_popped, from.watermarks_popped);
  EXPECT_EQ(got.queue_depth, from.queue_depth);
  EXPECT_EQ(got.max_queue_depth, from.max_queue_depth);
  EXPECT_DOUBLE_EQ(got.push_blocked_ms, from.push_blocked_ms);
  EXPECT_DOUBLE_EQ(got.pop_blocked_ms, from.pop_blocked_ms);
  EXPECT_EQ(got.barriers_pushed, from.barriers_pushed);
  EXPECT_EQ(got.barriers_popped, from.barriers_popped);
  EXPECT_DOUBLE_EQ(got.align_blocked_ms, from.align_blocked_ms);
  EXPECT_EQ(got.snapshot_bytes, from.snapshot_bytes);
  EXPECT_EQ(got.last_checkpoint_id, from.last_checkpoint_id);
  EXPECT_EQ(got.last_watermark, from.last_watermark);
  EXPECT_EQ(got.bytes_pushed, from.bytes_pushed);
  EXPECT_EQ(got.bytes_popped, from.bytes_popped);
  EXPECT_EQ(got.crc_rejects, from.crc_rejects);

  // A later (cumulative) snapshot replaces, never accumulates.
  target.OverwriteFrom(from);
  EXPECT_EQ(target.Snapshot().records_pushed, from.records_pushed);
}

TEST(StageStats, OverwriteFromPreservesUnsetWatermark) {
  StageStats source("a->b");
  StageStats target("a->b");
  target.OverwriteFrom(source.Snapshot());
  EXPECT_EQ(target.Snapshot().last_watermark, kNoTime);
}

TEST(StageStats, UninstrumentedChannelTakesNoStats) {
  // A channel without stats must behave identically (smoke-check the
  // disabled hot path the engine runs by default).
  Channel<int> ch(2);
  ch.RegisterProducer();
  ch.Push(1);
  EXPECT_EQ(ch.Pop(), 1);
  ch.CloseProducer();
  EXPECT_EQ(ch.Pop(), std::nullopt);
}

}  // namespace
}  // namespace comove::flow
