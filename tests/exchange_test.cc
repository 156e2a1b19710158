#include "flow/exchange.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "flow/task_group.h"
#include "flow/watermark_aligner.h"

namespace comove::flow {
namespace {

TEST(WatermarkAligner, SingleProducerAdvancesDirectly) {
  WatermarkAligner aligner(1);
  EXPECT_EQ(aligner.Update(0, 3), 3);
  EXPECT_EQ(aligner.Update(0, 3), std::nullopt);
  EXPECT_EQ(aligner.Update(0, 7), 7);
}

TEST(WatermarkAligner, AlignedIsMinimumOverProducers) {
  WatermarkAligner aligner(3);
  EXPECT_EQ(aligner.Update(0, 5), std::nullopt);
  EXPECT_EQ(aligner.Update(1, 8), std::nullopt);
  // Third producer reports 4: alignment becomes min(5, 8, 4) = 4.
  EXPECT_EQ(aligner.Update(2, 4), 4);
  // Slowest producer advances to 6: alignment becomes min(5, 8, 6) = 5.
  EXPECT_EQ(aligner.Update(2, 6), 5);
  EXPECT_EQ(aligner.aligned(), 5);
}

TEST(WatermarkAligner, RegressingWatermarkIsIgnored) {
  WatermarkAligner aligner(1);
  EXPECT_EQ(aligner.Update(0, 10), 10);
  EXPECT_EQ(aligner.Update(0, 4), std::nullopt);
  EXPECT_EQ(aligner.aligned(), 10);
}

TEST(WatermarkAligner, OutOfRangeProducerAbortsWithDiagnostic) {
  WatermarkAligner aligner(2);
  // A diagnosable invariant failure naming the producer and the bound,
  // not a raw std::out_of_range from the vector.
  EXPECT_DEATH(aligner.Update(2, 1), "producer 2 .* \\[0, 2\\)");
  EXPECT_DEATH(aligner.Update(-1, 1), "producer -1");
}

TEST(Exchange, RoutesDataByPartition) {
  Exchange<int> ex(/*producers=*/1, /*consumers=*/3);
  ex.Send(0, 0, 100);
  ex.Send(0, 2, 300);
  ex.Send(0, 1, 200);
  ex.CloseProducer(0);
  auto e0 = ex.channel(0).Pop();
  ASSERT_TRUE(e0 && e0->is_data());
  EXPECT_EQ(e0->data, 100);
  auto e1 = ex.channel(1).Pop();
  ASSERT_TRUE(e1 && e1->is_data());
  EXPECT_EQ(e1->data, 200);
  auto e2 = ex.channel(2).Pop();
  ASSERT_TRUE(e2 && e2->is_data());
  EXPECT_EQ(e2->data, 300);
  EXPECT_EQ(ex.channel(0).Pop(), std::nullopt);
}

TEST(Exchange, WatermarkReachesEveryConsumer) {
  Exchange<int> ex(2, 2);
  ex.BroadcastWatermark(0, 5);
  ex.CloseProducer(0);
  ex.CloseProducer(1);
  for (int c = 0; c < 2; ++c) {
    auto e = ex.channel(c).Pop();
    ASSERT_TRUE(e.has_value());
    EXPECT_TRUE(e->is_watermark());
    EXPECT_EQ(e->watermark, 5);
    EXPECT_EQ(e->producer, 0);
    EXPECT_EQ(ex.channel(c).Pop(), std::nullopt);
  }
}

TEST(Exchange, EndToEndPipelineWithAlignment) {
  // Two producers emit values and watermarks; two consumers align and
  // verify that data <= watermark has all arrived when alignment advances
  // (guaranteed by per-producer FIFO).
  constexpr int kItemsPerProducer = 500;
  Exchange<int> ex(2, 2, /*capacity=*/32);
  TaskGroup tasks;
  for (std::int32_t p = 0; p < 2; ++p) {
    tasks.Spawn([&ex, p] {
      for (int i = 0; i < kItemsPerProducer; ++i) {
        // Value i has "event time" i.
        ex.Send(p, static_cast<std::size_t>(i % 2), i);
        if (i % 50 == 49) ex.BroadcastWatermark(p, i);
      }
      ex.BroadcastWatermark(p, kItemsPerProducer);
      ex.CloseProducer(p);
    });
  }
  std::vector<int> counts(2, 0);
  std::vector<bool> violations(2, false);
  for (std::int32_t c = 0; c < 2; ++c) {
    tasks.Spawn([&, c] {
      WatermarkAligner aligner(2);
      int max_seen = -1;
      while (auto e = ex.channel(c).Pop()) {
        if (e->is_data()) {
          ++counts[c];
          max_seen = std::max(max_seen, e->data);
          // Data must never be older than the already-aligned watermark.
          if (e->data <= aligner.aligned()) violations[c] = true;
        } else {
          aligner.Update(e->producer, e->watermark);
        }
      }
    });
  }
  tasks.JoinAll();
  EXPECT_EQ(counts[0] + counts[1], 2 * kItemsPerProducer);
  EXPECT_FALSE(violations[0]);
  EXPECT_FALSE(violations[1]);
}

TEST(BatchingSender, DeliversInSendOrderAcrossBatchBoundaries) {
  Exchange<int> ex(1, 1, /*capacity=*/64);
  BatchingSender<int> sender(ex, 0, /*batch_size=*/4);
  for (int i = 0; i < 10; ++i) sender.Send(0, i);  // 2 full batches + 2 pending
  sender.Close();                                  // flushes the remainder
  for (int i = 0; i < 10; ++i) {
    auto e = ex.channel(0).Pop();
    ASSERT_TRUE(e && e->is_data());
    EXPECT_EQ(e->data, i);
    EXPECT_EQ(e->producer, 0);
  }
  EXPECT_EQ(ex.channel(0).Pop(), std::nullopt);
}

TEST(BatchingSender, WatermarkFlushesPendingDataFirst) {
  // The watermark contract: every data element sent before the watermark
  // must reach its channel before the watermark does, even if it was
  // sitting in a partial batch.
  Exchange<int> ex(1, 2, /*capacity=*/64);
  BatchingSender<int> sender(ex, 0, /*batch_size=*/100);
  sender.Send(0, 11);
  sender.Send(1, 22);
  sender.BroadcastWatermark(5);
  sender.Close();
  for (int c = 0; c < 2; ++c) {
    auto data = ex.channel(c).Pop();
    ASSERT_TRUE(data && data->is_data());
    EXPECT_EQ(data->data, c == 0 ? 11 : 22);
    auto wm = ex.channel(c).Pop();
    ASSERT_TRUE(wm && wm->is_watermark());
    EXPECT_EQ(wm->watermark, 5);
    EXPECT_EQ(ex.channel(c).Pop(), std::nullopt);
  }
}

TEST(BatchingSender, BatchSizeOneForwardsUnbuffered) {
  Exchange<int> ex(1, 1, /*capacity=*/8);
  BatchingSender<int> sender(ex, 0, /*batch_size=*/1);
  sender.Send(0, 7);
  // No flush needed: with batch_size 1 the element is already in the
  // channel, exactly as with the plain Exchange::Send path.
  auto e = ex.channel(0).Pop();
  ASSERT_TRUE(e && e->is_data());
  EXPECT_EQ(e->data, 7);
  sender.Close();
}

TEST(BatchingSender, RoutesToTheRequestedPartition) {
  Exchange<int> ex(1, 3, /*capacity=*/16);
  BatchingSender<int> sender(ex, 0, /*batch_size=*/2);
  sender.Send(2, 300);
  sender.Send(0, 100);
  sender.Send(1, 200);
  sender.Close();
  for (int c = 0; c < 3; ++c) {
    auto e = ex.channel(c).Pop();
    ASSERT_TRUE(e && e->is_data());
    EXPECT_EQ(e->data, (c + 1) * 100);
  }
}

TEST(BatchingSender, BatchedPipelineMatchesUnbatchedElementStream) {
  // The whole point of batching is to be semantically invisible: a
  // consumer aligning watermarks over batched producers must observe the
  // same per-producer sequences and the same data-before-watermark
  // guarantee as with per-element sends.
  constexpr int kItemsPerProducer = 500;
  Exchange<int> ex(2, 2, /*capacity=*/32);
  TaskGroup tasks;
  for (std::int32_t P = 0; P < 2; ++P) {
    tasks.Spawn([&ex, P] {
      BatchingSender<int> sender(ex, P, /*batch_size=*/16);
      for (int i = 0; i < kItemsPerProducer; ++i) {
        sender.Send(static_cast<std::size_t>(i % 2), i);
        if (i % 50 == 49) sender.BroadcastWatermark(i);
      }
      sender.BroadcastWatermark(kItemsPerProducer);
      sender.Close();
    });
  }
  std::vector<int> counts(2, 0);
  std::vector<bool> violations(2, false);
  for (std::int32_t c = 0; c < 2; ++c) {
    tasks.Spawn([&, c] {
      WatermarkAligner aligner(2);
      std::vector<Element<int>> batch;
      auto& ch = ex.channel(c);
      while (ch.PopBatch(batch, 16) > 0) {
        for (Element<int>& e : batch) {
          if (e.is_data()) {
            ++counts[c];
            if (e.data <= aligner.aligned()) violations[c] = true;
          } else {
            aligner.Update(e.producer, e.watermark);
          }
        }
      }
    });
  }
  tasks.JoinAll();
  EXPECT_EQ(counts[0] + counts[1], 2 * kItemsPerProducer);
  EXPECT_FALSE(violations[0]);
  EXPECT_FALSE(violations[1]);
}

}  // namespace
}  // namespace comove::flow
