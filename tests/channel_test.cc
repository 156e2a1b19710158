#include "flow/channel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace comove::flow {
namespace {

TEST(Channel, SingleThreadedFifo) {
  Channel<int> ch(8);
  ch.RegisterProducer();
  ch.Push(1);
  ch.Push(2);
  ch.Push(3);
  EXPECT_EQ(ch.Pop(), 1);
  EXPECT_EQ(ch.Pop(), 2);
  EXPECT_EQ(ch.Pop(), 3);
  ch.CloseProducer();
  EXPECT_EQ(ch.Pop(), std::nullopt);
}

TEST(Channel, PopReturnsNulloptOnlyAfterDrain) {
  Channel<int> ch(4);
  ch.RegisterProducer();
  ch.Push(42);
  ch.CloseProducer();
  EXPECT_TRUE(ch.finished_producing());
  EXPECT_EQ(ch.Pop(), 42);
  EXPECT_EQ(ch.Pop(), std::nullopt);
}

TEST(Channel, TryPopDoesNotBlock) {
  Channel<int> ch(4);
  ch.RegisterProducer();
  int out = -1;
  EXPECT_EQ(ch.TryPop(out), PollResult::kEmpty);
  EXPECT_EQ(out, -1);  // kEmpty leaves the output untouched
  ch.Push(7);
  EXPECT_EQ(ch.TryPop(out), PollResult::kItem);
  EXPECT_EQ(out, 7);
  ch.CloseProducer();
}

TEST(Channel, TryPopDistinguishesEmptyFromFinished) {
  Channel<int> ch(4);
  ch.RegisterProducer();
  int out = 0;
  // Producers remain: an empty queue means "poll again", not "done".
  EXPECT_EQ(ch.TryPop(out), PollResult::kEmpty);
  ch.Push(1);
  ch.CloseProducer();
  // Closed but not drained: the buffered element still comes out.
  EXPECT_EQ(ch.TryPop(out), PollResult::kItem);
  EXPECT_EQ(out, 1);
  // Closed and drained: finished, and stays finished.
  EXPECT_EQ(ch.TryPop(out), PollResult::kFinished);
  EXPECT_EQ(ch.TryPop(out), PollResult::kFinished);
}

TEST(Channel, PollingConsumerTerminatesWithoutSeparateFinishedCheck) {
  // A poller driven only by TryPop's tri-state must consume everything
  // and stop - no racy finished_producing() probe needed.
  Channel<int> ch(8);
  ch.RegisterProducer();
  std::thread producer([&] {
    for (int i = 0; i < 1000; ++i) ch.Push(i);
    ch.CloseProducer();
  });
  int received = 0;
  for (;;) {
    int out = 0;
    const PollResult r = ch.TryPop(out);
    if (r == PollResult::kFinished) break;
    if (r == PollResult::kItem) {
      EXPECT_EQ(out, received);
      ++received;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_EQ(received, 1000);
}

TEST(Channel, BackpressureBlocksProducerUntilConsumed) {
  Channel<int> ch(2);
  ch.RegisterProducer();
  ch.Push(1);
  ch.Push(2);
  std::atomic<bool> third_pushed{false};
  std::thread producer([&] {
    ch.Push(3);  // must block until a Pop frees capacity
    third_pushed = true;
    ch.CloseProducer();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(third_pushed.load());
  EXPECT_EQ(ch.Pop(), 1);
  producer.join();
  EXPECT_TRUE(third_pushed.load());
  EXPECT_EQ(ch.Pop(), 2);
  EXPECT_EQ(ch.Pop(), 3);
}

TEST(Channel, BlockedConsumerWakesOnClose) {
  Channel<int> ch(2);
  ch.RegisterProducer();
  std::optional<int> result = 99;
  std::thread consumer([&] { result = ch.Pop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ch.CloseProducer();
  consumer.join();
  EXPECT_EQ(result, std::nullopt);
}

TEST(Channel, MultiProducerMultiConsumerDeliversEverythingOnce) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 3;
  constexpr int kPerProducer = 5000;
  Channel<int> ch(64);
  for (int p = 0; p < kProducers; ++p) ch.RegisterProducer();

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ch.Push(p * kPerProducer + i);
      }
      ch.CloseProducer();
    });
  }
  std::vector<std::vector<int>> received(kConsumers);
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&, c] {
      while (auto v = ch.Pop()) received[c].push_back(*v);
    });
  }
  for (auto& t : threads) t.join();

  std::vector<int> all;
  for (const auto& r : received) all.insert(all.end(), r.begin(), r.end());
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(),
            static_cast<std::size_t>(kProducers * kPerProducer));
  for (int i = 0; i < kProducers * kPerProducer; ++i) {
    EXPECT_EQ(all[static_cast<std::size_t>(i)], i);
  }
}

TEST(Channel, PerProducerOrderPreserved) {
  Channel<std::pair<int, int>> ch(16);
  ch.RegisterProducer();
  ch.RegisterProducer();
  std::thread p1([&] {
    for (int i = 0; i < 1000; ++i) ch.Push({1, i});
    ch.CloseProducer();
  });
  std::thread p2([&] {
    for (int i = 0; i < 1000; ++i) ch.Push({2, i});
    ch.CloseProducer();
  });
  int last1 = -1, last2 = -1;
  while (auto v = ch.Pop()) {
    if (v->first == 1) {
      EXPECT_EQ(v->second, last1 + 1);
      last1 = v->second;
    } else {
      EXPECT_EQ(v->second, last2 + 1);
      last2 = v->second;
    }
  }
  p1.join();
  p2.join();
  EXPECT_EQ(last1, 999);
  EXPECT_EQ(last2, 999);
}

TEST(Channel, MoveOnlyPayload) {
  Channel<std::unique_ptr<int>> ch(4);
  ch.RegisterProducer();
  ch.Push(std::make_unique<int>(5));
  auto v = ch.Pop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(**v, 5);
  ch.CloseProducer();
}

TEST(Channel, PopBatchDrainsUpToMaxAndSignalsFinish) {
  Channel<int> ch(16);
  ch.RegisterProducer();
  for (int i = 0; i < 10; ++i) ch.Push(i);
  std::vector<int> out;
  // Takes what is available, bounded by max - never waits to fill up.
  EXPECT_EQ(ch.PopBatch(out, 4), 4u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(ch.PopBatch(out, 100), 6u);
  EXPECT_EQ(out.front(), 4);
  EXPECT_EQ(out.back(), 9);
  ch.CloseProducer();
  // Finished: returns 0 with an empty output.
  EXPECT_EQ(ch.PopBatch(out, 4), 0u);
  EXPECT_TRUE(out.empty());
}

TEST(Channel, PopBatchBlocksWhileEmptyThenWakesOnPush) {
  Channel<int> ch(4);
  ch.RegisterProducer();
  std::vector<int> out;
  std::atomic<bool> got{false};
  std::thread consumer([&] {
    std::vector<int> batch;
    EXPECT_GT(ch.PopBatch(batch, 8), 0u);
    got = true;
    while (ch.PopBatch(batch, 8) > 0) {
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(got.load());
  ch.Push(1);
  ch.CloseProducer();
  consumer.join();
  EXPECT_TRUE(got.load());
}

}  // namespace
}  // namespace comove::flow
