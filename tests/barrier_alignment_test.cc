#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"
#include "core/recovery.h"
#include "flow/checkpoint/barrier_aligner.h"
#include "flow/checkpoint/coordinator.h"
#include "flow/checkpoint/snapshot_store.h"
#include "flow/element.h"

namespace comove {
namespace {

using flow::BarrierAligner;
using flow::CheckpointBundle;
using flow::CheckpointCoordinator;
using flow::DecodeBundle;
using flow::Element;
using flow::EncodeBundle;
using flow::FileSnapshotStore;
using flow::MemorySnapshotStore;
using flow::OperatorState;

// ---------------------------------------------------------------------------
// BarrierAligner

struct Seen {
  std::vector<int> data;
  std::vector<std::int64_t> checkpoints;
};

void Feed(BarrierAligner<int>& aligner, Seen& seen, Element<int> element) {
  aligner.OnElement(
      std::move(element),
      [&](Element<int>&& e) {
        if (e.is_data()) seen.data.push_back(e.data);
      },
      [&](std::int64_t id) {
        seen.checkpoints.push_back(id);
        return true;
      });
}

TEST(BarrierAligner, PassThroughWithoutBarriers) {
  BarrierAligner<int> aligner(2);
  Seen seen;
  Feed(aligner, seen, Element<int>::Data(1, 0));
  Feed(aligner, seen, Element<int>::Data(2, 1));
  EXPECT_EQ(seen.data, (std::vector<int>{1, 2}));
  EXPECT_TRUE(seen.checkpoints.empty());
  EXPECT_FALSE(aligner.aligning());
}

TEST(BarrierAligner, HoldsFastProducerUntilSlowBarrier) {
  BarrierAligner<int> aligner(2);
  Seen seen;
  Feed(aligner, seen, Element<int>::Barrier(1, 0));  // producer 0 at cut
  EXPECT_TRUE(aligner.aligning());
  // Producer 0 races ahead: its data must be held.
  Feed(aligner, seen, Element<int>::Data(10, 0));
  Feed(aligner, seen, Element<int>::Data(11, 0));
  EXPECT_EQ(aligner.held(), 2u);
  EXPECT_TRUE(seen.data.empty());
  // Producer 1's pre-barrier data still flows.
  Feed(aligner, seen, Element<int>::Data(5, 1));
  EXPECT_EQ(seen.data, (std::vector<int>{5}));
  // Producer 1's barrier completes the round; the checkpoint fires
  // before the held elements replay.
  Feed(aligner, seen, Element<int>::Barrier(1, 1));
  EXPECT_FALSE(aligner.aligning());
  EXPECT_EQ(seen.checkpoints, (std::vector<std::int64_t>{1}));
  EXPECT_EQ(seen.data, (std::vector<int>{5, 10, 11}));
  EXPECT_EQ(aligner.last_completed(), 1);
}

TEST(BarrierAligner, ConsecutiveRoundsAndHeldNextBarrier) {
  BarrierAligner<int> aligner(2);
  Seen seen;
  Feed(aligner, seen, Element<int>::Barrier(1, 0));
  // Producer 0 delivers its NEXT barrier while round 1 is still open;
  // it must be held and then open round 2 after the replay.
  Feed(aligner, seen, Element<int>::Data(10, 0));
  Feed(aligner, seen, Element<int>::Barrier(2, 0));
  Feed(aligner, seen, Element<int>::Barrier(1, 1));
  EXPECT_EQ(seen.checkpoints, (std::vector<std::int64_t>{1}));
  EXPECT_EQ(seen.data, (std::vector<int>{10}));
  EXPECT_TRUE(aligner.aligning());  // round 2 opened by the replay
  Feed(aligner, seen, Element<int>::Data(20, 1));
  Feed(aligner, seen, Element<int>::Barrier(2, 1));
  EXPECT_EQ(seen.checkpoints, (std::vector<std::int64_t>{1, 2}));
  EXPECT_EQ(seen.data, (std::vector<int>{10, 20}));
  EXPECT_EQ(aligner.last_completed(), 2);
}

TEST(BarrierAligner, SingleProducerCompletesImmediately) {
  BarrierAligner<int> aligner(1);
  Seen seen;
  Feed(aligner, seen, Element<int>::Data(1, 0));
  Feed(aligner, seen, Element<int>::Barrier(1, 0));
  Feed(aligner, seen, Element<int>::Data(2, 0));
  EXPECT_EQ(seen.checkpoints, (std::vector<std::int64_t>{1}));
  EXPECT_EQ(seen.data, (std::vector<int>{1, 2}));
}

TEST(BarrierAligner, CrashCallbackStopsDraining) {
  BarrierAligner<int> aligner(2);
  std::vector<int> data;
  auto sink = [&](Element<int>&& e) {
    if (e.is_data()) data.push_back(e.data);
  };
  auto crash = [&](std::int64_t) { return false; };
  aligner.OnElement(Element<int>::Barrier(1, 0), sink, crash);
  aligner.OnElement(Element<int>::Data(10, 0), sink, crash);
  // Round completes -> callback returns false -> held data NOT replayed.
  aligner.OnElement(Element<int>::Barrier(1, 1), sink, crash);
  EXPECT_TRUE(data.empty());
  EXPECT_EQ(aligner.held(), 1u);
}

TEST(BarrierAligner, RecoverySeedContinuesIdSequence) {
  BarrierAligner<int> aligner(1, /*last_completed=*/7);
  Seen seen;
  Feed(aligner, seen, Element<int>::Barrier(8, 0));
  EXPECT_EQ(seen.checkpoints, (std::vector<std::int64_t>{8}));
}

// ---------------------------------------------------------------------------
// Bundle wire format

CheckpointBundle SampleBundle() {
  CheckpointBundle bundle;
  bundle.id = 42;
  bundle.fingerprint = "records=10;p=2";
  bundle.states.push_back(OperatorState{"source", 0, "offset"});
  bundle.states.push_back(OperatorState{"enumerate", 1, std::string("\0\x7F", 2)});
  bundle.states.push_back(OperatorState{"cluster", 0, ""});
  return bundle;
}

TEST(CheckpointBundle, EncodeDecodeRoundTrip) {
  const CheckpointBundle bundle = SampleBundle();
  CheckpointBundle decoded;
  ASSERT_TRUE(DecodeBundle(EncodeBundle(bundle), &decoded));
  EXPECT_EQ(decoded.id, 42);
  EXPECT_EQ(decoded.fingerprint, "records=10;p=2");
  ASSERT_EQ(decoded.states.size(), 3u);
  ASSERT_NE(decoded.Find("enumerate", 1), nullptr);
  EXPECT_EQ(*decoded.Find("enumerate", 1), std::string("\0\x7F", 2));
  EXPECT_EQ(decoded.Find("enumerate", 2), nullptr);
  EXPECT_EQ(decoded.Find("nope", 0), nullptr);
}

TEST(CheckpointBundle, EveryTruncationRejected) {
  const std::string encoded = EncodeBundle(SampleBundle());
  for (std::size_t len = 0; len < encoded.size(); ++len) {
    CheckpointBundle decoded;
    EXPECT_FALSE(
        DecodeBundle(std::string_view(encoded).substr(0, len), &decoded))
        << "truncation to " << len << " bytes decoded";
  }
}

TEST(CheckpointBundle, EveryBitFlipRejected) {
  const std::string encoded = EncodeBundle(SampleBundle());
  // The envelope CRC makes ANY single-bit corruption detectable.
  for (std::size_t i = 0; i < encoded.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string garbled = encoded;
      garbled[i] = static_cast<char>(garbled[i] ^ (1 << bit));
      CheckpointBundle decoded;
      EXPECT_FALSE(DecodeBundle(garbled, &decoded))
          << "bit " << bit << " of byte " << i << " flipped undetected";
    }
  }
}

TEST(Crc32, KnownVector) {
  // The standard zlib test vector.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

TEST(Crc32, ChainsAcrossAnySplit) {
  Rng rng(5);
  std::string buffer(1024, '\0');
  for (char& c : buffer) c = static_cast<char>(rng.UniformInt(0, 255));
  const std::string_view data(buffer);
  const std::uint32_t whole = Crc32(data);
  for (std::size_t split = 0; split <= data.size(); ++split) {
    EXPECT_EQ(Crc32(data.substr(split), Crc32(data.substr(0, split))), whole)
        << "split at " << split;
  }
}

// ---------------------------------------------------------------------------
// Stores

TEST(MemorySnapshotStore, WriteAndReadLatest) {
  MemorySnapshotStore store;
  EXPECT_FALSE(store.ReadLatest().has_value());
  CheckpointBundle bundle = SampleBundle();
  bundle.id = 1;
  ASSERT_TRUE(store.Write(bundle));
  bundle.id = 3;
  ASSERT_TRUE(store.Write(bundle));
  bundle.id = 2;
  ASSERT_TRUE(store.Write(bundle));
  const auto latest = store.ReadLatest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->id, 3);
  EXPECT_EQ(store.size(), 3u);
}

class FileStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("comove_ckpt_test_" +
             std::to_string(::testing::UnitTest::GetInstance()
                                ->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name()))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST_F(FileStoreTest, WriteAndReadLatest) {
  FileSnapshotStore store(dir_);
  CheckpointBundle bundle = SampleBundle();
  bundle.id = 1;
  ASSERT_TRUE(store.Write(bundle));
  bundle.id = 2;
  ASSERT_TRUE(store.Write(bundle));
  // A fresh store instance over the same directory sees the data.
  FileSnapshotStore reopened(dir_);
  const auto latest = reopened.ReadLatest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->id, 2);
  // No stray .tmp files remain after publication.
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    EXPECT_NE(entry.path().extension(), ".tmp");
  }
}

TEST_F(FileStoreTest, CorruptNewestFallsBackToOlder) {
  FileSnapshotStore store(dir_);
  CheckpointBundle bundle = SampleBundle();
  bundle.id = 1;
  ASSERT_TRUE(store.Write(bundle));
  bundle.id = 2;
  ASSERT_TRUE(store.Write(bundle));
  {
    // Simulate a torn write of checkpoint 2 (rot after publication).
    std::fstream f(std::filesystem::path(dir_) / "checkpoint-2.ckpt",
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(4);
    f.put('\xFF');
  }
  const auto latest = store.ReadLatest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->id, 1);
}

TEST_F(FileStoreTest, StreamedWriteMatchesEncodeBundle) {
  FileSnapshotStore store(dir_);
  CheckpointBundle bundle = SampleBundle();
  bundle.prev_id = 41;
  bundle.prev_crc = 0x01020304u;
  const std::optional<std::uint32_t> crc = store.Write(bundle);
  ASSERT_TRUE(crc.has_value());
  std::ifstream in(std::filesystem::path(dir_) / "checkpoint-42.ckpt",
                   std::ios::binary);
  std::ostringstream file;
  file << in.rdbuf();
  const std::string encoded = EncodeBundle(bundle);
  EXPECT_EQ(file.str(), encoded);
  CheckpointBundle decoded;
  ASSERT_TRUE(DecodeBundle(encoded, &decoded));
  EXPECT_EQ(*crc, decoded.crc);
}

TEST_F(FileStoreTest, MissingManifestScansDirectory) {
  FileSnapshotStore store(dir_);
  CheckpointBundle bundle = SampleBundle();
  bundle.id = 5;
  ASSERT_TRUE(store.Write(bundle));
  std::filesystem::remove(std::filesystem::path(dir_) / "MANIFEST");
  FileSnapshotStore reopened(dir_);
  const auto latest = reopened.ReadLatest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->id, 5);
}

TEST_F(FileStoreTest, StaleManifestDoesNotHideNewestBundle) {
  // A MANIFEST listing only bundle 1 is what a failed index rewrite after
  // publishing bundle 2 leaves. Bundle 2 was persisted, its epochs
  // committed: restoring bundle 1 would commit them a second time.
  FileSnapshotStore store(dir_);
  CheckpointBundle bundle = SampleBundle();
  bundle.id = 1;
  ASSERT_TRUE(store.Write(bundle));
  bundle.id = 2;
  ASSERT_TRUE(store.Write(bundle));
  {
    std::ofstream manifest(std::filesystem::path(dir_) / "MANIFEST",
                           std::ios::trunc);
    manifest << "1\n";
  }
  FileSnapshotStore reopened(dir_);
  const auto latest = reopened.ReadLatest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->id, 2);
}

// ---------------------------------------------------------------------------
// Coordinator

TEST(CheckpointCoordinator, PersistsWhenAllAcksArrive) {
  MemorySnapshotStore store;
  CheckpointCoordinator coordinator(3, &store, "fp");
  coordinator.Ack(1, "a", 0, "x");
  coordinator.Ack(1, "b", 0, "y");
  EXPECT_EQ(coordinator.last_completed(), 0);
  EXPECT_FALSE(store.ReadLatest().has_value());
  coordinator.Ack(1, "c", 0, "z");
  coordinator.Drain();
  EXPECT_EQ(coordinator.last_completed(), 1);
  EXPECT_EQ(coordinator.completed_count(), 1);
  const auto latest = store.ReadLatest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->fingerprint, "fp");
  ASSERT_NE(latest->Find("b", 0), nullptr);
  EXPECT_EQ(*latest->Find("b", 0), "y");
}

TEST(CheckpointCoordinator, InterleavedCheckpointsComplete) {
  MemorySnapshotStore store;
  CheckpointCoordinator coordinator(2, &store, "fp");
  coordinator.Ack(1, "a", 0, "");
  coordinator.Ack(2, "a", 0, "");  // a races ahead to checkpoint 2
  coordinator.Ack(1, "b", 0, "");
  coordinator.Drain();
  EXPECT_EQ(coordinator.last_completed(), 1);
  coordinator.Ack(2, "b", 0, "");
  coordinator.Drain();
  EXPECT_EQ(coordinator.last_completed(), 2);
  EXPECT_EQ(coordinator.completed_count(), 2);
}

TEST(CheckpointCoordinator, FailedWriteCountsAsAborted) {
  MemorySnapshotStore inner;
  core::FailingSnapshotStore failing(&inner, /*fail_write_number=*/1);
  CheckpointCoordinator coordinator(1, &failing, "fp");
  coordinator.Ack(1, "a", 0, "");
  coordinator.Drain();
  EXPECT_EQ(coordinator.last_completed(), 0);
  EXPECT_EQ(coordinator.failed_count(), 1);
  // The next checkpoint goes through; the pipeline survived the failure.
  coordinator.Ack(2, "a", 0, "");
  coordinator.Drain();
  EXPECT_EQ(coordinator.last_completed(), 2);
  EXPECT_EQ(coordinator.completed_count(), 1);
  ASSERT_TRUE(inner.ReadLatest().has_value());
  EXPECT_EQ(inner.ReadLatest()->id, 2);
}

/// A store whose writes block until the gate opens; it records the ids
/// it was asked to write, in order.
class GatedStore : public MemorySnapshotStore {
 public:
  std::optional<std::uint32_t> Write(const CheckpointBundle& bundle) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      entered_.push_back(bundle.id);
      cv_.notify_all();
      cv_.wait(lock, [this] { return open_; });
    }
    return MemorySnapshotStore::Write(bundle);
  }

  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

  /// Waits until `count` writes have begun.
  void AwaitEntered(std::size_t count) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return entered_.size() >= count; });
  }

  std::vector<std::int64_t> entered() {
    std::lock_guard<std::mutex> lock(mu_);
    return entered_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
  std::vector<std::int64_t> entered_;
};

/// One "epoch" state per checkpoint whose bytes name the checkpoint, and
/// a commit callback that records them in commit order.
struct CommitLog {
  std::mutex mu;
  std::vector<std::string> committed;

  CheckpointCoordinator::CommitFn Fn() {
    return [this](const std::vector<OperatorState>& epochs) {
      std::lock_guard<std::mutex> lock(mu);
      for (const OperatorState& e : epochs) committed.push_back(e.bytes);
    };
  }
};

TEST(CheckpointCoordinator, AckReturnsBeforeTheWrite) {
  GatedStore store;
  CommitLog log;
  CheckpointCoordinator coordinator(1, &store, "fp", nullptr, 0, 0,
                                    log.Fn());
  // Each Ack completes its bundle and returns, the first while its write
  // is still blocked.
  coordinator.Ack(1, flow::kEpochOp, 0, "1");
  store.AwaitEntered(1);
  coordinator.Ack(2, flow::kEpochOp, 0, "2");
  EXPECT_EQ(coordinator.completed_count(), 0);
  EXPECT_EQ(coordinator.last_completed(), 0);
  store.Open();
  coordinator.Drain();
  EXPECT_EQ(store.entered(), (std::vector<std::int64_t>{1, 2}));
  EXPECT_EQ(log.committed, (std::vector<std::string>{"1", "2"}));
  EXPECT_EQ(coordinator.completed_count(), 2);
  EXPECT_EQ(coordinator.last_completed(), 2);
  EXPECT_EQ(store.Read(2)->prev_id, 1);
}

TEST(CheckpointCoordinator, HoldsOneBundleBehindTheWrite) {
  GatedStore store;
  CommitLog log;
  CheckpointCoordinator coordinator(1, &store, "fp", nullptr, 0, 0,
                                    log.Fn());
  coordinator.Ack(1, flow::kEpochOp, 0, "1");
  store.AwaitEntered(1);
  coordinator.Ack(2, flow::kEpochOp, 0, "2");  // waits behind the write
  std::atomic<bool> returned{false};
  std::thread third([&] {
    coordinator.Ack(3, flow::kEpochOp, 0, "3");
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(returned.load());
  EXPECT_EQ(store.entered(), (std::vector<std::int64_t>{1}));
  store.Open();
  third.join();
  EXPECT_TRUE(returned.load());
  coordinator.Drain();
  EXPECT_EQ(store.entered(), (std::vector<std::int64_t>{1, 2, 3}));
  EXPECT_EQ(log.committed, (std::vector<std::string>{"1", "2", "3"}));
  EXPECT_EQ(coordinator.completed_count(), 3);
}

TEST(FaultInjector, FiresExactlyOnce) {
  core::FaultInjector injector(
      core::FaultSpec{"cluster", 1, /*at_checkpoint=*/3});
  EXPECT_FALSE(injector.ShouldCrash("cluster", 1, 2));
  EXPECT_FALSE(injector.ShouldCrash("cluster", 0, 3));
  EXPECT_FALSE(injector.ShouldCrash("enumerate", 1, 3));
  EXPECT_TRUE(injector.ShouldCrash("cluster", 1, 3));
  EXPECT_FALSE(injector.ShouldCrash("cluster", 1, 3));
  EXPECT_TRUE(injector.fired());
}

TEST(FaultInjector, EmptySpecNeverFires) {
  core::FaultInjector injector(core::FaultSpec{});
  EXPECT_FALSE(injector.ShouldCrash("cluster", 0, 0));
  EXPECT_FALSE(injector.fired());
}

}  // namespace
}  // namespace comove
