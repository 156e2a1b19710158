#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>

#include "core/icpe_engine.h"
#include "flow/checkpoint/snapshot_store.h"
#include "trajgen/brinkhoff_generator.h"

namespace comove::core {
namespace {

std::set<std::vector<TrajectoryId>> ObjectSets(
    const std::vector<CoMovementPattern>& patterns) {
  std::set<std::vector<TrajectoryId>> out;
  for (const auto& p : patterns) out.insert(p.objects);
  return out;
}

trajgen::Dataset MakeWorkload() {
  trajgen::BrinkhoffOptions gen;
  gen.object_count = 80;
  gen.duration = 50;
  gen.group_count = 6;
  gen.group_size = 5;
  gen.report_prob = 0.9;  // gaps in the last_time chains
  return GenerateBrinkhoff(gen, 5);
}

IcpeOptions MakeOptions() {
  IcpeOptions options;
  options.cluster_options.join =
      cluster::RangeJoinOptions{.grid_cell_width = 80.0, .eps = 14.0};
  options.cluster_options.dbscan = cluster::DbscanOptions{3};
  options.constraints = PatternConstraints{3, 6, 2, 2};
  options.parallelism = 3;
  return options;
}

TEST(IcpeReplay, ShuffledReplayMatchesOrderedReplay) {
  // The §4 last-time synchronisation must make out-of-order delivery
  // invisible: identical patterns, identical snapshot count.
  const trajgen::Dataset dataset = MakeWorkload();
  IcpeOptions options = MakeOptions();
  const IcpeResult ordered = RunIcpe(dataset, options);

  for (const Timestamp window : {2, 5, 13}) {
    options.replay_shuffle_window = window;
    options.shuffle_seed = 99 + static_cast<std::uint64_t>(window);
    const IcpeResult shuffled = RunIcpe(dataset, options);
    EXPECT_EQ(ObjectSets(shuffled.patterns), ObjectSets(ordered.patterns))
        << "window " << window;
    EXPECT_EQ(shuffled.snapshot_count, ordered.snapshot_count);
  }
}

TEST(IcpeReplay, OnPatternCallbackFiresForEveryEmission) {
  const trajgen::Dataset dataset = MakeWorkload();
  IcpeOptions options = MakeOptions();
  std::atomic<int> emissions{0};
  std::set<std::vector<TrajectoryId>> seen;
  std::mutex mu;
  options.on_pattern = [&](const CoMovementPattern& p) {
    ++emissions;
    std::lock_guard<std::mutex> lock(mu);
    seen.insert(p.objects);
  };
  const IcpeResult result = RunIcpe(dataset, options);
  // Every deduplicated pattern must have been announced at least once,
  // and announcements can exceed the deduplicated count.
  EXPECT_EQ(seen, ObjectSets(result.patterns));
  EXPECT_GE(emissions.load(),
            static_cast<int>(result.patterns.size()));
}

TEST(IcpeReplay, CallbackSeesPatternsBeforeRunReturnsOnlyDuringRun) {
  // Sanity: the callback is synchronous with the run; afterwards no more
  // invocations occur (the engine joined all workers).
  const trajgen::Dataset dataset = MakeWorkload();
  IcpeOptions options = MakeOptions();
  std::atomic<bool> run_active{true};
  std::atomic<bool> late_call{false};
  options.on_pattern = [&](const CoMovementPattern&) {
    if (!run_active.load()) late_call = true;
  };
  (void)RunIcpe(dataset, options);
  run_active = false;
  EXPECT_FALSE(late_call.load());
}

TEST(IcpeReplay, OnPatternCallsNeverOverlap) {
  // on_pattern promises serialised calls, whether it fires at emission
  // (no checkpointing) or as epochs commit (checkpointing). Four
  // enumerate subtasks emit concurrently; a callback that lingers a
  // little counts the calls in flight and must never see two.
  const trajgen::Dataset dataset = MakeWorkload();
  for (const std::int64_t interval : {0, 5}) {
    IcpeOptions options = MakeOptions();
    options.parallelism = 4;
    flow::MemorySnapshotStore store;
    if (interval > 0) {
      options.checkpoint_interval = interval;
      options.snapshot_store = &store;
    }
    std::atomic<int> in_flight{0};
    std::atomic<int> most_in_flight{0};
    std::atomic<int> calls{0};
    options.on_pattern = [&](const CoMovementPattern&) {
      const int now = in_flight.fetch_add(1) + 1;
      int most = most_in_flight.load();
      while (now > most && !most_in_flight.compare_exchange_weak(most, now)) {
      }
      ++calls;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      in_flight.fetch_sub(1);
    };
    const IcpeResult result = RunIcpe(dataset, options);
    ASSERT_FALSE(result.patterns.empty());
    EXPECT_GE(calls.load(), static_cast<int>(result.patterns.size()))
        << "interval " << interval;
    EXPECT_EQ(most_in_flight.load(), 1) << "interval " << interval;
  }
}

}  // namespace
}  // namespace comove::core
