#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <limits>
#include <mutex>
#include <numeric>
#include <optional>
#include <ostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/clustering.h"
#include "common/rng.h"
#include "common/serde.h"
#include "core/icpe_engine.h"
#include "core/recovery.h"
#include "core/state_serde.h"
#include "flow/checkpoint/snapshot_store.h"
#include "flow/reorder_buffer.h"
#include "flow/watermark_aligner.h"
#include "trajgen/brinkhoff_generator.h"
#include "trajgen/dataset.h"

namespace comove::core {
namespace {

using trajgen::Dataset;

/// The GeneratedWorkload dataset of icpe_engine_test: 5 seeded groups over
/// 40 ticks, dense enough that every enumerator finds patterns.
const Dataset& Workload() {
  static const Dataset dataset = [] {
    trajgen::BrinkhoffOptions gen;
    gen.object_count = 60;
    gen.duration = 40;
    gen.group_count = 5;
    gen.group_size = 5;
    gen.group_jitter = 2.0;
    return GenerateBrinkhoff(gen, 99);
  }();
  return dataset;
}

IcpeOptions BaseOptions(EnumeratorKind kind) {
  IcpeOptions options;
  options.cluster_options.join =
      cluster::RangeJoinOptions{.grid_cell_width = 60.0, .eps = 12.0};
  options.cluster_options.dbscan = cluster::DbscanOptions{3};
  options.constraints = PatternConstraints{3, 6, 3, 2};
  options.enumerator = kind;
  options.parallelism = 2;
  return options;
}

struct RecoveryConfig {
  EnumeratorKind enumerator;
  const char* fault_stage;  ///< "cluster" or "enumerate"
};

std::string ConfigName(
    const ::testing::TestParamInfo<RecoveryConfig>& info) {
  const RecoveryConfig& c = info.param;
  return std::string(EnumeratorKindName(c.enumerator)) + "_" +
         c.fault_stage;
}

/// Prints the fields. gtest's default printer dumps the struct's bytes,
/// the stage pointer included, so the discovered test names would change
/// with every link.
void PrintTo(const RecoveryConfig& c, std::ostream* os) {
  *os << EnumeratorKindName(c.enumerator) << " crash=" << c.fault_stage;
}

class ExactlyOnceMatrix : public ::testing::TestWithParam<RecoveryConfig> {
};

/// The subsystem's headline guarantee: kill a stage mid-run, recover from
/// the last completed checkpoint, and the final pattern set is
/// BIT-IDENTICAL (full vector equality: same sets, same witness times,
/// same order) to a failure-free run.
TEST_P(ExactlyOnceMatrix, CrashRecoverBitIdentical) {
  const RecoveryConfig config = GetParam();
  const Dataset& dataset = Workload();

  const IcpeResult free_run = RunIcpe(dataset, BaseOptions(config.enumerator));
  ASSERT_FALSE(free_run.patterns.empty());
  ASSERT_FALSE(free_run.crashed);

  flow::MemorySnapshotStore store;
  IcpeOptions crash_options = BaseOptions(config.enumerator);
  crash_options.checkpoint_interval = 3;
  crash_options.snapshot_store = &store;
  crash_options.fault =
      FaultSpec{config.fault_stage, /*subtask=*/1, /*at_checkpoint=*/2};
  const IcpeResult crashed = RunIcpe(dataset, crash_options);
  EXPECT_TRUE(crashed.crashed);
  // Uncommitted folds die with the crash; the recovery run reports them.
  EXPECT_TRUE(crashed.patterns.empty());
  EXPECT_TRUE(crashed.extra_patterns.empty());
  // The fault fires while snapshotting checkpoint 2, so 2 never
  // completes. (1 may also miss its final ack when another worker was
  // still behind barrier 1 at crash time - recovery then cold-starts.)
  EXPECT_LT(crashed.last_checkpoint_id, 2);

  IcpeOptions recover_options = BaseOptions(config.enumerator);
  recover_options.checkpoint_interval = 3;
  recover_options.snapshot_store = &store;
  recover_options.recover = true;
  const IcpeResult recovered = RunIcpe(dataset, recover_options);
  EXPECT_FALSE(recovered.crashed);
  // Checkpoint numbering continues where the crashed run left off.
  EXPECT_GT(recovered.last_checkpoint_id, crashed.last_checkpoint_id);
  EXPECT_GT(recovered.checkpoints_completed, 0);

  EXPECT_EQ(free_run.patterns, recovered.patterns);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ExactlyOnceMatrix,
    ::testing::Values(
        // {BA, FBA, VBA} x the killed stage {cluster, enumerate}.
        RecoveryConfig{EnumeratorKind::kBA, "cluster"},
        RecoveryConfig{EnumeratorKind::kBA, "enumerate"},
        RecoveryConfig{EnumeratorKind::kFBA, "enumerate"},
        RecoveryConfig{EnumeratorKind::kFBA, "cluster"},
        RecoveryConfig{EnumeratorKind::kVBA, "cluster"},
        RecoveryConfig{EnumeratorKind::kVBA, "enumerate"}),
    ConfigName);

TEST(Recovery, CheckpointingAloneDoesNotChangeResults) {
  const Dataset& dataset = Workload();
  const IcpeResult plain =
      RunIcpe(dataset, BaseOptions(EnumeratorKind::kFBA));

  flow::MemorySnapshotStore store;
  IcpeOptions options = BaseOptions(EnumeratorKind::kFBA);
  options.checkpoint_interval = 5;
  options.snapshot_store = &store;
  const IcpeResult checkpointed = RunIcpe(dataset, options);
  EXPECT_FALSE(checkpointed.crashed);
  EXPECT_GT(checkpointed.checkpoints_completed, 0);
  EXPECT_EQ(checkpointed.last_checkpoint_id,
            checkpointed.checkpoints_completed);
  EXPECT_EQ(plain.patterns, checkpointed.patterns);
}

TEST(Recovery, ColdStoreRecoveryFallsBackToNormalRun) {
  const Dataset& dataset = Workload();
  const IcpeResult plain =
      RunIcpe(dataset, BaseOptions(EnumeratorKind::kVBA));

  flow::MemorySnapshotStore store;  // empty: nothing to restore
  IcpeOptions options = BaseOptions(EnumeratorKind::kVBA);
  options.checkpoint_interval = 4;
  options.snapshot_store = &store;
  options.recover = true;
  const IcpeResult recovered = RunIcpe(dataset, options);
  EXPECT_FALSE(recovered.crashed);
  EXPECT_EQ(plain.patterns, recovered.patterns);
}

TEST(Recovery, FailedStoreWriteAbortsCheckpointNotPipeline) {
  const Dataset& dataset = Workload();
  const IcpeResult plain =
      RunIcpe(dataset, BaseOptions(EnumeratorKind::kFBA));

  flow::MemorySnapshotStore inner;
  core::FailingSnapshotStore store(&inner, /*fail_write_number=*/2);
  IcpeOptions options = BaseOptions(EnumeratorKind::kFBA);
  options.checkpoint_interval = 3;
  options.snapshot_store = &store;
  const IcpeResult result = RunIcpe(dataset, options);
  EXPECT_FALSE(result.crashed);
  EXPECT_EQ(result.checkpoints_failed, 1);
  EXPECT_GT(result.checkpoints_completed, 0);
  EXPECT_EQ(plain.patterns, result.patterns);
}

/// Compound failure: the store loses checkpoint 2 to a write error, then
/// the pipeline crashes while snapshotting checkpoint 3. Recovery must
/// rewind all the way to checkpoint 1 - the newest PERSISTED cut - and
/// still reproduce the failure-free output exactly.
TEST(Recovery, CrashAfterLostCheckpointRewindsFurther) {
  const Dataset& dataset = Workload();
  const IcpeResult plain =
      RunIcpe(dataset, BaseOptions(EnumeratorKind::kVBA));

  flow::MemorySnapshotStore inner;
  core::FailingSnapshotStore store(&inner, /*fail_write_number=*/2);
  IcpeOptions options = BaseOptions(EnumeratorKind::kVBA);
  options.checkpoint_interval = 3;
  options.snapshot_store = &store;
  options.fault = FaultSpec{"enumerate", 0, /*at_checkpoint=*/3};
  const IcpeResult crashed = RunIcpe(dataset, options);
  EXPECT_TRUE(crashed.crashed);
  EXPECT_LE(crashed.last_checkpoint_id, 1);
  EXPECT_LE(crashed.checkpoints_failed, 1);

  IcpeOptions recover_options = BaseOptions(EnumeratorKind::kVBA);
  recover_options.checkpoint_interval = 3;
  recover_options.snapshot_store = &inner;
  recover_options.recover = true;
  const IcpeResult recovered = RunIcpe(dataset, recover_options);
  EXPECT_FALSE(recovered.crashed);
  EXPECT_EQ(plain.patterns, recovered.patterns);
}

TEST(Recovery, FileStoreEndToEnd) {
  const Dataset& dataset = Workload();
  const IcpeResult plain =
      RunIcpe(dataset, BaseOptions(EnumeratorKind::kFBA));

  const std::string dir =
      (std::filesystem::temp_directory_path() / "comove_recovery_e2e")
          .string();
  std::filesystem::remove_all(dir);
  {
    flow::FileSnapshotStore store(dir);
    IcpeOptions options = BaseOptions(EnumeratorKind::kFBA);
    options.checkpoint_interval = 3;
    options.snapshot_store = &store;
    options.fault = FaultSpec{"enumerate", 1, /*at_checkpoint=*/3};
    const IcpeResult crashed = RunIcpe(dataset, options);
    EXPECT_TRUE(crashed.crashed);
    EXPECT_LT(crashed.last_checkpoint_id, 3);
  }
  {
    // A brand-new process would build a fresh store over the directory.
    flow::FileSnapshotStore store(dir);
    IcpeOptions options = BaseOptions(EnumeratorKind::kFBA);
    options.checkpoint_interval = 3;
    options.snapshot_store = &store;
    options.recover = true;
    const IcpeResult recovered = RunIcpe(dataset, options);
    EXPECT_FALSE(recovered.crashed);
    EXPECT_EQ(plain.patterns, recovered.patterns);
  }
  std::filesystem::remove_all(dir);
}

TEST(Recovery, CheckpointStatsSurfaceInStageTable) {
  const Dataset& dataset = Workload();
  flow::MemorySnapshotStore store;
  IcpeOptions options = BaseOptions(EnumeratorKind::kFBA);
  options.checkpoint_interval = 3;
  options.snapshot_store = &store;
  options.collect_stats = true;
  const IcpeResult result = RunIcpe(dataset, options);
  ASSERT_FALSE(result.stage_stats.empty());
  bool saw_checkpoint_row = false;
  for (const flow::StageStatsSnapshot& s : result.stage_stats) {
    if (s.stage == "checkpoint") {
      saw_checkpoint_row = true;
      EXPECT_GT(s.snapshot_bytes, 0);
      EXPECT_EQ(s.last_checkpoint_id, result.last_checkpoint_id);
    }
  }
  EXPECT_TRUE(saw_checkpoint_row);
  // Barriers crossed the first exchange, assembler->cluster: the ingest
  // subtask broadcasts each one to every cluster subtask.
  EXPECT_EQ(result.stage_stats[0].stage, "assembler->cluster");
  EXPECT_GT(result.stage_stats[0].barriers_pushed, 0);
}

using RecoveryDeathTest = ::testing::Test;

TEST(RecoveryDeathTest, FingerprintMismatchRefusesRestore) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Dataset& dataset = Workload();
  flow::MemorySnapshotStore store;
  {
    IcpeOptions options = BaseOptions(EnumeratorKind::kFBA);
    options.checkpoint_interval = 5;
    options.snapshot_store = &store;
    const IcpeResult result = RunIcpe(dataset, options);
    ASSERT_GT(result.checkpoints_completed, 0);
  }
  IcpeOptions mismatched = BaseOptions(EnumeratorKind::kFBA);
  mismatched.cluster_options.join.eps = 13.0;  // different pipeline shape
  mismatched.checkpoint_interval = 5;
  mismatched.snapshot_store = &store;
  mismatched.recover = true;
  EXPECT_DEATH(RunIcpe(dataset, mismatched), "fingerprint mismatch");
}

IcpeOptions CheckpointOptions(flow::SnapshotStore* store) {
  IcpeOptions options = BaseOptions(EnumeratorKind::kFBA);
  options.checkpoint_interval = 3;
  options.snapshot_store = store;
  return options;
}

/// Every bundle of a failure-free checkpointing run, oldest first: the
/// chain of the last one.
std::vector<flow::CheckpointBundle> EveryBundle() {
  flow::MemorySnapshotStore store;
  const IcpeResult result = RunIcpe(Workload(), CheckpointOptions(&store));
  EXPECT_GE(result.checkpoints_completed, 2);
  std::vector<flow::CheckpointBundle> bundles;
  for (std::int64_t id = 1; id <= result.last_checkpoint_id; ++id) {
    std::optional<flow::CheckpointBundle> bundle = store.Read(id);
    EXPECT_TRUE(bundle.has_value()) << "bundle " << id;
    if (bundle) bundles.push_back(std::move(*bundle));
  }
  return bundles;
}

std::string& StateOf(flow::CheckpointBundle* bundle, const char* op) {
  for (flow::OperatorState& state : bundle->states) {
    if (state.op == op && state.subtask == 0) return state.bytes;
  }
  ADD_FAILURE() << "no " << op << " state";
  return bundle->states.front().bytes;
}

/// The source state: the index of the record the replay resumes at and
/// that record's time.
std::pair<std::size_t, Timestamp> ReadCursor(const std::string& bytes) {
  BinaryReader reader(bytes);
  const auto index = static_cast<std::size_t>(reader.ReadU64());
  const auto time = static_cast<Timestamp>(reader.ReadI64());
  EXPECT_TRUE(reader.ok() && reader.AtEnd());
  return {index, time};
}

std::string WriteCursor(std::size_t index, Timestamp time) {
  std::string bytes;
  BinaryWriter writer(&bytes);
  writer.WriteU64(index);
  writer.WriteI64(time);
  return bytes;
}

/// Stores `bundles` and recovers from the newest: a bundle stages only
/// its epoch, so recovery reads its whole chain.
void RecoverFrom(const std::vector<flow::CheckpointBundle>& bundles) {
  flow::MemorySnapshotStore store;
  for (const flow::CheckpointBundle& bundle : bundles) {
    ASSERT_TRUE(store.Write(bundle));
  }
  IcpeOptions options = CheckpointOptions(&store);
  options.recover = true;
  RunIcpe(Workload(), options);
}

TEST(RecoveryDeathTest, SourceCursorInsideItsTimeRefusesRestore) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::vector<flow::CheckpointBundle> bundles = EveryBundle();
  std::string& cursor = StateOf(&bundles.back(), "source");
  const auto [index, time] = ReadCursor(cursor);
  // One record forward stays inside the cut's time: restored as is,
  // record `index` would never reach the assembler.
  ASSERT_EQ(Workload().records[index + 1].time, time);
  cursor = WriteCursor(index + 1, time);
  EXPECT_DEATH(RecoverFrom(bundles), "corrupt source checkpoint");
}

TEST(RecoveryDeathTest, SourceCursorOnALaterTimeRefusesRestore) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::vector<flow::CheckpointBundle> bundles = EveryBundle();
  std::string& cursor = StateOf(&bundles.back(), "source");
  const auto [index, time] = ReadCursor(cursor);
  // Forward to the first record of the next time: a record boundary,
  // but not the one the assembler state sits at.
  const std::vector<GpsRecord>& records = Workload().records;
  std::size_t next = index;
  while (next < records.size() && records[next].time == time) ++next;
  ASSERT_LT(next, records.size());
  cursor = WriteCursor(next, records[next].time);
  EXPECT_DEATH(RecoverFrom(bundles), "corrupt assembler checkpoint");
}

TEST(RecoveryDeathTest, AssemblerFromAnEarlierCheckpointRefusesRestore) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::vector<flow::CheckpointBundle> bundles = EveryBundle();
  ASSERT_GE(bundles.size(), 2u);
  StateOf(&bundles.back(), "assembler") =
      StateOf(&bundles.front(), "assembler");
  EXPECT_DEATH(RecoverFrom(bundles), "corrupt assembler checkpoint");
}

TEST(RecoveryDeathTest, EnumerateBufferAtTheAlignedMarkRefusesRestore) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::vector<flow::CheckpointBundle> bundles = EveryBundle();
  std::string& state = StateOf(&bundles.back(), "enumerate");
  // The enumerate state leads with its watermark aligner and reorder
  // buffer; the enumerators follow.
  BinaryReader reader(state);
  flow::WatermarkAligner aligner(2);
  flow::TimeReorderBuffer<pattern::Partition> buffer;
  ASSERT_TRUE(aligner.RestoreState(&reader));
  ASSERT_TRUE(buffer.RestoreState(&reader, ReadPartition));
  const std::string enumerators = state.substr(state.size() -
                                               reader.remaining());
  ASSERT_NE(aligner.aligned(), std::numeric_limits<Timestamp>::min());
  // Every time through the aligned mark was fed before the cut; a
  // partition buffered at the mark would be fed again, behind later ones.
  const Timestamp t = aligner.aligned();
  buffer.Add(t, {pattern::Partition{0, t, {1, 2}}});
  std::string corrupt;
  BinaryWriter writer(&corrupt);
  aligner.SaveState(&writer);
  buffer.SaveState(&writer, WritePartition);
  state = corrupt + enumerators;
  EXPECT_DEATH(RecoverFrom(bundles), "corrupt enumerate checkpoint");
}

TEST(RecoveryDeathTest, ShuffledReplayRefusesRestore) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // The fingerprint leaves out the replay order, but a cut is a time
  // boundary of ordered replay only.
  flow::MemorySnapshotStore store;
  for (const flow::CheckpointBundle& bundle : EveryBundle()) {
    ASSERT_TRUE(store.Write(bundle));
  }
  IcpeOptions options = BaseOptions(EnumeratorKind::kFBA);
  options.snapshot_store = &store;
  options.recover = true;
  options.replay_shuffle_window = 3;
  EXPECT_DEATH(RunIcpe(Workload(), options),
               "checkpoint restore requires ordered replay");
}

/// Every on_pattern call of one run, as (objects, times) pairs, sorted:
/// the call multiset.
using PatternCalls =
    std::vector<std::pair<std::vector<TrajectoryId>, std::vector<Timestamp>>>;

PatternCalls Sorted(PatternCalls calls) {
  std::sort(calls.begin(), calls.end());
  return calls;
}

/// `options` with an on_pattern that records into `calls`.
IcpeOptions Recording(IcpeOptions options, PatternCalls* calls) {
  options.on_pattern = [calls](const CoMovementPattern& p) {
    calls->emplace_back(p.objects, p.times);
  };
  return options;
}

/// Patterns commit once their checkpoint persists, so a kill loses no
/// call and recovery repeats none: the crashed run's calls plus the
/// recovery run's are the calls of a failure-free run at the interval.
TEST(Recovery, OnPatternFiresExactlyOnceAcrossKillAndRecover) {
  for (const EnumeratorKind kind :
       {EnumeratorKind::kFBA, EnumeratorKind::kVBA}) {
    SCOPED_TRACE(EnumeratorKindName(kind));
    const Dataset& dataset = Workload();
    IcpeOptions options = BaseOptions(kind);
    options.checkpoint_interval = 3;
    // Short channels keep the subtasks within a checkpoint of each other,
    // so the ones before the kill complete.
    options.channel_capacity = 2;

    flow::MemorySnapshotStore free_store;
    options.snapshot_store = &free_store;
    PatternCalls free_calls;
    const IcpeResult free_run =
        RunIcpe(dataset, Recording(options, &free_calls));
    ASSERT_FALSE(free_run.crashed);

    flow::MemorySnapshotStore store;
    options.snapshot_store = &store;
    IcpeOptions crash_options = options;
    // The first epochs are empty: kill after some that are not.
    crash_options.fault = FaultSpec{"enumerate", 1, /*at_checkpoint=*/9};
    PatternCalls calls;
    const IcpeResult crashed =
        RunIcpe(dataset, Recording(crash_options, &calls));
    ASSERT_TRUE(crashed.crashed);
    const std::size_t crashed_calls = calls.size();
    // Checkpoints before the kill persisted and committed their epochs.
    EXPECT_GT(crashed.last_checkpoint_id, 0);
    EXPECT_GT(crashed_calls, 0u);

    IcpeOptions recover_options = options;
    recover_options.recover = true;
    const IcpeResult recovered =
        RunIcpe(dataset, Recording(recover_options, &calls));
    EXPECT_FALSE(recovered.crashed);
    EXPECT_LT(crashed_calls, calls.size());
    EXPECT_EQ(Sorted(calls), Sorted(free_calls));
    EXPECT_EQ(recovered.patterns, free_run.patterns);
  }
}

/// A store whose every write takes a while, so the pipeline runs ahead of
/// the checkpoint committer.
class SlowStore : public flow::MemorySnapshotStore {
 public:
  std::optional<std::uint32_t> Write(
      const flow::CheckpointBundle& bundle) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    return MemorySnapshotStore::Write(bundle);
  }
};

/// The same comparison as OnPatternFiresExactlyOnceAcrossKillAndRecover,
/// behind a slow store: the pipeline outruns the committer, so the kill
/// lands while a complete bundle waits behind the write in progress. That
/// bundle still persists and commits, and recovery starts after it.
TEST(Recovery, OnPatternExactlyOnceWithASlowStore) {
  for (const EnumeratorKind kind :
       {EnumeratorKind::kFBA, EnumeratorKind::kVBA}) {
    SCOPED_TRACE(EnumeratorKindName(kind));
    const Dataset& dataset = Workload();
    IcpeOptions options = BaseOptions(kind);
    options.checkpoint_interval = 3;
    options.channel_capacity = 2;

    flow::MemorySnapshotStore free_store;
    options.snapshot_store = &free_store;
    PatternCalls free_calls;
    const IcpeResult free_run =
        RunIcpe(dataset, Recording(options, &free_calls));
    ASSERT_FALSE(free_run.crashed);

    SlowStore store;
    options.snapshot_store = &store;
    IcpeOptions crash_options = options;
    crash_options.fault = FaultSpec{"enumerate", 1, /*at_checkpoint=*/9};
    PatternCalls calls;
    const IcpeResult crashed =
        RunIcpe(dataset, Recording(crash_options, &calls));
    ASSERT_TRUE(crashed.crashed);
    const std::size_t crashed_calls = calls.size();
    EXPECT_GT(crashed.last_checkpoint_id, 0);
    EXPECT_EQ(crashed.last_checkpoint_id, store.ReadLatest()->id);
    EXPECT_GT(crashed_calls, 0u);

    IcpeOptions recover_options = options;
    recover_options.recover = true;
    const IcpeResult recovered =
        RunIcpe(dataset, Recording(recover_options, &calls));
    EXPECT_FALSE(recovered.crashed);
    EXPECT_LT(crashed_calls, calls.size());
    EXPECT_EQ(Sorted(calls), Sorted(free_calls));
    EXPECT_EQ(recovered.patterns, free_run.patterns);
  }
}

/// A failed write loses no epoch: the next bundle carries it, ahead of
/// its own epochs, commits it, and hands it to a later recovery.
TEST(Recovery, FailedWriteCarriesItsEpochForward) {
  const Dataset& dataset = Workload();
  IcpeOptions options = BaseOptions(EnumeratorKind::kFBA);
  options.checkpoint_interval = 3;
  options.channel_capacity = 2;
  flow::MemorySnapshotStore free_store;
  options.snapshot_store = &free_store;
  PatternCalls free_calls;
  const IcpeResult free_run =
      RunIcpe(dataset, Recording(options, &free_calls));

  // The first epochs of this workload are empty; the fifth is not. The
  // run is killed after bundle 6 has carried it.
  flow::MemorySnapshotStore inner;
  core::FailingSnapshotStore store(&inner, /*fail_write_number=*/5);
  options.snapshot_store = &store;
  IcpeOptions crash_options = options;
  crash_options.fault = FaultSpec{"enumerate", 1, /*at_checkpoint=*/9};
  PatternCalls calls;
  const IcpeResult crashed =
      RunIcpe(dataset, Recording(crash_options, &calls));
  ASSERT_TRUE(crashed.crashed);
  EXPECT_EQ(crashed.checkpoints_failed, 1);
  EXPECT_FALSE(inner.Read(5).has_value());
  const std::optional<flow::CheckpointBundle> carrier = inner.Read(6);
  ASSERT_TRUE(carrier.has_value());
  EXPECT_EQ(carrier->prev_id, 4);
  const auto epochs = std::count_if(
      carrier->states.begin(), carrier->states.end(),
      [](const flow::OperatorState& s) { return s.op == flow::kEpochOp; });
  EXPECT_EQ(epochs, 4);  // epochs 5 and 6 of both subtasks

  IcpeOptions recover_options = options;
  recover_options.snapshot_store = &inner;
  recover_options.recover = true;
  const IcpeResult recovered =
      RunIcpe(dataset, Recording(recover_options, &calls));
  EXPECT_FALSE(recovered.crashed);
  EXPECT_EQ(recovered.patterns, free_run.patterns);
  EXPECT_EQ(Sorted(calls), Sorted(free_calls));
}

/// Runs `options` with a store that fails write `fail_write_number`
/// (with `and_later`, every write from it on) and expects no crash and
/// the patterns and on_pattern calls of a failure-free run: the epochs of
/// writes that no later bundle persisted commit when the run ends.
void ExpectFailedWritesLoseNothing(const IcpeOptions& options,
                                   std::int64_t fail_write_number,
                                   bool and_later) {
  const Dataset& dataset = Workload();
  flow::MemorySnapshotStore free_store;
  IcpeOptions free_options = options;
  free_options.snapshot_store = &free_store;
  PatternCalls free_calls;
  const IcpeResult free_run =
      RunIcpe(dataset, Recording(free_options, &free_calls));
  ASSERT_FALSE(free_run.crashed);
  const std::int64_t writes = free_run.checkpoints_completed;
  ASSERT_LE(fail_write_number, writes);
  ASSERT_FALSE(free_calls.empty());  // else a lost epoch would not show

  flow::MemorySnapshotStore inner;
  core::FailingSnapshotStore store(&inner, fail_write_number, and_later);
  IcpeOptions failing_options = options;
  failing_options.snapshot_store = &store;
  PatternCalls calls;
  const IcpeResult result =
      RunIcpe(dataset, Recording(failing_options, &calls));
  EXPECT_FALSE(result.crashed);
  const std::int64_t failed =
      and_later ? writes - fail_write_number + 1 : 1;
  EXPECT_EQ(result.checkpoints_failed, failed);
  EXPECT_EQ(result.checkpoints_completed, writes - failed);
  EXPECT_EQ(result.patterns, free_run.patterns);
  EXPECT_EQ(Sorted(calls), Sorted(free_calls));
}

/// The last write fails, so no later bundle carries its epochs.
TEST(Recovery, FailedLastWriteStillCommitsItsEpochs) {
  for (const EnumeratorKind kind :
       {EnumeratorKind::kFBA, EnumeratorKind::kVBA}) {
    SCOPED_TRACE(EnumeratorKindName(kind));
    IcpeOptions options = BaseOptions(kind);
    options.checkpoint_interval = 3;
    flow::MemorySnapshotStore probe;
    options.snapshot_store = &probe;
    const std::int64_t writes = RunIcpe(Workload(), options)
                                    .checkpoints_completed;
    ExpectFailedWritesLoseNothing(options, writes, /*and_later=*/false);
  }
}

/// The store goes down at write 5 and stays down to the end of the run.
TEST(Recovery, StoreDownForGoodStillCommitsEveryEpoch) {
  for (const EnumeratorKind kind :
       {EnumeratorKind::kFBA, EnumeratorKind::kVBA}) {
    SCOPED_TRACE(EnumeratorKindName(kind));
    IcpeOptions options = BaseOptions(kind);
    options.checkpoint_interval = 3;
    ExpectFailedWritesLoseNothing(options, 5, /*and_later=*/true);
  }
}

/// Keeps the largest bundle it is given.
class LargestBundleStore : public flow::MemorySnapshotStore {
 public:
  std::optional<std::uint32_t> Write(
      const flow::CheckpointBundle& bundle) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      largest_ = std::max(largest_, flow::EncodeBundle(bundle).size());
    }
    return MemorySnapshotStore::Write(bundle);
  }

  std::size_t largest() const {
    std::lock_guard<std::mutex> lock(mu_);
    return largest_;
  }

 private:
  mutable std::mutex mu_;
  std::size_t largest_ = 0;
};

/// A stationary stream of `duration` ticks: 48 objects in 12 groups of 4
/// that regroup every 12 ticks by a fresh permutation. The live state is
/// the same at every length; the distinct groups seen grow with it.
Dataset RegroupingStream(Timestamp duration) {
  trajgen::DatasetBuilder builder("regrouping");
  std::vector<TrajectoryId> order(48);
  std::iota(order.begin(), order.end(), 0);
  Rng rng(7);
  for (Timestamp t = 0; t < duration; ++t) {
    if (t % 12 == 0) {
      for (std::size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[static_cast<std::size_t>(rng.UniformInt(
                                    0, static_cast<std::int64_t>(i) - 1))]);
      }
    }
    for (std::size_t i = 0; i < order.size(); ++i) {
      const auto group = static_cast<double>(i / 4);
      const auto member = static_cast<double>(i % 4);
      builder.Add(order[i], t,
                  Point{100.0 * group + 0.5 * member, 0.5 * member});
    }
  }
  return builder.Finalize();
}

/// The largest bundle of an FBA run with checkpoints over
/// RegroupingStream(duration).
std::size_t LargestBundle(Timestamp duration) {
  LargestBundleStore store;
  IcpeOptions options = BaseOptions(EnumeratorKind::kFBA);
  options.checkpoint_interval = 10;
  options.snapshot_store = &store;
  const IcpeResult result = RunIcpe(RegroupingStream(duration), options);
  EXPECT_FALSE(result.patterns.empty());
  EXPECT_EQ(result.checkpoints_completed, duration / 10);
  return store.largest();
}

/// A bundle holds the operator state and the patterns of one epoch, so
/// it does not grow with the stream.
TEST(Recovery, BundlesStayFlatAsTheStreamGrows) {
  const std::size_t short_stream = LargestBundle(60);
  const std::size_t long_stream = LargestBundle(240);
  EXPECT_LE(static_cast<double>(long_stream),
            1.5 * static_cast<double>(short_stream))
      << "largest bundle " << short_stream << " bytes at 60 ticks, "
      << long_stream << " at 240";
}

/// Recovers from the newest of `bundles` with bundle `gap` (1-based)
/// replaced by `replacement`, or left out when it is null.
void RecoverAcrossGap(std::vector<flow::CheckpointBundle> bundles,
                      std::size_t gap,
                      const flow::CheckpointBundle* replacement) {
  ASSERT_LT(gap, bundles.size());
  if (replacement != nullptr) {
    bundles[gap - 1] = *replacement;
  } else {
    bundles.erase(bundles.begin() + static_cast<std::ptrdiff_t>(gap - 1));
  }
  RecoverFrom(bundles);
}

TEST(RecoveryDeathTest, ChainWithAMissingBundleRefusesRestore) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::vector<flow::CheckpointBundle> bundles = EveryBundle();
  ASSERT_GE(bundles.size(), 3u);
  EXPECT_DEATH(RecoverAcrossGap(bundles, 2, nullptr),
               "corrupt checkpoint: bundle 3 names predecessor 2, which is "
               "missing or corrupt");
}

TEST(RecoveryDeathTest, ChainThroughAnotherBundleRefusesRestore) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::vector<flow::CheckpointBundle> bundles = EveryBundle();
  ASSERT_GE(bundles.size(), 3u);
  // A valid bundle 2, but not the one bundle 3 was chained to: its CRC
  // differs from the link's.
  flow::CheckpointBundle other = bundles[1];
  other.states.push_back(flow::OperatorState{"extra", 0, "x"});
  EXPECT_DEATH(RecoverAcrossGap(bundles, 2, &other),
               "corrupt checkpoint: bundle 3 names predecessor 2, but the "
               "stored bundle 2 is another one");
}

TEST(RecoveryDeathTest, ChainWithACorruptFileRefusesRestore) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string dir =
      (std::filesystem::temp_directory_path() / "comove_recovery_chain")
          .string();
  std::filesystem::remove_all(dir);
  {
    flow::FileSnapshotStore store(dir);
    const IcpeResult result = RunIcpe(Workload(), CheckpointOptions(&store));
    ASSERT_GE(result.last_checkpoint_id, 3);
  }
  {
    // Rot in the middle of the chain; the newest bundle is intact.
    std::fstream f(std::filesystem::path(dir) / "checkpoint-2.ckpt",
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(40);
    f.put('\xFF');
  }
  flow::FileSnapshotStore store(dir);
  IcpeOptions options = CheckpointOptions(&store);
  options.recover = true;
  EXPECT_DEATH(RunIcpe(Workload(), options),
               "corrupt checkpoint: bundle 3 names predecessor 2, which is "
               "missing or corrupt");
  std::filesystem::remove_all(dir);
}

TEST(Recovery, FingerprintCoversShapeNotTuning) {
  const Dataset& dataset = Workload();
  IcpeOptions a = BaseOptions(EnumeratorKind::kFBA);
  IcpeOptions b = BaseOptions(EnumeratorKind::kFBA);
  b.channel_capacity = 7;
  b.collect_stats = true;
  // Capacity and stats do not affect results, so they must not
  // invalidate a checkpoint.
  EXPECT_EQ(BuildFingerprint(dataset, a), BuildFingerprint(dataset, b));
  IcpeOptions c = BaseOptions(EnumeratorKind::kVBA);
  EXPECT_NE(BuildFingerprint(dataset, a), BuildFingerprint(dataset, c));
  IcpeOptions d = BaseOptions(EnumeratorKind::kFBA);
  d.parallelism = 3;
  EXPECT_NE(BuildFingerprint(dataset, a), BuildFingerprint(dataset, d));
}

}  // namespace
}  // namespace comove::core
