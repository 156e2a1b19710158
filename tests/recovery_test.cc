#include <gtest/gtest.h>

#include <filesystem>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "cluster/clustering.h"
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

/// Keeps every bundle a run persists, so a test can recombine them.
class KeepEveryBundleStore : public flow::SnapshotStore {
 public:
  bool Write(const flow::CheckpointBundle& bundle) override {
    std::lock_guard<std::mutex> lock(mu_);
    bundles_[bundle.id] = bundle;
    return true;
  }
  std::optional<flow::CheckpointBundle> ReadLatest() const override {
    std::lock_guard<std::mutex> lock(mu_);
    if (bundles_.empty()) return std::nullopt;
    return bundles_.rbegin()->second;
  }
  /// Every bundle, oldest first.
  std::vector<flow::CheckpointBundle> Bundles() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<flow::CheckpointBundle> out;
    for (const auto& [id, bundle] : bundles_) out.push_back(bundle);
    return out;
  }

 private:
  mutable std::mutex mu_;
  std::map<std::int64_t, flow::CheckpointBundle> bundles_;
};

IcpeOptions CheckpointOptions(flow::SnapshotStore* store) {
  IcpeOptions options = BaseOptions(EnumeratorKind::kFBA);
  options.checkpoint_interval = 3;
  options.snapshot_store = store;
  return options;
}

/// Every bundle of a failure-free checkpointing run, oldest first.
std::vector<flow::CheckpointBundle> EveryBundle() {
  KeepEveryBundleStore store;
  const IcpeResult result = RunIcpe(Workload(), CheckpointOptions(&store));
  EXPECT_GE(result.checkpoints_completed, 2);
  return store.Bundles();
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

/// Recovers from `bundle` alone.
void RecoverFrom(const flow::CheckpointBundle& bundle) {
  flow::MemorySnapshotStore store;
  ASSERT_TRUE(store.Write(bundle));
  IcpeOptions options = CheckpointOptions(&store);
  options.recover = true;
  RunIcpe(Workload(), options);
}

TEST(RecoveryDeathTest, SourceCursorInsideItsTimeRefusesRestore) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  flow::CheckpointBundle bundle = EveryBundle().back();
  std::string& cursor = StateOf(&bundle, "source");
  const auto [index, time] = ReadCursor(cursor);
  // One record forward stays inside the cut's time: restored as is,
  // record `index` would never reach the assembler.
  ASSERT_EQ(Workload().records[index + 1].time, time);
  cursor = WriteCursor(index + 1, time);
  EXPECT_DEATH(RecoverFrom(bundle), "corrupt source checkpoint");
}

TEST(RecoveryDeathTest, SourceCursorOnALaterTimeRefusesRestore) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  flow::CheckpointBundle bundle = EveryBundle().back();
  std::string& cursor = StateOf(&bundle, "source");
  const auto [index, time] = ReadCursor(cursor);
  // Forward to the first record of the next time: a record boundary,
  // but not the one the assembler state sits at.
  const std::vector<GpsRecord>& records = Workload().records;
  std::size_t next = index;
  while (next < records.size() && records[next].time == time) ++next;
  ASSERT_LT(next, records.size());
  cursor = WriteCursor(next, records[next].time);
  EXPECT_DEATH(RecoverFrom(bundle), "corrupt assembler checkpoint");
}

TEST(RecoveryDeathTest, AssemblerFromAnEarlierCheckpointRefusesRestore) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::vector<flow::CheckpointBundle> bundles = EveryBundle();
  ASSERT_GE(bundles.size(), 2u);
  flow::CheckpointBundle bundle = bundles.back();
  StateOf(&bundle, "assembler") = StateOf(&bundles.front(), "assembler");
  EXPECT_DEATH(RecoverFrom(bundle), "corrupt assembler checkpoint");
}

TEST(RecoveryDeathTest, EnumerateBufferAtTheAlignedMarkRefusesRestore) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  flow::CheckpointBundle bundle = EveryBundle().back();
  std::string& state = StateOf(&bundle, "enumerate");
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
  buffer.Add(t, pattern::Partition{0, t, {1, 2}});
  std::string corrupt;
  BinaryWriter writer(&corrupt);
  aligner.SaveState(&writer);
  buffer.SaveState(&writer, WritePartition);
  state = corrupt + enumerators;
  EXPECT_DEATH(RecoverFrom(bundle), "corrupt enumerate checkpoint");
}

TEST(RecoveryDeathTest, ShuffledReplayRefusesRestore) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // The fingerprint leaves out the replay order, but a cut is a time
  // boundary of ordered replay only.
  flow::MemorySnapshotStore store;
  ASSERT_TRUE(store.Write(EveryBundle().back()));
  IcpeOptions options = BaseOptions(EnumeratorKind::kFBA);
  options.snapshot_store = &store;
  options.recover = true;
  options.replay_shuffle_window = 3;
  EXPECT_DEATH(RunIcpe(Workload(), options),
               "checkpoint restore requires ordered replay");
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
