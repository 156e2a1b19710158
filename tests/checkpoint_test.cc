#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "common/rng.h"
#include "common/serde.h"
#include "flow/reorder_buffer.h"
#include "flow/snapshot_assembler.h"
#include "flow/watermark_aligner.h"
#include "pattern/baseline_enumerator.h"
#include "pattern/fixed_bit_enumerator.h"
#include "pattern/variable_bit_enumerator.h"

namespace comove {
namespace {

using pattern::BaselineEnumerator;
using pattern::FixedBitEnumerator;
using pattern::PatternCollector;
using pattern::VariableBitEnumerator;

TEST(Serde, PrimitivesRoundTrip) {
  std::string buffer;
  BinaryWriter writer(&buffer);
  writer.WriteBool(true);
  writer.WriteI32(-42);
  writer.WriteU32(0xDEADBEEFu);
  writer.WriteI64(-1234567890123LL);
  writer.WriteU64(987654321012ULL);
  writer.WriteDouble(3.14159);
  writer.WriteString("hello");
  writer.WriteIntVector(std::vector<std::int32_t>{1, -2, 3});

  BinaryReader reader(buffer);
  EXPECT_TRUE(reader.ReadBool());
  EXPECT_EQ(reader.ReadI32(), -42);
  EXPECT_EQ(reader.ReadU32(), 0xDEADBEEFu);
  EXPECT_EQ(reader.ReadI64(), -1234567890123LL);
  EXPECT_EQ(reader.ReadU64(), 987654321012ULL);
  EXPECT_DOUBLE_EQ(reader.ReadDouble(), 3.14159);
  EXPECT_EQ(reader.ReadString(), "hello");
  EXPECT_EQ(reader.ReadIntVector<std::int32_t>(),
            (std::vector<std::int32_t>{1, -2, 3}));
  EXPECT_TRUE(reader.ok());
  EXPECT_TRUE(reader.AtEnd());
}

TEST(Serde, TruncationSetsErrorFlag) {
  std::string buffer;
  BinaryWriter writer(&buffer);
  writer.WriteI64(7);
  BinaryReader reader(std::string_view(buffer).substr(0, 3));
  EXPECT_EQ(reader.ReadI64(), 0);
  EXPECT_FALSE(reader.ok());
}

TEST(Serde, CorruptVectorSizeRejected) {
  std::string buffer;
  BinaryWriter writer(&buffer);
  writer.WriteU64(1ULL << 60);  // absurd element count
  BinaryReader reader(buffer);
  EXPECT_TRUE(reader.ReadIntVector<std::int32_t>().empty());
  EXPECT_FALSE(reader.ok());
}

// ---------------------------------------------------------------------------
// Failover equivalence: run a cluster stream halfway, checkpoint, restore
// into a fresh instance, feed the identical suffix to both, and require
// identical emissions from the restored instance and the original.

ClusterSnapshot RandomSnap(Rng* rng, Timestamp t, int objects) {
  ClusterSnapshot s;
  s.time = t;
  std::vector<std::vector<TrajectoryId>> groups(3);
  for (TrajectoryId id = 0; id < objects; ++id) {
    if (rng->Bernoulli(0.85)) {
      groups[static_cast<std::size_t>(id) % 3].push_back(id);
    }
  }
  std::int32_t cid = 0;
  for (auto& g : groups) {
    if (!g.empty()) s.clusters.push_back(Cluster{cid++, std::move(g)});
  }
  return s;
}

std::set<std::vector<TrajectoryId>> ObjectSets(
    const std::vector<CoMovementPattern>& patterns) {
  std::set<std::vector<TrajectoryId>> out;
  for (const auto& p : patterns) out.insert(p.objects);
  return out;
}

template <typename Enumerator>
void CheckFailoverEquivalence(std::uint64_t seed) {
  const PatternConstraints c{3, 5, 2, 2};
  Rng rng(seed);
  std::vector<ClusterSnapshot> stream;
  for (Timestamp t = 0; t < 40; ++t) {
    stream.push_back(RandomSnap(&rng, t, 12));
  }
  constexpr std::size_t kSplit = 23;

  // Original instance runs the whole stream.
  PatternCollector full;
  Enumerator original(c, full.AsSink());
  for (std::size_t i = 0; i < kSplit; ++i) {
    original.OnClusterSnapshot(stream[i]);
  }
  // Checkpoint at the split point.
  std::string checkpoint;
  BinaryWriter writer(&checkpoint);
  original.SaveState(&writer);
  for (std::size_t i = kSplit; i < stream.size(); ++i) {
    original.OnClusterSnapshot(stream[i]);
  }
  original.Finish();

  // Restored instance replays only the suffix.
  PatternCollector resumed;
  Enumerator restored(c, resumed.AsSink());
  BinaryReader reader(checkpoint);
  ASSERT_TRUE(restored.RestoreState(&reader));
  EXPECT_TRUE(reader.AtEnd());
  for (std::size_t i = kSplit; i < stream.size(); ++i) {
    restored.OnClusterSnapshot(stream[i]);
  }
  restored.Finish();

  // The restored run must emit everything the original emitted from the
  // split point on. (Patterns fully decided before the split were already
  // emitted pre-checkpoint, so compare against a prefix-only run.)
  PatternCollector prefix_only;
  {
    Enumerator prefix(c, prefix_only.AsSink());
    for (std::size_t i = 0; i < kSplit; ++i) {
      prefix.OnClusterSnapshot(stream[i]);
    }
    // No Finish: emissions so far are exactly the pre-checkpoint ones.
  }
  std::set<std::vector<TrajectoryId>> expected_post;
  const auto full_sets = ObjectSets(full.Patterns());
  const auto pre_sets = ObjectSets(prefix_only.Patterns());
  // resumed-sets must cover full minus pre (and never invent patterns).
  const auto resumed_sets = ObjectSets(resumed.Patterns());
  for (const auto& objects : full_sets) {
    if (!pre_sets.count(objects)) {
      EXPECT_TRUE(resumed_sets.count(objects))
          << "pattern lost across failover";
    }
  }
  for (const auto& objects : resumed_sets) {
    EXPECT_TRUE(full_sets.count(objects))
        << "restored instance invented a pattern";
  }
}

TEST(Checkpoint, BaselineFailoverEquivalence) {
  CheckFailoverEquivalence<BaselineEnumerator>(71);
}

TEST(Checkpoint, FixedBitFailoverEquivalence) {
  CheckFailoverEquivalence<FixedBitEnumerator>(72);
}

TEST(Checkpoint, VariableBitFailoverEquivalence) {
  CheckFailoverEquivalence<VariableBitEnumerator>(73);
}

TEST(Checkpoint, ConstraintMismatchRejected) {
  PatternCollector collector;
  FixedBitEnumerator a(PatternConstraints{2, 4, 2, 2}, collector.AsSink());
  std::string checkpoint;
  BinaryWriter writer(&checkpoint);
  a.SaveState(&writer);
  FixedBitEnumerator b(PatternConstraints{3, 4, 2, 2}, collector.AsSink());
  BinaryReader reader(checkpoint);
  EXPECT_FALSE(b.RestoreState(&reader));
}

TEST(Checkpoint, CorruptDataRejected) {
  PatternCollector collector;
  VariableBitEnumerator a(PatternConstraints{2, 3, 1, 1},
                          collector.AsSink());
  a.OnClusterSnapshot([] {
    ClusterSnapshot s;
    s.time = 0;
    s.clusters.push_back(Cluster{0, {1, 2, 3}});
    return s;
  }());
  std::string checkpoint;
  BinaryWriter writer(&checkpoint);
  a.SaveState(&writer);
  // Truncate and flip bytes.
  VariableBitEnumerator b(PatternConstraints{2, 3, 1, 1},
                          collector.AsSink());
  BinaryReader truncated(
      std::string_view(checkpoint).substr(0, checkpoint.size() / 2));
  EXPECT_FALSE(b.RestoreState(&truncated));
  std::string garbled = checkpoint;
  garbled[0] ^= 0x5A;
  VariableBitEnumerator d(PatternConstraints{2, 3, 1, 1},
                          collector.AsSink());
  BinaryReader bad_magic(garbled);
  EXPECT_FALSE(d.RestoreState(&bad_magic));
}

TEST(Checkpoint, AssemblerFailoverEquivalence) {
  Rng rng(91);
  // Build a record stream with gaps and out-of-order arrivals.
  std::vector<GpsRecord> records;
  std::vector<Timestamp> lasts(8, kNoTime);
  for (int step = 0; step < 300; ++step) {
    const auto id = static_cast<TrajectoryId>(rng.UniformInt(0, 7));
    const Timestamp t =
        lasts[static_cast<std::size_t>(id)] +
        static_cast<Timestamp>(rng.UniformInt(1, 3));
    records.push_back(GpsRecord{id, Point{rng.Uniform(0, 10), 0}, t,
                                lasts[static_cast<std::size_t>(id)]});
    lasts[static_cast<std::size_t>(id)] = t;
  }

  auto feed = [](flow::SnapshotAssembler* a,
                 const std::vector<GpsRecord>& recs, std::size_t begin,
                 std::size_t end) {
    std::vector<Snapshot> out;
    for (std::size_t i = begin; i < end; ++i) {
      auto got = a->OnRecord(recs[i]);
      out.insert(out.end(), got.begin(), got.end());
    }
    return out;
  };

  constexpr std::size_t kSplit = 140;
  flow::SnapshotAssembler original;
  auto pre = feed(&original, records, 0, kSplit);
  std::string checkpoint;
  BinaryWriter writer(&checkpoint);
  original.SaveState(&writer);
  auto post_original = feed(&original, records, kSplit, records.size());

  flow::SnapshotAssembler restored;
  BinaryReader reader(checkpoint);
  ASSERT_TRUE(restored.RestoreState(&reader));
  EXPECT_TRUE(reader.AtEnd());
  auto post_restored = feed(&restored, records, kSplit, records.size());

  ASSERT_EQ(post_original.size(), post_restored.size());
  for (std::size_t i = 0; i < post_original.size(); ++i) {
    EXPECT_EQ(post_original[i].time, post_restored[i].time);
    ASSERT_EQ(post_original[i].entries.size(),
              post_restored[i].entries.size());
    for (std::size_t j = 0; j < post_original[i].entries.size(); ++j) {
      EXPECT_EQ(post_original[i].entries[j].id,
                post_restored[i].entries[j].id);
    }
  }
  // Finishing both must also agree.
  const auto fin_a = original.Finish();
  const auto fin_b = restored.Finish();
  ASSERT_EQ(fin_a.size(), fin_b.size());
}

// ---------------------------------------------------------------------------
// Save/restore parity: a checkpoint image is a FULL state replacement, so
// restoring into an instance that has already processed input must be
// rejected - silently merging checkpoint state over live state would
// corrupt both.

template <typename Enumerator>
void CheckNonFreshRestoreRejected() {
  const PatternConstraints c{2, 4, 2, 2};
  PatternCollector collector;
  Enumerator source(c, collector.AsSink());
  std::string checkpoint;
  BinaryWriter writer(&checkpoint);
  source.SaveState(&writer);

  Enumerator dirty(c, collector.AsSink());
  ClusterSnapshot snap;
  snap.time = 0;
  snap.clusters.push_back(Cluster{0, {1, 2}});
  dirty.OnClusterSnapshot(snap);
  BinaryReader reader(checkpoint);
  EXPECT_FALSE(dirty.RestoreState(&reader))
      << "restore into a non-fresh enumerator must be rejected";

  // A fresh instance accepts the same image.
  Enumerator fresh(c, collector.AsSink());
  BinaryReader fresh_reader(checkpoint);
  EXPECT_TRUE(fresh.RestoreState(&fresh_reader));
}

TEST(Checkpoint, BaselineNonFreshRestoreRejected) {
  CheckNonFreshRestoreRejected<BaselineEnumerator>();
}

TEST(Checkpoint, FixedBitNonFreshRestoreRejected) {
  CheckNonFreshRestoreRejected<FixedBitEnumerator>();
}

TEST(Checkpoint, VariableBitNonFreshRestoreRejected) {
  CheckNonFreshRestoreRejected<VariableBitEnumerator>();
}

TEST(Checkpoint, FinishedEnumeratorRestoreRejected) {
  const PatternConstraints c{2, 4, 2, 2};
  PatternCollector collector;
  FixedBitEnumerator source(c, collector.AsSink());
  std::string checkpoint;
  BinaryWriter writer(&checkpoint);
  source.SaveState(&writer);
  FixedBitEnumerator finished(c, collector.AsSink());
  finished.Finish();
  BinaryReader reader(checkpoint);
  EXPECT_FALSE(finished.RestoreState(&reader));
}

// ---------------------------------------------------------------------------
// Corruption hardening: for EVERY stateful operator, a truncated
// checkpoint image (any strict prefix) must be rejected, and a bit-flipped
// image must never crash the restore path - it either fails cleanly or
// yields a structurally valid state. `restore(view)` builds a fresh
// instance and attempts the restore.

template <typename Restore>
void CheckEveryTruncationRejected(const std::string& buffer,
                                  Restore&& restore) {
  for (std::size_t len = 0; len < buffer.size(); ++len) {
    EXPECT_FALSE(restore(std::string_view(buffer).substr(0, len)))
        << "truncation to " << len << " of " << buffer.size()
        << " bytes restored";
  }
}

template <typename Restore>
void CheckBitFlipsSurvived(const std::string& buffer, Restore&& restore,
                           std::size_t guarded_prefix) {
  for (std::size_t i = 0; i < buffer.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string garbled = buffer;
      garbled[i] = static_cast<char>(garbled[i] ^ (1 << bit));
      const bool restored = restore(garbled);  // must not crash
      if (i < guarded_prefix) {
        // Flips inside the magic/header bytes are always detected.
        EXPECT_FALSE(restored)
            << "bit " << bit << " of header byte " << i << " undetected";
      }
    }
  }
}

template <typename Enumerator>
void CheckEnumeratorCorruptionHardened(std::uint64_t seed) {
  const PatternConstraints c{3, 5, 2, 2};
  Rng rng(seed);
  PatternCollector collector;
  Enumerator source(c, collector.AsSink());
  for (Timestamp t = 0; t < 23; ++t) {
    source.OnClusterSnapshot(RandomSnap(&rng, t, 12));
  }
  std::string checkpoint;
  BinaryWriter writer(&checkpoint);
  source.SaveState(&writer);

  auto restore = [&c](std::string_view data) {
    PatternCollector sink;
    Enumerator fresh(c, sink.AsSink());
    BinaryReader reader(data);
    return fresh.RestoreState(&reader);
  };
  CheckEveryTruncationRejected(checkpoint, restore);
  CheckBitFlipsSurvived(checkpoint, restore, /*guarded_prefix=*/4);
}

TEST(Checkpoint, BaselineCorruptionHardened) {
  CheckEnumeratorCorruptionHardened<BaselineEnumerator>(81);
}

TEST(Checkpoint, FixedBitCorruptionHardened) {
  CheckEnumeratorCorruptionHardened<FixedBitEnumerator>(82);
}

TEST(Checkpoint, VariableBitCorruptionHardened) {
  CheckEnumeratorCorruptionHardened<VariableBitEnumerator>(83);
}

// ---------------------------------------------------------------------------
// Hand-crafted corrupt bundles: structurally well-formed checkpoints whose
// CONTENT violates an enumerator invariant must be rejected, not walked
// into undefined behaviour (the FBA window merge and the VBA open-column
// merge both require strictly ascending id order).

void WriteEnumeratorHeader(BinaryWriter* writer, const PatternConstraints& c,
                           Timestamp next_time) {
  writer->WriteU32(0xC0110E01u);  // kCheckpointMagic
  writer->WriteI32(c.m);
  writer->WriteI32(c.k);
  writer->WriteI32(c.l);
  writer->WriteI32(c.g);
  writer->WriteI32(next_time);
  writer->WriteBool(false);
}

/// Owners whose histories each hold `depth` ticks of their own members
/// from `history_start` on.
std::string FixedBitOwnersBundle(
    const PatternConstraints& c,
    const std::vector<std::pair<TrajectoryId, std::vector<TrajectoryId>>>&
        owners,
    Timestamp history_start, std::uint64_t depth, Timestamp next_time) {
  std::string buffer;
  BinaryWriter writer(&buffer);
  WriteEnumeratorHeader(&writer, c, next_time);
  writer.WriteU64(owners.size());
  for (const auto& [owner, members] : owners) {
    writer.WriteI64(owner);
    writer.WriteI32(history_start);
    writer.WriteU64(depth);  // history length
    for (std::uint64_t h = 0; h < depth; ++h) writer.WriteIntVector(members);
  }
  return buffer;
}

/// One owner (id 0) whose history holds `depth` ticks of `members`.
std::string FixedBitBundle(const PatternConstraints& c,
                           const std::vector<TrajectoryId>& members,
                           Timestamp history_start = 0,
                           std::uint64_t depth = 1, Timestamp next_time = 1) {
  return FixedBitOwnersBundle(c, {{0, members}}, history_start, depth,
                              next_time);
}

bool RestoreFixedBit(const PatternConstraints& c, const std::string& data) {
  PatternCollector sink;
  FixedBitEnumerator fresh(c, sink.AsSink());
  BinaryReader reader(data);
  return fresh.RestoreState(&reader);
}

TEST(Checkpoint, FixedBitSortedMembersAccepted) {
  const PatternConstraints c{3, 5, 2, 2};
  EXPECT_TRUE(RestoreFixedBit(c, FixedBitBundle(c, {3, 5, 9})));
}

TEST(Checkpoint, FixedBitUnsortedMembersRejected) {
  const PatternConstraints c{3, 5, 2, 2};
  EXPECT_FALSE(RestoreFixedBit(c, FixedBitBundle(c, {5, 3})));
}

TEST(Checkpoint, FixedBitDuplicateMembersRejected) {
  const PatternConstraints c{3, 5, 2, 2};
  EXPECT_FALSE(RestoreFixedBit(c, FixedBitBundle(c, {3, 3})));
}

// Between ticks an FBA history is at most eta - 1 deep: the tick that
// fills it runs the window and pops. An eta-deep history would never run
// its window again, grow by one tick per tick, and abort Finish.
TEST(Checkpoint, FixedBitFullDepthHistoryRejected) {
  const PatternConstraints c{3, 5, 2, 2};
  ASSERT_EQ(c.Eta(), 8);
  EXPECT_FALSE(RestoreFixedBit(c, FixedBitBundle(c, {1, 2}, 0, 8, 8)));
  EXPECT_FALSE(RestoreFixedBit(c, FixedBitBundle(c, {1, 2}, 0, 9, 9)));

  // The deepest legal history restores, continues and finishes.
  PatternCollector sink;
  FixedBitEnumerator fresh(c, sink.AsSink());
  const std::string bundle = FixedBitBundle(c, {1, 2}, 0, 7, 7);
  BinaryReader reader(bundle);
  ASSERT_TRUE(fresh.RestoreState(&reader));
  for (Timestamp t = 7; t <= 30; ++t) {
    ClusterSnapshot s;
    s.time = t;
    s.clusters.push_back(Cluster{0, {0, 1, 2}});
    fresh.OnClusterSnapshot(s);
  }
  fresh.Finish();
  const auto patterns = sink.Patterns();
  ASSERT_FALSE(patterns.empty());
  for (const auto& p : patterns) {
    EXPECT_EQ(p.objects, (std::vector<TrajectoryId>{0, 1, 2}));
    EXPECT_GE(p.times.front(), 0);
    EXPECT_LE(p.times.back(), 30);
  }
}

// A history must end just before the restored cursor: one that does not
// would anchor its windows, and its witness times, where the stream is
// not.
TEST(Checkpoint, FixedBitHistoryOffCursorRejected) {
  const PatternConstraints c{3, 5, 2, 2};
  EXPECT_TRUE(RestoreFixedBit(c, FixedBitBundle(c, {1, 2}, 100, 7, 107)));
  EXPECT_FALSE(RestoreFixedBit(c, FixedBitBundle(c, {1, 2}, 100, 7, 7)));
  EXPECT_FALSE(RestoreFixedBit(c, FixedBitBundle(c, {1, 2}, 0, 3, 4)));
  EXPECT_FALSE(RestoreFixedBit(c, FixedBitBundle(c, {1, 2}, 0, 3, 2)));
  // A cursor of kNoTime (nothing fed yet) holds no history.
  EXPECT_FALSE(RestoreFixedBit(c, FixedBitBundle(c, {1, 2}, -4, 3, kNoTime)));
}

// Each owner is saved once. A restore that kept only the first copy of a
// repeated owner, after replaying both into the ring stats, emitted
// {0, 3, 4} with witness times 7-14 instead of 0-7.
TEST(Checkpoint, FixedBitRepeatedOwnerRejected) {
  const PatternConstraints c{3, 5, 2, 2};
  EXPECT_TRUE(RestoreFixedBit(
      c, FixedBitOwnersBundle(c, {{0, {1, 2}}, {3, {4, 5}}}, 0, 7, 7)));
  EXPECT_FALSE(RestoreFixedBit(
      c, FixedBitOwnersBundle(c, {{0, {1, 2}}, {0, {3, 4}}}, 0, 7, 7)));
}

// FBA holds only an owner's non-empty ticks but saves the dense history:
// one member list per time from max(stay start, cursor - eta + 1) to the
// cursor, empty for a gap.
TEST(Checkpoint, FixedBitSavesDenseHistory) {
  const PatternConstraints c{3, 5, 2, 2};
  ASSERT_EQ(c.Eta(), 8);
  PatternCollector sink;
  FixedBitEnumerator fba(c, sink.AsSink());
  const auto feed_through = [&fba](Timestamp last, Timestamp from) {
    for (Timestamp t = from; t <= last; ++t) {
      ClusterSnapshot s;
      s.time = t;
      if (t == 2 || t == 4) s.clusters.push_back(Cluster{0, {0, 1, 2}});
      fba.OnClusterSnapshot(s);
    }
  };
  const auto expected = [&c](Timestamp cursor, Timestamp start) {
    std::string buffer;
    BinaryWriter writer(&buffer);
    WriteEnumeratorHeader(&writer, c, cursor);
    writer.WriteU64(1);  // owners
    writer.WriteI64(0);
    writer.WriteI32(start);
    writer.WriteU64(static_cast<std::uint64_t>(cursor - start));
    for (Timestamp t = start; t < cursor; ++t) {
      writer.WriteIntVector(t == 2 || t == 4 ? std::vector<TrajectoryId>{1, 2}
                                             : std::vector<TrajectoryId>{});
    }
    return buffer;
  };
  const auto saved = [&fba] {
    std::string buffer;
    BinaryWriter writer(&buffer);
    fba.SaveState(&writer);
    return buffer;
  };
  feed_through(5, 0);  // the stay starts at 2; a gap at 3 and 5
  EXPECT_EQ(saved(), expected(6, 2));
  feed_through(9, 6);  // the window anchored at 2 ran: history from 3
  EXPECT_EQ(saved(), expected(10, 3));
}

pattern::BitString BitsFromString(Timestamp start, const std::string& bits) {
  pattern::BitString b(start, 0);
  for (const char ch : bits) b.Append(ch == '1');
  return b;
}

/// A VBA bit string in a hand-built bundle: (trajectory, start, bits).
struct BundleString {
  TrajectoryId id = 0;
  Timestamp start = 0;
  std::string bits;
};

struct VariableBitOwner {
  TrajectoryId owner = 0;
  std::vector<BundleString> open;  ///< saved zero-padded to the cursor
  std::vector<BundleString> candidates;
};

std::string VariableBitOwnersBundle(
    const PatternConstraints& c, Timestamp next_time,
    const std::vector<VariableBitOwner>& owners) {
  std::string buffer;
  BinaryWriter writer(&buffer);
  WriteEnumeratorHeader(&writer, c, next_time);
  writer.WriteU64(owners.size());
  for (const VariableBitOwner& o : owners) {
    writer.WriteI64(o.owner);
    for (const auto* strings : {&o.open, &o.candidates}) {
      writer.WriteU64(strings->size());
      for (const BundleString& s : *strings) {
        writer.WriteI64(s.id);
        BitsFromString(s.start, s.bits).Serialize(&writer);
      }
    }
  }
  return buffer;
}

/// One owner (id 0) at cursor 8: its open strings end at the cursor, its
/// candidates start at 0.
std::string VariableBitBundle(
    const PatternConstraints& c,
    const std::vector<std::pair<TrajectoryId, std::string>>& open,
    const std::vector<std::pair<TrajectoryId, std::string>>& candidates) {
  constexpr Timestamp kCursor = 8;
  VariableBitOwner owner;
  for (const auto& [id, bits] : open) {
    owner.open.push_back(
        {id, kCursor - static_cast<Timestamp>(bits.size()), bits});
  }
  for (const auto& [id, bits] : candidates) {
    owner.candidates.push_back({id, 0, bits});
  }
  return VariableBitOwnersBundle(c, kCursor, {owner});
}

bool RestoreVariableBit(const PatternConstraints& c,
                        const std::string& data) {
  PatternCollector sink;
  VariableBitEnumerator fresh(c, sink.AsSink());
  BinaryReader reader(data);
  return fresh.RestoreState(&reader);
}

TEST(Checkpoint, VariableBitValidBundleAccepted) {
  const PatternConstraints c{3, 5, 2, 2};
  EXPECT_TRUE(RestoreVariableBit(
      c, VariableBitBundle(c, {{3, "11"}, {5, "1100"}},
                           {{7, "110111"}, {3, "111011"}})));
}

TEST(Checkpoint, VariableBitUnsortedOpenIdsRejected) {
  const PatternConstraints c{3, 5, 2, 2};
  EXPECT_FALSE(
      RestoreVariableBit(c, VariableBitBundle(c, {{5, "11"}, {3, "11"}}, {})));
}

TEST(Checkpoint, VariableBitDuplicateOpenIdsRejected) {
  const PatternConstraints c{3, 5, 2, 2};
  EXPECT_FALSE(
      RestoreVariableBit(c, VariableBitBundle(c, {{3, "11"}, {3, "11"}}, {})));
}

TEST(Checkpoint, VariableBitAllZeroOpenStringRejected) {
  // An open string always contains at least the one it was opened with.
  const PatternConstraints c{3, 5, 2, 2};
  EXPECT_FALSE(RestoreVariableBit(c, VariableBitBundle(c, {{3, "000"}}, {})));
}

TEST(Checkpoint, VariableBitOverlongZeroRunRejected) {
  // g = 2: a string with 3 trailing zeros would already have closed
  // (Lemma 7); such a bundle is inconsistent.
  const PatternConstraints c{3, 5, 2, 2};
  EXPECT_FALSE(
      RestoreVariableBit(c, VariableBitBundle(c, {{3, "11000"}}, {})));
}

TEST(Checkpoint, VariableBitUntrimmedCandidateRejected) {
  // Candidate strings are stored trimmed (they end with their last one).
  const PatternConstraints c{3, 5, 2, 2};
  EXPECT_FALSE(
      RestoreVariableBit(c, VariableBitBundle(c, {}, {{7, "1101110"}})));
}

TEST(Checkpoint, VariableBitNonQualifyingCandidateRejected) {
  // Only (K, L, G)-qualifying strings ever enter the candidate list;
  // "11" cannot reach K = 5 ones.
  const PatternConstraints c{3, 5, 2, 2};
  EXPECT_FALSE(RestoreVariableBit(c, VariableBitBundle(c, {}, {{7, "11"}})));
}

// An open string, saved zero-padded, ends at the cursor, and a candidate
// closed before it. A restore that ignored the cursor accepted open
// strings of seven ones starting at 100 under cursor 7, and the run fed
// {0, 1, 2} at t = 7-30 emitted witness times 100-130.
TEST(Checkpoint, VariableBitOpenStringOffCursorRejected) {
  const PatternConstraints c{3, 5, 2, 2};
  const auto bundle = [&c](Timestamp cursor, Timestamp open_start,
                           std::vector<BundleString> candidates = {}) {
    return VariableBitOwnersBundle(
        c, cursor,
        {{0,
          {{1, open_start, "1111111"}, {2, open_start, "1111111"}},
          std::move(candidates)}});
  };
  EXPECT_FALSE(RestoreVariableBit(c, bundle(7, 100)));
  EXPECT_FALSE(RestoreVariableBit(c, bundle(7, 1)));
  // A candidate that ends at or after the cursor had not closed yet.
  EXPECT_FALSE(RestoreVariableBit(c, bundle(7, 0, {{3, 3, "11111"}})));
  EXPECT_TRUE(RestoreVariableBit(c, bundle(7, 0, {{3, 2, "11111"}})));
  // A cursor of kNoTime (nothing fed yet) holds no owner.
  EXPECT_TRUE(RestoreVariableBit(c, VariableBitOwnersBundle(c, 7, {{}})));
  EXPECT_FALSE(
      RestoreVariableBit(c, VariableBitOwnersBundle(c, kNoTime, {{}})));

  // At the cursor the strings restore, and the witness times continue
  // from their start.
  PatternCollector sink;
  VariableBitEnumerator fresh(c, sink.AsSink());
  const std::string saved = bundle(7, 0);
  BinaryReader reader(saved);
  ASSERT_TRUE(fresh.RestoreState(&reader));
  for (Timestamp t = 7; t <= 30; ++t) {
    ClusterSnapshot s;
    s.time = t;
    s.clusters.push_back(Cluster{0, {0, 1, 2}});
    fresh.OnClusterSnapshot(s);
  }
  fresh.Finish();
  const auto patterns = sink.Patterns();
  ASSERT_FALSE(patterns.empty());
  for (const auto& p : patterns) {
    EXPECT_EQ(p.objects, (std::vector<TrajectoryId>{0, 1, 2}));
    EXPECT_EQ(p.times.front(), 0);
    EXPECT_EQ(p.times.back(), 30);
  }
}

TEST(Checkpoint, VariableBitRepeatedOwnerRejected) {
  const PatternConstraints c{3, 5, 2, 2};
  const VariableBitOwner first{0, {{1, 6, "11"}}, {}};
  const VariableBitOwner other{4, {{5, 6, "11"}}, {}};
  const VariableBitOwner repeat{0, {{3, 6, "11"}}, {}};
  EXPECT_TRUE(
      RestoreVariableBit(c, VariableBitOwnersBundle(c, 8, {first, other})));
  EXPECT_FALSE(
      RestoreVariableBit(c, VariableBitOwnersBundle(c, 8, {first, repeat})));
}

TEST(Checkpoint, BitStringSetPaddingBitsRejected) {
  // A serialised string whose last word carries set bits past `length`
  // violates the tail-zero invariant every word-parallel kernel assumes.
  std::string buffer;
  BinaryWriter writer(&buffer);
  writer.WriteI32(0);   // start_time
  writer.WriteI32(3);   // length: 3 bits -> bits 3..63 must be zero
  writer.WriteU64(1);   // word count
  writer.WriteU64(0xFFull);  // bits 3..7 set past the length
  pattern::BitString b;
  BinaryReader reader(buffer);
  EXPECT_FALSE(b.Deserialize(&reader));
  EXPECT_EQ(b.length(), 0);
}

TEST(Checkpoint, AssemblerCorruptionHardened) {
  Rng rng(94);
  flow::SnapshotAssembler source;
  std::vector<Timestamp> lasts(5, kNoTime);
  for (int step = 0; step < 40; ++step) {
    const auto id = static_cast<TrajectoryId>(rng.UniformInt(0, 4));
    const Timestamp t = lasts[static_cast<std::size_t>(id)] +
                        static_cast<Timestamp>(rng.UniformInt(1, 3));
    source.OnRecord(GpsRecord{id, Point{rng.Uniform(0, 10), 0}, t,
                              lasts[static_cast<std::size_t>(id)]});
    lasts[static_cast<std::size_t>(id)] = t;
  }
  std::string checkpoint;
  BinaryWriter writer(&checkpoint);
  source.SaveState(&writer);

  auto restore = [](std::string_view data) {
    flow::SnapshotAssembler fresh;
    BinaryReader reader(data);
    return fresh.RestoreState(&reader);
  };
  CheckEveryTruncationRejected(checkpoint, restore);
  CheckBitFlipsSurvived(checkpoint, restore, /*guarded_prefix=*/0);
}

TEST(Checkpoint, AssemblerSaveRestoreSaveIsByteStable) {
  // 200 trajectories over 80 ticks in time order, each absent from a tick
  // with probability 0.3, with the engine's birth bound at every time
  // boundary. Trajectories are saved in id order, so the state restored
  // from a checkpoint saves the same bytes again.
  Rng rng(95);
  std::vector<Timestamp> lasts(200, kNoTime);
  flow::SnapshotAssembler live;
  for (Timestamp t = 0; t < 80; ++t) {
    live.AdvanceBirthBound(t - 1);
    std::string saved;
    BinaryWriter writer(&saved);
    live.SaveState(&writer);
    flow::SnapshotAssembler restored;
    BinaryReader reader(saved);
    ASSERT_TRUE(restored.RestoreState(&reader)) << "t=" << t;
    EXPECT_TRUE(restored.SitsAtBoundary(t)) << "t=" << t;
    std::string resaved;
    BinaryWriter rewriter(&resaved);
    restored.SaveState(&rewriter);
    EXPECT_EQ(resaved, saved) << "t=" << t;
    for (std::size_t id = 0; id < lasts.size(); ++id) {
      if (rng.Bernoulli(0.3)) continue;
      live.OnRecord(GpsRecord{static_cast<TrajectoryId>(id),
                              Point{rng.Uniform(0, 10), 0}, t, lasts[id]});
      lasts[id] = t;
    }
  }
}

/// The assembler checkpoint layout, decoded from SaveState bytes so a
/// test can break one invariant and re-encode the rest unchanged.
struct AssemblerImage {
  struct Trajectory {
    TrajectoryId id = 0;
    Timestamp last_seen = kNoTime;
    bool ended = false;
    std::vector<GpsRecord> pending;
  };
  Timestamp birth_bound = kNoTime;
  Timestamp emitted_through = kNoTime;
  bool finished = false;
  std::vector<Trajectory> trajectories;
  std::vector<std::pair<Timestamp, std::vector<SnapshotEntry>>> accumulating;

  Trajectory& Find(TrajectoryId id) {
    for (Trajectory& traj : trajectories) {
      if (traj.id == id) return traj;
    }
    ADD_FAILURE() << "no trajectory " << id;
    return trajectories.front();
  }

  static AssemblerImage Decode(const std::string& bytes) {
    AssemblerImage image;
    BinaryReader r(bytes);
    image.birth_bound = r.ReadI32();
    image.emitted_through = r.ReadI32();
    image.finished = r.ReadBool();
    image.trajectories.resize(r.ReadU64());
    for (Trajectory& traj : image.trajectories) {
      traj.id = r.ReadI64();
      traj.last_seen = r.ReadI32();
      traj.ended = r.ReadBool();
      traj.pending.resize(r.ReadU64());
      for (GpsRecord& rec : traj.pending) {
        rec.id = r.ReadI64();
        rec.location.x = r.ReadDouble();
        rec.location.y = r.ReadDouble();
        rec.time = r.ReadI32();
        rec.last_time = r.ReadI32();
      }
    }
    image.accumulating.resize(r.ReadU64());
    for (auto& [time, entries] : image.accumulating) {
      time = r.ReadI32();
      entries.resize(r.ReadU64());
      for (SnapshotEntry& e : entries) {
        e.id = r.ReadI64();
        e.location.x = r.ReadDouble();
        e.location.y = r.ReadDouble();
      }
    }
    EXPECT_TRUE(r.ok() && r.AtEnd());
    return image;
  }

  std::string Encode() const {
    std::string bytes;
    BinaryWriter w(&bytes);
    w.WriteI32(birth_bound);
    w.WriteI32(emitted_through);
    w.WriteBool(finished);
    w.WriteU64(trajectories.size());
    for (const Trajectory& traj : trajectories) {
      w.WriteI64(traj.id);
      w.WriteI32(traj.last_seen);
      w.WriteBool(traj.ended);
      w.WriteU64(traj.pending.size());
      for (const GpsRecord& rec : traj.pending) {
        w.WriteI64(rec.id);
        w.WriteDouble(rec.location.x);
        w.WriteDouble(rec.location.y);
        w.WriteI32(rec.time);
        w.WriteI32(rec.last_time);
      }
    }
    w.WriteU64(accumulating.size());
    for (const auto& [time, entries] : accumulating) {
      w.WriteI32(time);
      w.WriteU64(entries.size());
      for (const SnapshotEntry& e : entries) {
        w.WriteI64(e.id);
        w.WriteDouble(e.location.x);
        w.WriteDouble(e.location.y);
      }
    }
    return bytes;
  }
};

bool RestoreAssembler(const std::string& bytes) {
  flow::SnapshotAssembler fresh;
  BinaryReader reader(bytes);
  return fresh.RestoreState(&reader);
}

/// A reachable state with every part populated: trajectory 1 applied
/// through t = 3, trajectory 2 at t = 0 with its t = 3 record buffered
/// behind the missing t = 2, trajectory 3 ended, snapshot 0 emitted and
/// snapshots 1-3 accumulating.
AssemblerImage ReachableAssemblerImage() {
  flow::SnapshotAssembler a;
  const auto at = [](TrajectoryId id, Timestamp t, Timestamp last) {
    return GpsRecord{id, Point{static_cast<double>(id), 0}, t, last};
  };
  for (TrajectoryId id = 1; id <= 3; ++id) a.OnRecord(at(id, 0, kNoTime));
  a.OnRecord(at(1, 1, 0));
  a.OnRecord(at(1, 2, 1));
  a.OnRecord(at(2, 3, 2));
  a.OnTrajectoryEnd(3);
  a.AdvanceBirthBound(5);
  a.OnRecord(at(1, 3, 2));
  std::string bytes;
  BinaryWriter writer(&bytes);
  a.SaveState(&writer);
  AssemblerImage image = AssemblerImage::Decode(bytes);
  // The image re-encodes to the same bytes, which restore.
  EXPECT_EQ(image.Encode(), bytes);
  EXPECT_TRUE(RestoreAssembler(bytes));
  EXPECT_EQ(image.emitted_through, 0);
  EXPECT_EQ(image.trajectories.size(), 3u);
  EXPECT_EQ(image.Find(2).pending.size(), 1u);
  EXPECT_TRUE(image.Find(3).ended);
  EXPECT_EQ(image.accumulating.size(), 3u);
  return image;
}

TEST(Checkpoint, AssemblerEmittedSnapshotRejected) {
  AssemblerImage image = ReachableAssemblerImage();
  image.accumulating.front().first = image.emitted_through;
  EXPECT_FALSE(RestoreAssembler(image.Encode()));
}

TEST(Checkpoint, AssemblerEndedTrajectoryWithPendingRejected) {
  AssemblerImage image = ReachableAssemblerImage();
  image.Find(2).ended = true;
  EXPECT_FALSE(RestoreAssembler(image.Encode()));
}

TEST(Checkpoint, AssemblerStalePendingRecordRejected) {
  AssemblerImage image = ReachableAssemblerImage();
  AssemblerImage::Trajectory& traj = image.Find(2);
  traj.pending.front().time = traj.last_seen;
  EXPECT_FALSE(RestoreAssembler(image.Encode()));
}

TEST(Checkpoint, AssemblerForeignPendingRecordRejected) {
  AssemblerImage image = ReachableAssemblerImage();
  image.Find(2).pending.front().id = 1;
  EXPECT_FALSE(RestoreAssembler(image.Encode()));
}

TEST(Checkpoint, AssemblerRepeatedTrajectoryRejected) {
  AssemblerImage image = ReachableAssemblerImage();
  image.Find(3).id = 1;
  EXPECT_FALSE(RestoreAssembler(image.Encode()));
}

TEST(Checkpoint, AssemblerRepeatedSnapshotTimeRejected) {
  AssemblerImage image = ReachableAssemblerImage();
  image.accumulating[1].first = image.accumulating[0].first;
  EXPECT_FALSE(RestoreAssembler(image.Encode()));
}

TEST(Checkpoint, AssemblerRepeatedPendingLinkRejected) {
  AssemblerImage image = ReachableAssemblerImage();
  std::vector<GpsRecord>& pending = image.Find(2).pending;
  GpsRecord later = pending.front();
  later.time += 1;
  pending.push_back(later);
  EXPECT_FALSE(RestoreAssembler(image.Encode()));
}

TEST(Checkpoint, AssemblerFinishedStateRejected) {
  AssemblerImage image = ReachableAssemblerImage();
  image.finished = true;
  EXPECT_FALSE(RestoreAssembler(image.Encode()));
}

TEST(Checkpoint, WatermarkAlignerRoundTripAndCorruption) {
  flow::WatermarkAligner source(3);
  source.Update(0, 5);
  source.Update(1, 9);
  source.Update(2, 4);
  std::string state;
  BinaryWriter writer(&state);
  source.SaveState(&writer);

  flow::WatermarkAligner restored(3);
  BinaryReader reader(state);
  ASSERT_TRUE(restored.RestoreState(&reader));
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(restored.aligned(), source.aligned());
  // The restored aligner keeps advancing identically.
  EXPECT_EQ(restored.Update(2, 6), source.Update(2, 6));

  // A producer-count mismatch is a topology change: rejected, unchanged.
  flow::WatermarkAligner narrow(2);
  BinaryReader narrow_reader(state);
  EXPECT_FALSE(narrow.RestoreState(&narrow_reader));
  EXPECT_EQ(narrow.aligned(), std::numeric_limits<Timestamp>::min());

  auto restore = [](std::string_view data) {
    flow::WatermarkAligner fresh(3);
    BinaryReader r(data);
    return fresh.RestoreState(&r);
  };
  CheckEveryTruncationRejected(state, restore);
  CheckBitFlipsSurvived(state, restore, /*guarded_prefix=*/0);
}

TEST(Checkpoint, WatermarkAlignerAlignedOffMinimumRejected) {
  // Marks only rise, and so does their minimum, so Update keeps the
  // aligned watermark equal to it. Restored above the minimum, an aligner
  // would release times a slow producer has not finished; below it, it
  // would release drained times again.
  const auto image = [](const std::vector<Timestamp>& marks,
                        Timestamp aligned) {
    std::string state;
    BinaryWriter writer(&state);
    writer.WriteIntVector(marks);
    writer.WriteI64(aligned);
    return state;
  };
  const auto restores = [](const std::string& state) {
    flow::WatermarkAligner fresh(3);
    BinaryReader reader(state);
    return fresh.RestoreState(&reader) && reader.AtEnd();
  };
  flow::WatermarkAligner source(3);
  source.Update(0, 5);
  source.Update(1, 9);
  source.Update(2, 4);
  std::string saved;
  BinaryWriter writer(&saved);
  source.SaveState(&writer);
  ASSERT_EQ(image({5, 9, 4}, 4), saved);  // the image is SaveState's layout

  EXPECT_TRUE(restores(image({5, 9, 4}, 4)));
  EXPECT_FALSE(restores(image({5, 9, 4}, 5)));
  EXPECT_FALSE(restores(image({5, 9, 4}, 3)));
}

TEST(Checkpoint, ReorderBufferRepeatedOrDescendingTimeRejected) {
  // SaveState writes each buffered time once, ascending. A repeated time
  // would merge two runs of items into one; a descending one cannot come
  // from a saved buffer at all.
  const auto image = [](const std::vector<Timestamp>& times) {
    std::string state;
    BinaryWriter writer(&state);
    writer.WriteU64(times.size());
    for (const Timestamp t : times) {
      writer.WriteI64(t);
      writer.WriteU64(1);
      writer.WriteI64(10 * t);
    }
    return state;
  };
  const auto write_item = [](BinaryWriter* w, const int& v) {
    w->WriteI64(v);
  };
  const auto restores = [](const std::string& state) {
    flow::TimeReorderBuffer<int> fresh;
    BinaryReader reader(state);
    return fresh.RestoreState(&reader,
                              [](BinaryReader* r) {
                                return static_cast<int>(r->ReadI64());
                              }) &&
           reader.AtEnd();
  };
  flow::TimeReorderBuffer<int> source;
  source.Add(7, 70);
  source.Add(3, 30);
  std::string saved;
  BinaryWriter writer(&saved);
  source.SaveState(&writer, write_item);
  ASSERT_EQ(image({3, 7}), saved);  // the image is SaveState's layout

  EXPECT_TRUE(restores(image({3, 7})));
  EXPECT_FALSE(restores(image({3, 3})));
  EXPECT_FALSE(restores(image({7, 3})));
}

}  // namespace
}  // namespace comove
