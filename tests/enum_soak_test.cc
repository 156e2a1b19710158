#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/serde.h"
#include "common/time_sequence.h"
#include "pattern/fixed_bit_enumerator.h"
#include "pattern/reference_enumerator.h"
#include "pattern/variable_bit_enumerator.h"

/// \file
/// Randomized soak coverage for the bit-compressed enumerators at window
/// lengths that exercise the multi-word paths: eta <= 64 (one word per
/// string and per FBA ring slot), 64 < eta <= 128 (two words, still in a
/// BitString's inline buffer), eta > 128 (VBA strings and FBA candidate
/// strings spill to the heap; a ring slot holds three or more words) and
/// eta > 192 (strings longer than the whole BitString object, where a
/// constructor reading past its inline buffer would start them with
/// garbage bits; streams longer than 2 x eta, so FBA's presence rings
/// wrap through every t mod eta slot). Small object pools keep the
/// exhaustive reference tractable; a wider FBA-vs-VBA fuzz, checkpoint/
/// kill/recover equivalence rounds and a stream that grows, drains and
/// regrows one owner's ring table ride on top.

namespace comove::pattern {
namespace {

ClusterSnapshot Snap(Timestamp t,
                     std::vector<std::vector<TrajectoryId>> clusters) {
  ClusterSnapshot s;
  s.time = t;
  std::int32_t id = 0;
  for (auto& members : clusters) {
    std::sort(members.begin(), members.end());
    s.clusters.push_back(Cluster{id++, std::move(members)});
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
std::vector<CoMovementPattern> RunEnumerator(
    const std::vector<ClusterSnapshot>& snapshots,
    const PatternConstraints& c) {
  PatternCollector collector;
  Enumerator e(c, collector.AsSink());
  for (const ClusterSnapshot& s : snapshots) e.OnClusterSnapshot(s);
  e.Finish();
  return collector.Patterns();
}

void CheckWitnesses(const std::vector<CoMovementPattern>& patterns,
                    const std::vector<ClusterSnapshot>& snapshots,
                    const PatternConstraints& c) {
  std::map<Timestamp, const ClusterSnapshot*> by_time;
  for (const auto& s : snapshots) by_time[s.time] = &s;
  for (const CoMovementPattern& p : patterns) {
    EXPECT_GE(static_cast<std::int32_t>(p.objects.size()), c.m);
    EXPECT_TRUE(SatisfiesKLG(p.times, c));
    for (const Timestamp t : p.times) {
      auto it = by_time.find(t);
      ASSERT_NE(it, by_time.end());
      bool covered = false;
      for (const Cluster& cl : it->second->clusters) {
        if (std::includes(cl.members.begin(), cl.members.end(),
                          p.objects.begin(), p.objects.end())) {
          covered = true;
          break;
        }
      }
      EXPECT_TRUE(covered) << "objects not co-clustered at time " << t;
    }
  }
}

/// Two static groups with per-tick Bernoulli presence; present members of
/// a group form one cluster. High presence plus long streams makes long-k
/// patterns reachable without blowing up the exhaustive reference. The two
/// highest ids (one per group) stay absent before `late_join`, so FBA
/// opens their strings deep inside windows that are already full.
std::vector<ClusterSnapshot> GroupStream(Rng* rng, int objects, int times,
                                         double presence,
                                         Timestamp late_join = 0) {
  std::vector<ClusterSnapshot> snaps;
  for (Timestamp t = 0; t < times; ++t) {
    std::vector<std::vector<TrajectoryId>> groups(2);
    for (TrajectoryId id = 0; id < objects; ++id) {
      const bool joined = id < objects - 2 || t >= late_join;
      if (joined && rng->Bernoulli(presence)) {
        groups[static_cast<std::size_t>(id) % 2].push_back(id);
      }
    }
    std::vector<std::vector<TrajectoryId>> nonempty;
    for (auto& members : groups) {
      if (!members.empty()) nonempty.push_back(std::move(members));
    }
    snaps.push_back(Snap(t, std::move(nonempty)));
  }
  return snaps;
}

struct SoakCase {
  std::string name;
  std::uint64_t seed;
  std::int32_t m, k, l, g;
  int objects;
  int times;
  double presence;
  std::int32_t min_eta;  ///< documents which BitString tier is exercised
  std::int32_t max_eta;
  Timestamp late_join = 0;  ///< see GroupStream
  /// Some round's reference set must be non-empty: equality of empty sets
  /// would not exercise the window strings at all.
  bool expect_patterns = false;
};

/// Prints the case name. gtest's default printer dumps the struct's
/// bytes, name pointer included, so the discovered test names would
/// change with every link.
void PrintTo(const SoakCase& c, std::ostream* os) { *os << c.name; }

class EnumeratorSoak : public ::testing::TestWithParam<SoakCase> {};

TEST_P(EnumeratorSoak, BitEnumeratorsMatchReference) {
  const SoakCase sc = GetParam();
  const PatternConstraints c{sc.m, sc.k, sc.l, sc.g};
  ASSERT_GE(c.Eta(), sc.min_eta);
  ASSERT_LE(c.Eta(), sc.max_eta);

  Rng rng(sc.seed);
  bool any_pattern = false;
  for (int round = 0; round < 4; ++round) {
    const std::vector<ClusterSnapshot> snaps =
        GroupStream(&rng, sc.objects, sc.times, sc.presence, sc.late_join);
    const auto reference = ObjectSets(ReferenceEnumerate(snaps, c));
    any_pattern = any_pattern || !reference.empty();
    const auto fba = RunEnumerator<FixedBitEnumerator>(snaps, c);
    const auto vba = RunEnumerator<VariableBitEnumerator>(snaps, c);
    EXPECT_EQ(ObjectSets(fba), reference) << "FBA round " << round;
    EXPECT_EQ(ObjectSets(vba), reference) << "VBA round " << round;
    CheckWitnesses(fba, snaps, c);
    CheckWitnesses(vba, snaps, c);
  }
  if (sc.expect_patterns) {
    EXPECT_TRUE(any_pattern) << "no round produced a pattern";
  }
}

INSTANTIATE_TEST_SUITE_P(
    EtaTiers, EnumeratorSoak,
    ::testing::Values(
        // eta = 8: single-word fast path, dense churn.
        SoakCase{"SingleWord", 201, 3, 5, 2, 2, 8, 40, 0.85, 1, 64},
        // eta = 79: two inline words, runs crossing the 64-bit boundary.
        SoakCase{"TwoWords", 202, 3, 40, 2, 3, 6, 120, 0.97, 65, 128, 0,
                 true},
        // eta = 120: two inline words, long chained runs.
        SoakCase{"TwoWordsLongRuns", 203, 2, 60, 3, 3, 5, 160, 0.88, 65,
                 128},
        // eta = 135: heap-spilled strings, three words per candidate.
        SoakCase{"HeapSpill", 204, 4, 90, 2, 2, 8, 200, 0.97, 129, 4096, 0,
                 true},
        // eta = 215 (taxi's (3,160,3,2)): four heap words, stream > 2 x eta,
        // objects 6 and 7 join once the first windows are full.
        SoakCase{"LongWindow", 205, 3, 160, 3, 2, 8, 480, 0.98, 193, 500,
                 250, true},
        // eta = 300: five heap words, stream > 2 x eta, late joiners.
        SoakCase{"LongerWindow", 206, 3, 200, 2, 2, 8, 640, 0.98, 193, 500,
                 320, true}),
    [](const ::testing::TestParamInfo<SoakCase>& info) {
      return info.param.name;
    });

/// Wider streams where the exhaustive reference is no longer tractable:
/// FBA and VBA must still agree with each other, and every witness must
/// hold against the raw snapshots.
TEST(EnumeratorSoakTest, FbaAgreesWithVbaOnWideStreams) {
  Rng rng(4242);
  const PatternConstraints c{3, 20, 2, 3};
  for (int round = 0; round < 6; ++round) {
    const std::vector<ClusterSnapshot> snaps =
        GroupStream(&rng, 14, 90, 0.85);
    const auto fba = RunEnumerator<FixedBitEnumerator>(snaps, c);
    const auto vba = RunEnumerator<VariableBitEnumerator>(snaps, c);
    EXPECT_EQ(ObjectSets(fba), ObjectSets(vba)) << "round " << round;
    CheckWitnesses(fba, snaps, c);
    CheckWitnesses(vba, snaps, c);
  }
}

/// Checkpoint/kill/recover equivalence in the multi-word regime: saving
/// mid-stream, restoring into a fresh enumerator and continuing must
/// reproduce the uninterrupted run's emissions exactly. Owners live in an
/// unordered_map, so the interleaving of different owners within one tick
/// is not stable across a state rebuild; emissions are compared as sorted
/// multisets, which still catches any lost, duplicated or altered pattern.
template <typename Enumerator>
void RunKillRecover(const PatternConstraints& c,
                    const std::vector<ClusterSnapshot>& snaps,
                    std::size_t cut) {
  SCOPED_TRACE("cut=" + std::to_string(cut));
  std::vector<CoMovementPattern> uninterrupted;
  {
    Enumerator e(c, [&](const CoMovementPattern& p) {
      uninterrupted.push_back(p);
    });
    for (const ClusterSnapshot& s : snaps) e.OnClusterSnapshot(s);
    e.Finish();
  }

  std::vector<CoMovementPattern> recovered;
  std::string bundle;
  {
    Enumerator e(c, [&](const CoMovementPattern& p) {
      recovered.push_back(p);
    });
    for (std::size_t i = 0; i < cut; ++i) e.OnClusterSnapshot(snaps[i]);
    BinaryWriter writer(&bundle);
    e.SaveState(&writer);
    // The first enumerator is "killed" here: destroyed without Finish().
  }
  {
    Enumerator e(c, [&](const CoMovementPattern& p) {
      recovered.push_back(p);
    });
    BinaryReader reader(bundle);
    ASSERT_TRUE(e.RestoreState(&reader));
    for (std::size_t i = cut; i < snaps.size(); ++i) {
      e.OnClusterSnapshot(snaps[i]);
    }
    e.Finish();
  }
  const auto canonical = [](std::vector<CoMovementPattern>* v) {
    std::sort(v->begin(), v->end(),
              [](const CoMovementPattern& x, const CoMovementPattern& y) {
                return x.objects != y.objects ? x.objects < y.objects
                                              : x.times < y.times;
              });
  };
  canonical(&recovered);
  canonical(&uninterrupted);
  ASSERT_EQ(recovered.size(), uninterrupted.size());
  for (std::size_t i = 0; i < recovered.size(); ++i) {
    EXPECT_EQ(recovered[i].objects, uninterrupted[i].objects) << "at " << i;
    EXPECT_EQ(recovered[i].times, uninterrupted[i].times) << "at " << i;
  }
}

TEST(EnumeratorSoakTest, KillRecoverIsLosslessInMultiWordRegime) {
  const PatternConstraints c{3, 40, 2, 3};  // eta = 79
  ASSERT_GT(c.Eta(), 64);
  Rng rng(909);
  const std::vector<ClusterSnapshot> snaps = GroupStream(&rng, 6, 140, 0.9);
  for (const std::size_t cut : {std::size_t{20}, std::size_t{70},
                                std::size_t{110}}) {
    {
      SCOPED_TRACE("FBA");
      RunKillRecover<FixedBitEnumerator>(c, snaps, cut);
    }
    {
      SCOPED_TRACE("VBA");
      RunKillRecover<VariableBitEnumerator>(c, snaps, cut);
    }
  }
}

TEST(EnumeratorSoakTest, KillRecoverIsLosslessInHeapSpillRegime) {
  const PatternConstraints c{4, 90, 2, 2};  // eta = 135
  ASSERT_GT(c.Eta(), 128);
  Rng rng(910);
  const std::vector<ClusterSnapshot> snaps = GroupStream(&rng, 8, 220, 0.97);
  ASSERT_FALSE(RunEnumerator<FixedBitEnumerator>(snaps, c).empty());
  for (const std::size_t cut : {std::size_t{60}, std::size_t{150}}) {
    RunKillRecover<FixedBitEnumerator>(c, snaps, cut);
    RunKillRecover<VariableBitEnumerator>(c, snaps, cut);
  }
}

TEST(EnumeratorSoakTest, KillRecoverIsLosslessInLongWindowRegime) {
  const PatternConstraints c{3, 160, 3, 2};  // eta = 215
  ASSERT_GT(c.Eta(), 192);
  Rng rng(911);
  const std::vector<ClusterSnapshot> snaps =
      GroupStream(&rng, 8, 520, 0.98, /*late_join=*/250);
  ASSERT_FALSE(RunEnumerator<FixedBitEnumerator>(snaps, c).empty());
  // Each cut restores the rings with the next tick at a different slot
  // t mod eta.
  const std::vector<std::size_t> cuts = {100, 300, 440};
  std::set<std::size_t> offsets;
  for (const std::size_t cut : cuts) {
    offsets.insert(cut % static_cast<std::size_t>(c.Eta()));
  }
  ASSERT_GE(offsets.size(), 3u);
  for (const std::size_t cut : cuts) {
    RunKillRecover<FixedBitEnumerator>(c, snaps, cut);
    RunKillRecover<VariableBitEnumerator>(c, snaps, cut);
  }
}

/// A stream in which one owner's ring table grows, drains, regrows and
/// empties. The owner (the smallest id) travels with two core companions
/// and meets co-travellers whose ids come from k * 2^32, -k and
/// INT64_MAX - k, spread over the whole id range so the Fibonacci homes
/// collide and probe runs wrap past the table end:
///   growth   [0, 60):    10 of 150 transients join per tick and stay 2
///                        ticks, so the eta-window holds over 150 rings;
///   drain    [60, 100):  the core alone: the table falls to 2 rings;
///   regrowth [100, 150): transients again;
///   gone     [150, 200): the owner is absent, so its rings empty and it
///                        retires while the core and two transients go on.
/// In both transient phases a pair of stayers also travels along for 13
/// ticks out of every 14, so rings that must survive the churn around
/// them carry patterns.
std::vector<ClusterSnapshot> RingChurnStream() {
  constexpr TrajectoryId kOwner = -1000;
  std::vector<TrajectoryId> pool;  // 150 transients, then 30 stayers
  for (TrajectoryId k = 1; k <= 60; ++k) {
    pool.push_back(k << 32);
    pool.push_back(-k);
    pool.push_back(std::numeric_limits<TrajectoryId>::max() - k);
  }
  const std::vector<TrajectoryId> core = {TrajectoryId{500} << 32, -500};
  std::vector<ClusterSnapshot> snaps;
  for (Timestamp t = 0; t < 200; ++t) {
    const auto tick = static_cast<std::size_t>(t);
    std::vector<TrajectoryId> members = core;
    if (t < 60 || (t >= 100 && t < 150)) {
      for (std::size_t i = 0; i < 20; ++i) {
        members.push_back(pool[(10 * tick + i) % 150]);
      }
      if (tick % 14 != 13) {
        const std::size_t stayer = 150 + 2 * (tick / 14 % 15);
        members.push_back(pool[stayer]);
        members.push_back(pool[stayer + 1]);
      }
    }
    if (t < 150) {
      members.push_back(kOwner);
    } else {
      members.push_back(pool[0]);
      members.push_back(pool[1]);
    }
    snaps.push_back(Snap(t, {std::move(members)}));
  }
  return snaps;
}

TEST(EnumeratorSoakTest, RingTableGrowsDrainsAndRecovers) {
  const PatternConstraints c{3, 12, 3, 2};  // eta = 17, K near eta
  const std::vector<ClusterSnapshot> snaps = RingChurnStream();

  PatternCollector collector;
  FixedBitEnumerator fba(c, collector.AsSink());
  for (const ClusterSnapshot& s : snaps) fba.OnClusterSnapshot(s);
  fba.Finish();
  const EnumerationStats stats = fba.enumeration_stats();
  EXPECT_EQ(stats.strings_opened, stats.strings_closed);
  EXPECT_GE(stats.candidates_peak, 150);

  const auto patterns = collector.Patterns();
  const auto vba = RunEnumerator<VariableBitEnumerator>(snaps, c);
  EXPECT_EQ(ObjectSets(patterns), ObjectSets(vba));
  // The owner with its core, and with each stayer pair.
  EXPECT_GE(ObjectSets(patterns).size(), 8u);
  CheckWitnesses(patterns, snaps, c);
  CheckWitnesses(vba, snaps, c);

  // Cuts in the growth and the drain phase.
  for (const std::size_t cut : {std::size_t{45}, std::size_t{75}}) {
    RunKillRecover<FixedBitEnumerator>(c, snaps, cut);
  }
}

/// Saves the state after every tick, restores it into a fresh
/// enumerator and saves again: equal states must save equal bytes.
template <typename Enumerator>
void CheckSaveRestoreSaveStable(const PatternConstraints& c,
                                const std::vector<ClusterSnapshot>& snaps) {
  Enumerator live(c, [](const CoMovementPattern&) {});
  for (const ClusterSnapshot& s : snaps) {
    live.OnClusterSnapshot(s);
    std::string saved;
    BinaryWriter writer(&saved);
    live.SaveState(&writer);
    Enumerator restored(c, [](const CoMovementPattern&) {});
    BinaryReader reader(saved);
    ASSERT_TRUE(restored.RestoreState(&reader)) << "t=" << s.time;
    std::string resaved;
    BinaryWriter rewriter(&resaved);
    restored.SaveState(&rewriter);
    EXPECT_EQ(resaved, saved) << "t=" << s.time;
  }
}

/// A stream whose owners leave and return: group A (owner 0) travels
/// for 20 ticks, leaves for 15 (longer than eta, so its stay ends) and
/// returns for 20; group B (owner 10) leaves for 4 ticks (shorter than
/// eta, so it returns inside its window) and later for 2; group C
/// (owner 20) comes and goes tick by tick. Every present group is one
/// cluster.
std::vector<ClusterSnapshot> ComeAndGoStream(Rng* rng) {
  std::vector<ClusterSnapshot> snaps;
  for (Timestamp t = 0; t < 70; ++t) {
    std::vector<std::vector<TrajectoryId>> clusters;
    const auto group = [&](TrajectoryId owner, int size, double presence) {
      std::vector<TrajectoryId> members = {owner};
      for (TrajectoryId id = owner + 1; id < owner + size; ++id) {
        if (rng->Bernoulli(presence)) members.push_back(id);
      }
      clusters.push_back(std::move(members));
    };
    if (t < 20 || (t >= 35 && t < 55)) group(0, 5, 0.9);
    if (t < 15 || (t >= 19 && t < 45) || t >= 47) group(10, 4, 0.95);
    if (rng->Bernoulli(0.6)) group(20, 4, 0.9);
    snaps.push_back(Snap(t, std::move(clusters)));
  }
  return snaps;
}

TEST(EnumeratorSoakTest, SparseOwnerTicksMatchDenseHistory) {
  const PatternConstraints c{3, 6, 2, 2};  // eta = 9
  ASSERT_EQ(c.Eta(), 9);
  Rng rng(912);
  const std::vector<ClusterSnapshot> snaps = ComeAndGoStream(&rng);

  PatternCollector collector;
  FixedBitEnumerator fba(c, collector.AsSink());
  for (const ClusterSnapshot& s : snaps) fba.OnClusterSnapshot(s);
  fba.Finish();
  const EnumerationStats stats = fba.enumeration_stats();
  EXPECT_EQ(stats.strings_opened, stats.strings_closed);

  const auto patterns = collector.Patterns();
  const auto vba = RunEnumerator<VariableBitEnumerator>(snaps, c);
  const auto reference = ReferenceEnumerate(snaps, c);
  EXPECT_FALSE(patterns.empty());
  EXPECT_EQ(ObjectSets(patterns), ObjectSets(reference));
  EXPECT_EQ(ObjectSets(vba), ObjectSets(reference));
  CheckWitnesses(patterns, snaps, c);
  CheckWitnesses(vba, snaps, c);

  // Cuts inside B's gap (17) and A's (27), and just after B's return (20)
  // and A's (36).
  for (const std::size_t cut : {std::size_t{17}, std::size_t{20},
                                std::size_t{27}, std::size_t{36}}) {
    RunKillRecover<FixedBitEnumerator>(c, snaps, cut);
    RunKillRecover<VariableBitEnumerator>(c, snaps, cut);
  }

  // FBA's saved dense history restores to the same sparse state: saving
  // it again gives the same bytes, at every tick. So does VBA's state.
  CheckSaveRestoreSaveStable<FixedBitEnumerator>(c, snaps);
  CheckSaveRestoreSaveStable<VariableBitEnumerator>(c, snaps);
}

}  // namespace
}  // namespace comove::pattern
