#include <gtest/gtest.h>

#include <algorithm>
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
/// lengths that exercise the multi-word BitString paths: eta <= 64 (all
/// bits inline in one word), 64 < eta <= 128 (two inline words),
/// eta > 128 (spilled to the heap buffer) and eta > 192 (strings longer
/// than the whole BitString object, where a constructor reading past its
/// inline buffer would start them with garbage bits; streams longer than
/// 2 x eta, so FBA's presence rings wrap through every t mod eta slot).
/// Small object pools keep the exhaustive reference tractable; a wider
/// FBA-vs-VBA fuzz and a checkpoint/kill/recover equivalence round ride
/// on top.

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

}  // namespace
}  // namespace comove::pattern
