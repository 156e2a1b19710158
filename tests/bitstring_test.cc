#include "pattern/bitstring.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/serde.h"
#include "common/time_sequence.h"

namespace comove::pattern {
namespace {

TEST(BitString, EmptyAndBasicSetGet) {
  BitString b(5, 10);
  EXPECT_EQ(b.length(), 10);
  EXPECT_EQ(b.start_time(), 5);
  EXPECT_EQ(b.CountOnes(), 0);
  b.Set(3, true);
  EXPECT_TRUE(b.Get(3));
  EXPECT_FALSE(b.Get(2));
  b.Set(3, false);
  EXPECT_EQ(b.CountOnes(), 0);
}

TEST(BitString, FromTimesIgnoresOutOfWindow) {
  const BitString b = BitString::FromTimes(10, 4, {8, 10, 12, 13, 14, 99});
  EXPECT_EQ(b.ToString(), "1011");
}

TEST(BitString, AppendGrowsAcrossWordBoundary) {
  BitString b(0, 0);
  for (int i = 0; i < 130; ++i) b.Append(i % 3 == 0);
  EXPECT_EQ(b.length(), 130);
  EXPECT_EQ(b.CountOnes(), 44);  // ceil(130/3)
  EXPECT_TRUE(b.Get(129) == (129 % 3 == 0));
  EXPECT_TRUE(b.Get(126));
}

TEST(BitString, OneTimesAreAbsolute) {
  const BitString b = BitString::FromTimes(100, 8, {100, 103, 107});
  EXPECT_EQ(b.OneTimes(), (std::vector<Timestamp>{100, 103, 107}));
}

TEST(BitString, FirstLastOneAndTrailingZeros) {
  BitString b(0, 12);
  EXPECT_EQ(b.FirstOne(), -1);
  EXPECT_EQ(b.LastOne(), -1);
  EXPECT_EQ(b.TrailingZeros(), 12);
  b.Set(2, true);
  b.Set(7, true);
  EXPECT_EQ(b.FirstOne(), 2);
  EXPECT_EQ(b.LastOne(), 7);
  EXPECT_EQ(b.TrailingZeros(), 4);
}

TEST(BitString, TrimTrailingZeros) {
  BitString b = BitString::FromTimes(0, 10, {1, 4});
  b.TrimTrailingZeros();
  EXPECT_EQ(b.length(), 5);
  EXPECT_EQ(b.ToString(), "01001");
  BitString all_zero(0, 6);
  all_zero.TrimTrailingZeros();
  EXPECT_EQ(all_zero.length(), 0);
}

TEST(BitString, PaperFigure8AndComposition) {
  // B[o5] = 111111, B[o6] = 110111, B[o7] = 110011 (window starts at 3).
  const BitString o5 = BitString::FromTimes(3, 6, {3, 4, 5, 6, 7, 8});
  const BitString o6 = BitString::FromTimes(3, 6, {3, 4, 6, 7, 8});
  const BitString o7 = BitString::FromTimes(3, 6, {3, 4, 7, 8});
  EXPECT_EQ(BitString::AndAligned(o5, o6).ToString(), "110111");
  const BitString o567 =
      BitString::AndAligned(BitString::AndAligned(o5, o6), o7);
  EXPECT_EQ(o567.ToString(), "110011");
}

TEST(BitString, PaperFigure8Validity) {
  // K=4, L=2, G=2: B[o5] = 111111 and B[o6] = 110111 qualify; B[o8] =
  // 100000 does not.
  const PatternConstraints c{3, 4, 2, 2};
  EXPECT_TRUE(BitString::FromTimes(3, 6, {3, 4, 5, 6, 7, 8})
                  .SatisfiesKLG(c));
  EXPECT_TRUE(BitString::FromTimes(3, 6, {3, 4, 6, 7, 8}).SatisfiesKLG(c));
  EXPECT_FALSE(BitString::FromTimes(3, 6, {3}).SatisfiesKLG(c));
  // Paper-internal inconsistency: Fig. 8 ticks B[o7] = 110011 as valid,
  // but Definition 3 requires T[i+1] - T[i] <= G and here 7 - 4 = 3 > 2.
  // Lemma 4's eta formula is tight exactly under the Definition 3
  // semantics (see time_sequence_test's EtaIsLargeEnoughForWorstCaseWitness
  // sweep), so we follow the definition: 110011 is NOT 2-connected.
  EXPECT_FALSE(BitString::FromTimes(3, 6, {3, 4, 7, 8}).SatisfiesKLG(c));
}

TEST(BitString, AndAlignedWithDifferentStarts) {
  // Variable-length strings with different anchors (Fig. 9(b)).
  const BitString o5 = BitString::FromTimes(2, 7, {2, 3, 4, 5, 6, 7, 8});
  const BitString o6 = BitString::FromTimes(3, 6, {3, 4, 6, 7, 8});
  const BitString both = BitString::AndAligned(o5, o6);
  EXPECT_EQ(both.start_time(), 3);
  EXPECT_EQ(both.length(), 6);
  EXPECT_EQ(both.OneTimes(), (std::vector<Timestamp>{3, 4, 6, 7, 8}));
}

TEST(BitString, AndAlignedDisjointWindowsIsEmpty) {
  const BitString a = BitString::FromTimes(0, 4, {0, 1});
  const BitString b = BitString::FromTimes(10, 4, {10});
  EXPECT_TRUE(BitString::AndAligned(a, b).empty());
}

TEST(BitString, AndAlignedMatchesNaiveOnRandomInputs) {
  Rng rng(31);
  for (int round = 0; round < 50; ++round) {
    const Timestamp sa = static_cast<Timestamp>(rng.UniformInt(0, 40));
    const Timestamp sb = static_cast<Timestamp>(rng.UniformInt(0, 40));
    const std::int32_t la = static_cast<std::int32_t>(rng.UniformInt(0, 200));
    const std::int32_t lb = static_cast<std::int32_t>(rng.UniformInt(0, 200));
    BitString a(sa, la), b(sb, lb);
    for (std::int32_t i = 0; i < la; ++i) a.Set(i, rng.Bernoulli(0.4));
    for (std::int32_t i = 0; i < lb; ++i) b.Set(i, rng.Bernoulli(0.4));
    const BitString got = BitString::AndAligned(a, b);
    // Naive: intersect one-time sets.
    std::vector<Timestamp> expect;
    for (const Timestamp t : a.OneTimes()) {
      const auto bt = b.OneTimes();
      if (std::find(bt.begin(), bt.end(), t) != bt.end()) {
        expect.push_back(t);
      }
    }
    EXPECT_EQ(got.OneTimes(), expect) << "round " << round;
    // Result window is the intersection of the operand windows.
    if (!got.empty()) {
      EXPECT_GE(got.start_time(), std::max(sa, sb));
      EXPECT_LE(got.start_time() + got.length(),
                std::min(sa + la, sb + lb));
    }
  }
}

TEST(BitString, StorageIsPackedNotByteExpanded) {
  // eta bits must cost ~eta/8 bytes, the point of §6.2's storage bound.
  BitString b(0, 0);
  for (int i = 0; i < 64 * 100; ++i) b.Append(true);
  // 6400 bits = 100 words = 800 bytes; allow slack for the vector header.
  EXPECT_EQ(b.CountOnes(), 6400);
  EXPECT_EQ(b.length(), 6400);
}

TEST(BitString, InlineBufferSpillsTransparently) {
  // Grow one string across the 128-bit small-buffer boundary and verify
  // bit content is preserved through the spill.
  BitString b(7, 0);
  std::vector<bool> expect;
  Rng rng(101);
  for (int i = 0; i < 300; ++i) {
    const bool bit = rng.Bernoulli(0.5);
    b.Append(bit);
    expect.push_back(bit);
    if (i == 127 || i == 128 || i == 191) {
      // Straddle the boundary: full contents checked at every step there.
      for (int j = 0; j <= i; ++j) {
        ASSERT_EQ(b.Get(j), expect[static_cast<std::size_t>(j)]) << j;
      }
    }
  }
  EXPECT_EQ(b.length(), 300);
  for (int j = 0; j < 300; ++j) {
    ASSERT_EQ(b.Get(j), expect[static_cast<std::size_t>(j)]) << j;
  }
}

TEST(BitString, CopyAndMoveAcrossSpillBoundary) {
  for (const std::int32_t length : {10, 64, 128, 129, 400}) {
    BitString src(3, 0);
    for (std::int32_t i = 0; i < length; ++i) src.Append(i % 5 == 0);
    const BitString copy = src;
    EXPECT_EQ(copy, src);
    BitString assigned;
    assigned = src;
    EXPECT_EQ(assigned, src);
    // Self-assignment is a no-op.
    assigned = *&assigned;
    EXPECT_EQ(assigned, src);
    const BitString reference = src;
    BitString moved = std::move(src);
    EXPECT_EQ(moved, reference);
    BitString move_assigned;
    move_assigned = std::move(moved);
    EXPECT_EQ(move_assigned, reference);
    // Moved-from objects are reset to the empty string and stay usable.
    EXPECT_EQ(src.length(), 0);        // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(moved.length(), 0);      // NOLINT(bugprone-use-after-move)
    src.Append(true);
    EXPECT_EQ(src.CountOnes(), 1);
  }
}

TEST(BitString, AppendZerosMatchesRepeatedAppend) {
  BitString lazy(4, 0);
  BitString eager(4, 0);
  lazy.Append(true);
  eager.Append(true);
  lazy.AppendZeros(200);  // spills inline -> heap inside one call
  for (int i = 0; i < 200; ++i) eager.Append(false);
  lazy.Append(true);
  eager.Append(true);
  EXPECT_EQ(lazy, eager);
  EXPECT_EQ(lazy.length(), 202);
  EXPECT_EQ(lazy.TrailingZeros(), 0);
  lazy.AppendZeros(0);
  EXPECT_EQ(lazy.length(), 202);
}

TEST(BitString, ConstructedStringsAreZeroAtEveryLength) {
  // Past the two inline words the constructor must not copy the inline
  // buffer's neighbours into the fresh heap words.
  for (std::int32_t length = 0; length <= 512; ++length) {
    const BitString b(3, length);
    ASSERT_EQ(b.length(), length);
    ASSERT_TRUE(b.IsZero()) << "length " << length;
    const BitString from = BitString::FromTimes(3, length, {});
    ASSERT_EQ(from.length(), length);
    ASSERT_TRUE(from.IsZero()) << "FromTimes, length " << length;
    const BitString both = BitString::AndAligned(b, from);
    ASSERT_EQ(both.length(), length);
    ASSERT_TRUE(both.IsZero()) << "AndAligned, length " << length;
  }
}

TEST(BitString, RotatedMatchesBitModelAtEveryShift) {
  Rng rng(77);
  for (const std::int32_t length :
       {1, 63, 64, 65, 127, 128, 129, 193, 300}) {
    BitString ring(0, length);
    std::vector<bool> bits;
    for (std::int32_t i = 0; i < length; ++i) {
      const bool bit = rng.Bernoulli(0.5);
      ring.Set(i, bit);
      bits.push_back(bit);
    }
    for (std::int32_t shift = 0; shift < length; ++shift) {
      const BitString r = ring.Rotated(shift, 10 + shift);
      ASSERT_EQ(r.start_time(), 10 + shift);
      ASSERT_EQ(r.length(), length);
      for (std::int32_t j = 0; j < length; ++j) {
        ASSERT_EQ(r.Get(j), bits[static_cast<std::size_t>((shift + j) %
                                                          length)])
            << "len " << length << " shift " << shift << " bit " << j;
      }
      // The tail past length stays zero for the word-parallel scans.
      ASSERT_EQ(r.CountOnes(), ring.CountOnes());
      if (length % BitString::kBitsPerWord != 0) {
        ASSERT_EQ(r.word_data()[r.word_count() - 1] >>
                      (length % BitString::kBitsPerWord),
                  0u);
      }
    }
  }
  EXPECT_TRUE(BitString(4, 0).Rotated(0, 9).empty());
}

TEST(BitString, IsZeroTracksContent) {
  BitString b(0, 100);
  EXPECT_TRUE(b.IsZero());
  b.Set(99, true);
  EXPECT_FALSE(b.IsZero());
  b.Set(99, false);
  EXPECT_TRUE(b.IsZero());
  EXPECT_TRUE(BitString().IsZero());
}

TEST(BitString, SerializeRoundTripsAcrossSpillBoundary) {
  Rng rng(55);
  for (const std::int32_t length : {0, 1, 64, 65, 128, 129, 333}) {
    BitString src(42, 0);
    for (std::int32_t i = 0; i < length; ++i) {
      src.Append(rng.Bernoulli(0.3));
    }
    std::string buffer;
    BinaryWriter writer(&buffer);
    src.Serialize(&writer);
    BitString restored;
    BinaryReader reader(buffer);
    ASSERT_TRUE(restored.Deserialize(&reader));
    EXPECT_TRUE(reader.AtEnd());
    EXPECT_EQ(restored, src);
  }
}

TEST(BitString, WordParallelKlgMatchesTimeSequenceOracle) {
  // The word-parallel scanner must agree with the segment-chain oracle of
  // common/time_sequence.cc on random strings across the constraint grid,
  // including multi-word and SBO-spilling lengths.
  Rng rng(2024);
  const std::vector<PatternConstraints> grid = {
      {2, 2, 1, 1}, {2, 3, 2, 1}, {3, 5, 2, 2},  {2, 4, 2, 3},
      {3, 6, 3, 2}, {2, 8, 2, 4}, {4, 10, 3, 3},
  };
  for (int round = 0; round < 400; ++round) {
    const std::int32_t length =
        static_cast<std::int32_t>(rng.UniformInt(0, 200));
    const double density = rng.Uniform(0.1, 0.9);
    BitString b(0, length);
    for (std::int32_t i = 0; i < length; ++i) {
      if (rng.Bernoulli(density)) b.Set(i, true);
    }
    const std::vector<Timestamp> times = b.OneTimes();
    for (const PatternConstraints& c : grid) {
      EXPECT_EQ(b.SatisfiesKLG(c), HasQualifyingSubsequence(times, c))
          << "round " << round << " len " << length << " m" << c.m << " k"
          << c.k << " l" << c.l << " g" << c.g << " bits " << b.ToString();
    }
  }
}

TEST(BitString, WordParallelKlgRunSpanningThreeWords) {
  // A single one-run crossing two word boundaries exercises the
  // countr_one continuation path (off == 64 keeps the run open).
  const PatternConstraints c{2, 130, 2, 1};
  BitString b(0, 0);
  for (int i = 0; i < 130; ++i) b.Append(true);
  EXPECT_TRUE(b.SatisfiesKLG(c));
  b.Append(false);
  BitString shifted(0, 1);
  for (int i = 0; i < 130; ++i) shifted.Append(true);
  EXPECT_TRUE(shifted.SatisfiesKLG(c));
  EXPECT_FALSE(shifted.SatisfiesKLG(PatternConstraints{2, 131, 2, 1}));
}

}  // namespace
}  // namespace comove::pattern
