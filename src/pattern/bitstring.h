#ifndef COMOVE_PATTERN_BITSTRING_H_
#define COMOVE_PATTERN_BITSTRING_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/constraints.h"
#include "common/serde.h"
#include "common/types.h"

/// \file
/// Bit-compressed cluster-membership strings (§6.2, §6.3). Bit j of a
/// trajectory's string records whether it shared a cluster with the
/// partition owner at time start_time + j. Fixed-length strings (FBA) are
/// always eta bits; variable-length strings (VBA) grow per snapshot.
/// Storage is packed 64 bits per word - the point of the technique is the
/// O(eta * |P|) memory bound, so the packing is real, not a vector<bool>
/// stand-in.
///
/// Two inline words (128 bits) are stored in the object itself; longer
/// strings spill to a heap buffer transparently. Not every window fits:
/// eta = (ceil(K/L)-1)(G-1)+K+L-1 is 161 on the taxi-fba-k120 benchmark
/// and 215-335 on the long taxi windows, so strings there take one heap
/// block each. BitString objects hold VBA's open and candidate strings and
/// FBA's candidate (window) strings. The apriori frame rows (arena words)
/// and FBA's presence rings (slots of one flat table per owner, see
/// fixed_bit_enumerator.h) are bare word spans that use the free kernels
/// at the end of this file.

namespace comove::pattern {

/// A packed bit string anchored at a start time.
class BitString {
 public:
  static constexpr std::int32_t kBitsPerWord = 64;

  /// Packed words needed to hold `bits` bits.
  static constexpr std::size_t WordCountFor(std::int32_t bits) {
    return static_cast<std::size_t>((bits + kBitsPerWord - 1) / kBitsPerWord);
  }

  BitString() = default;

  /// A string of `length` zero bits starting at `start_time`.
  BitString(Timestamp start_time, std::int32_t length);

  BitString(const BitString& other);
  BitString(BitString&& other) noexcept;
  BitString& operator=(const BitString& other);
  BitString& operator=(BitString&& other) noexcept;
  ~BitString();

  /// Fixed-length construction: bits from the set positions in `times`
  /// (absolute timestamps), window [start_time, start_time + length).
  /// Times outside the window are ignored.
  static BitString FromTimes(Timestamp start_time, std::int32_t length,
                             const std::vector<Timestamp>& times);

  /// A copy of the packed span `words` (WordCountFor(length) words, bits
  /// past `length` zero) anchored at `start_time`.
  static BitString FromWords(Timestamp start_time, std::int32_t length,
                             const std::uint64_t* words);

  Timestamp start_time() const { return start_time_; }
  std::int32_t length() const { return length_; }
  bool empty() const { return length_ == 0; }

  /// Absolute time of bit index j.
  Timestamp TimeAt(std::int32_t j) const { return start_time_ + j; }

  bool Get(std::int32_t j) const;
  void Set(std::int32_t j, bool value);

  /// Appends one bit (variable-length growth).
  void Append(bool value);

  /// Appends `n` zero bits in O(1) amortised (a materialised zero run).
  void AppendZeros(std::int32_t n);

  std::int32_t CountOnes() const;

  /// True when no bit is set (length 0 included).
  bool IsZero() const;

  /// Index of the last set bit, or -1 when all-zero.
  std::int32_t LastOne() const;
  /// Index of the first set bit, or -1 when all-zero.
  std::int32_t FirstOne() const;

  /// Number of trailing zero bits (== length when all-zero).
  std::int32_t TrailingZeros() const;

  /// Absolute times of all set bits, ascending.
  std::vector<Timestamp> OneTimes() const;

  /// Bitwise AND aligned by absolute time: the result covers the
  /// intersection [max(starts), min(ends)); empty intersection yields an
  /// empty string. This is the pattern-composition operator B[O] = &B[ox].
  static BitString AndAligned(const BitString& a, const BitString& b);

  /// True when the set bits admit a (K, L, G)-qualifying subsequence: the
  /// candidate filter of FBA/VBA. Word-parallel (scans one-runs with
  /// countr_zero/countr_one), no temporary vectors.
  bool SatisfiesKLG(const PatternConstraints& c) const;

  /// Drops trailing zero bits (used when closing a variable string).
  void TrimTrailingZeros();

  /// "101100"-style rendering for logs and tests.
  std::string ToString() const;

  /// Appends the string's state to a checkpoint.
  void Serialize(BinaryWriter* writer) const;

  /// Reads a string from a checkpoint; false on corrupt data (the object
  /// is left empty in that case). Rejects padding bits set past `length`
  /// in the last word - every internal invariant assumes they are zero.
  [[nodiscard]] bool Deserialize(BinaryReader* reader);

  /// Read-only access to the packed words (WordCountFor(length()) of
  /// them); bits past length() in the last word are always zero. The
  /// enumeration fast path works on these spans directly.
  const std::uint64_t* word_data() const { return words(); }
  std::size_t word_count() const { return WordCountFor(length_); }

  friend bool operator==(const BitString& a, const BitString& b);

 private:
  static constexpr std::size_t kInlineWords = 2;

  std::uint64_t* words() { return heap_ != nullptr ? heap_ : inline_words_; }
  const std::uint64_t* words() const {
    return heap_ != nullptr ? heap_ : inline_words_;
  }

  /// Grows capacity to at least `words_needed`, preserving contents and
  /// the all-zero tail invariant.
  void EnsureCapacity(std::size_t words_needed);

  /// 64 bits starting at bit offset `pos` (bits past length read as 0).
  std::uint64_t ExtractWord(std::int32_t pos) const;

  Timestamp start_time_ = 0;
  std::int32_t length_ = 0;
  std::size_t cap_words_ = kInlineWords;
  std::uint64_t inline_words_[kInlineWords] = {0, 0};
  std::uint64_t* heap_ = nullptr;
};

/// Popcount over a packed word span.
std::int32_t CountOnesInWords(const std::uint64_t* words, std::size_t count);

/// Word-parallel (K, L, G) check over a packed span of `length` bits:
/// scans the maximal one-runs (segments) with countr_zero/countr_one,
/// keeps those of length >= L, chains them while inter-segment gaps stay
/// <= G, and accepts when the best chain reaches K total ones. Exactly the
/// BestChain semantics of common/time_sequence.cc, without materialising
/// the time vector or the segment list. Bits past `length` must be zero.
bool WordsSatisfyKLG(const std::uint64_t* words, std::int32_t length,
                     const PatternConstraints& c);

/// Appends the absolute times of the set bits in a packed span to `out`
/// (ascending; `start` is the time of bit 0).
void AppendOneTimes(const std::uint64_t* words, std::int32_t length,
                    Timestamp start, std::vector<Timestamp>* out);

/// Rotates the packed `length`-bit span `ring` left by `shift` (0 <=
/// shift < length, or 0 when length is 0) into `out`: bit j of `out` is
/// bit (shift + j) mod length of `ring`. A ring whose bit (t mod eta)
/// records time t thus yields its window in time order, with `shift` =
/// start mod eta. Writes WordCountFor(length) words with the bits past
/// `length` zero; `ring`'s bits past `length` must be zero too.
/// Word-parallel, O(length / 64).
void RotateWords(const std::uint64_t* ring, std::int32_t length,
                 std::int32_t shift, std::uint64_t* out);

}  // namespace comove::pattern

#endif  // COMOVE_PATTERN_BITSTRING_H_
