#include "pattern/bitstring.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/check.h"

namespace comove::pattern {

namespace {
constexpr std::int32_t kBits = BitString::kBitsPerWord;
}  // namespace

BitString::BitString(Timestamp start_time, std::int32_t length)
    : start_time_(start_time) {
  COMOVE_CHECK(length >= 0);
  // Grow while length_ is still 0: EnsureCapacity preserves the live
  // words, and a new string has none to copy out of the inline buffer.
  EnsureCapacity(WordCountFor(length));
  length_ = length;
}

BitString::BitString(const BitString& other)
    : start_time_(other.start_time_), length_(other.length_) {
  const std::size_t wc = other.word_count();
  if (wc > kInlineWords) {
    heap_ = new std::uint64_t[wc];
    cap_words_ = wc;
    std::memcpy(heap_, other.words(), wc * sizeof(std::uint64_t));
  } else {
    std::memcpy(inline_words_, other.words(), wc * sizeof(std::uint64_t));
  }
}

BitString::BitString(BitString&& other) noexcept
    : start_time_(other.start_time_),
      length_(other.length_),
      cap_words_(other.cap_words_),
      heap_(other.heap_) {
  if (heap_ == nullptr) {
    inline_words_[0] = other.inline_words_[0];
    inline_words_[1] = other.inline_words_[1];
  }
  other.heap_ = nullptr;
  other.cap_words_ = kInlineWords;
  other.inline_words_[0] = 0;
  other.inline_words_[1] = 0;
  other.length_ = 0;
  other.start_time_ = 0;
}

BitString& BitString::operator=(const BitString& other) {
  if (this == &other) return *this;
  const std::size_t wc = other.word_count();
  if (wc > cap_words_) {
    delete[] heap_;
    heap_ = new std::uint64_t[wc];
    cap_words_ = wc;
  }
  start_time_ = other.start_time_;
  length_ = other.length_;
  std::uint64_t* dst = words();
  std::memcpy(dst, other.words(), wc * sizeof(std::uint64_t));
  // Keep the all-zero tail invariant over the full retained capacity.
  for (std::size_t w = wc; w < cap_words_; ++w) dst[w] = 0;
  return *this;
}

BitString& BitString::operator=(BitString&& other) noexcept {
  if (this == &other) return *this;
  delete[] heap_;
  start_time_ = other.start_time_;
  length_ = other.length_;
  cap_words_ = other.cap_words_;
  heap_ = other.heap_;
  if (heap_ == nullptr) {
    inline_words_[0] = other.inline_words_[0];
    inline_words_[1] = other.inline_words_[1];
  }
  other.heap_ = nullptr;
  other.cap_words_ = kInlineWords;
  other.inline_words_[0] = 0;
  other.inline_words_[1] = 0;
  other.length_ = 0;
  other.start_time_ = 0;
  return *this;
}

BitString::~BitString() { delete[] heap_; }

void BitString::EnsureCapacity(std::size_t words_needed) {
  if (words_needed <= cap_words_) return;
  std::size_t new_cap = cap_words_ * 2;
  if (new_cap < words_needed) new_cap = words_needed;
  auto* data = new std::uint64_t[new_cap];
  const std::size_t live = word_count();
  std::memcpy(data, words(), live * sizeof(std::uint64_t));
  std::memset(data + live, 0, (new_cap - live) * sizeof(std::uint64_t));
  delete[] heap_;
  heap_ = data;
  cap_words_ = new_cap;
}

bool operator==(const BitString& a, const BitString& b) {
  if (a.start_time_ != b.start_time_ || a.length_ != b.length_) return false;
  const std::size_t wc = a.word_count();
  return std::memcmp(a.words(), b.words(), wc * sizeof(std::uint64_t)) == 0;
}

BitString BitString::FromTimes(Timestamp start_time, std::int32_t length,
                               const std::vector<Timestamp>& times) {
  BitString b(start_time, length);
  for (const Timestamp t : times) {
    const std::int32_t j = t - start_time;
    if (j >= 0 && j < length) b.Set(j, true);
  }
  return b;
}

bool BitString::Get(std::int32_t j) const {
  COMOVE_CHECK(j >= 0 && j < length_);
  return (words()[static_cast<std::size_t>(j / kBits)] >> (j % kBits)) & 1ULL;
}

void BitString::Set(std::int32_t j, bool value) {
  COMOVE_CHECK(j >= 0 && j < length_);
  const std::uint64_t mask = 1ULL << (j % kBits);
  auto& word = words()[static_cast<std::size_t>(j / kBits)];
  if (value) {
    word |= mask;
  } else {
    word &= ~mask;
  }
}

void BitString::Append(bool value) {
  EnsureCapacity(WordCountFor(length_ + 1));
  ++length_;
  // The appended bit is already zero by the tail invariant.
  if (value) Set(length_ - 1, true);
}

void BitString::AppendZeros(std::int32_t n) {
  COMOVE_CHECK(n >= 0);
  EnsureCapacity(WordCountFor(length_ + n));
  length_ += n;  // the new bits are already zero by the tail invariant
}

std::int32_t CountOnesInWords(const std::uint64_t* words, std::size_t count) {
  std::int32_t ones = 0;
  for (std::size_t i = 0; i < count; ++i) ones += std::popcount(words[i]);
  return ones;
}

bool WordsSatisfyKLG(const std::uint64_t* words, std::int32_t length,
                     const PatternConstraints& c) {
  // One pass over the maximal one-runs, mirroring BestChain exactly: runs
  // shorter than L are skipped entirely (they neither contribute nor end a
  // chain); a qualifying run extends the current chain when its start is
  // within G of the previous qualifying run's end, else starts a new one.
  std::int32_t best = 0;
  std::int32_t chain_total = 0;
  std::int32_t prev_end = 0;  // inclusive end of the last qualifying run
  bool have_prev = false;
  std::int32_t run_start = -1;  // -1: not inside a one-run

  const auto close_run = [&](std::int32_t end_exclusive) {
    const std::int32_t run_len = end_exclusive - run_start;
    if (run_len >= c.l) {
      if (have_prev && run_start - prev_end <= c.g) {
        chain_total += run_len;
      } else {
        chain_total = run_len;
      }
      if (chain_total > best) best = chain_total;
      have_prev = true;
      prev_end = end_exclusive - 1;
    }
    run_start = -1;
  };

  const auto word_count = BitString::WordCountFor(length);
  for (std::size_t wi = 0; wi < word_count; ++wi) {
    const std::uint64_t w = words[wi];
    const std::int32_t base = static_cast<std::int32_t>(wi) * kBits;
    std::int32_t off = 0;
    while (off < kBits) {
      const std::uint64_t rest = w >> off;
      if (run_start < 0) {
        if (rest == 0) break;  // rest of the word is zeros
        off += std::countr_zero(rest);
        run_start = base + off;
      } else {
        const std::int32_t ones = std::countr_one(rest);
        off += ones;
        if (off < kBits) close_run(base + off);
        // off == kBits: the run continues into the next word.
      }
    }
  }
  if (run_start >= 0) close_run(length);
  return best >= c.k;
}

void AppendOneTimes(const std::uint64_t* words, std::int32_t length,
                    Timestamp start, std::vector<Timestamp>* out) {
  const auto word_count = BitString::WordCountFor(length);
  for (std::size_t wi = 0; wi < word_count; ++wi) {
    std::uint64_t w = words[wi];
    while (w != 0) {
      const int bit = std::countr_zero(w);
      out->push_back(start + static_cast<Timestamp>(wi) * kBits + bit);
      w &= w - 1;
    }
  }
}

std::int32_t BitString::CountOnes() const {
  return CountOnesInWords(words(), word_count());
}

bool BitString::IsZero() const {
  const std::uint64_t* w = words();
  const std::size_t wc = word_count();
  for (std::size_t i = 0; i < wc; ++i) {
    if (w[i] != 0) return false;
  }
  return true;
}

std::int32_t BitString::LastOne() const {
  const std::uint64_t* w = words();
  for (std::int32_t wi = static_cast<std::int32_t>(word_count()) - 1; wi >= 0;
       --wi) {
    if (w[static_cast<std::size_t>(wi)] != 0) {
      const int high = 63 - std::countl_zero(w[static_cast<std::size_t>(wi)]);
      return wi * kBits + high;
    }
  }
  return -1;
}

std::int32_t BitString::FirstOne() const {
  const std::uint64_t* w = words();
  const std::size_t wc = word_count();
  for (std::size_t wi = 0; wi < wc; ++wi) {
    if (w[wi] != 0) {
      return static_cast<std::int32_t>(wi) * kBits + std::countr_zero(w[wi]);
    }
  }
  return -1;
}

std::int32_t BitString::TrailingZeros() const {
  const std::int32_t last = LastOne();
  return last < 0 ? length_ : length_ - 1 - last;
}

std::vector<Timestamp> BitString::OneTimes() const {
  std::vector<Timestamp> times;
  times.reserve(static_cast<std::size_t>(CountOnes()));
  AppendOneTimes(words(), length_, start_time_, &times);
  return times;
}

BitString BitString::Rotated(std::int32_t shift, Timestamp start_time) const {
  COMOVE_CHECK(shift >= 0 && (shift < length_ || shift == 0));
  BitString out(start_time, length_);
  // Bits [shift, length) move down to [0, back); bits [0, shift) move up
  // to [back, length). ExtractWord reads zeros past length, so the first
  // term carries only the former, and the second only the latter below
  // length.
  const std::int32_t back = length_ - shift;
  const std::uint64_t* src = words();
  std::uint64_t* dst = out.words();
  const std::size_t wc = word_count();
  for (std::size_t w = 0; w < wc; ++w) {
    const std::int32_t j = static_cast<std::int32_t>(w) * kBits;
    std::uint64_t v = ExtractWord(shift + j);
    if (j + kBits > back) {
      v |= j >= back ? ExtractWord(j - back) : src[0] << (back - j);
    }
    dst[w] = v;
  }
  if (length_ % kBits != 0) dst[wc - 1] &= (1ULL << (length_ % kBits)) - 1;
  return out;
}

BitString BitString::AndAligned(const BitString& a, const BitString& b) {
  const Timestamp start = std::max(a.start_time_, b.start_time_);
  const Timestamp end =
      std::min(a.start_time_ + a.length_, b.start_time_ + b.length_);
  if (end <= start) return BitString(start, 0);
  BitString out(start, end - start);
  // Word-level AND with per-operand shifts.
  const std::int32_t off_a = start - a.start_time_;
  const std::int32_t off_b = start - b.start_time_;
  std::uint64_t* dst = out.words();
  for (std::int32_t j = 0; j < out.length_; j += kBits) {
    const std::int32_t chunk = std::min(kBits, out.length_ - j);
    const std::uint64_t wa = a.ExtractWord(off_a + j);
    const std::uint64_t wb = b.ExtractWord(off_b + j);
    std::uint64_t w = wa & wb;
    if (chunk < kBits) w &= (1ULL << chunk) - 1;
    dst[static_cast<std::size_t>(j / kBits)] = w;
  }
  return out;
}

std::uint64_t BitString::ExtractWord(std::int32_t pos) const {
  COMOVE_CHECK(pos >= 0);
  const std::int32_t word = pos / kBits;
  const std::int32_t shift = pos % kBits;
  const std::uint64_t* w = words();
  const auto wc = static_cast<std::int32_t>(word_count());
  const auto at = [&](std::int32_t wi) -> std::uint64_t {
    return wi < wc ? w[static_cast<std::size_t>(wi)] : 0;
  };
  std::uint64_t out = at(word) >> shift;
  if (shift != 0) out |= at(word + 1) << (kBits - shift);
  return out;
}

bool BitString::SatisfiesKLG(const PatternConstraints& c) const {
  return WordsSatisfyKLG(words(), length_, c);
}

void BitString::TrimTrailingZeros() {
  const std::int32_t new_length = LastOne() + 1;
  std::uint64_t* w = words();
  const std::size_t old_wc = word_count();
  const std::size_t new_wc = WordCountFor(new_length);
  for (std::size_t wi = new_wc; wi < old_wc; ++wi) w[wi] = 0;
  if (new_wc != 0 && new_length % kBits != 0) {
    w[new_wc - 1] &= (1ULL << (new_length % kBits)) - 1;
  }
  length_ = new_length;
}

void BitString::Serialize(BinaryWriter* writer) const {
  writer->WriteI32(start_time_);
  writer->WriteI32(length_);
  const std::size_t wc = word_count();
  writer->WriteU64(wc);
  const std::uint64_t* w = words();
  for (std::size_t i = 0; i < wc; ++i) writer->WriteU64(w[i]);
}

bool BitString::Deserialize(BinaryReader* reader) {
  *this = BitString();
  const Timestamp start = reader->ReadI32();
  const std::int32_t length = reader->ReadI32();
  const std::uint64_t word_count = reader->ReadU64();
  if (!reader->ok() || length < 0 || word_count != WordCountFor(length)) {
    return false;
  }
  // A corrupt but self-consistent (length, word_count) pair could demand
  // gigabytes; each word is 8 wire bytes, so the count is bounded by the
  // bytes actually present.
  if (word_count > reader->remaining() / 8) return false;
  EnsureCapacity(word_count);
  std::uint64_t* w = words();
  for (std::uint64_t i = 0; i < word_count; ++i) w[i] = reader->ReadU64();
  if (!reader->ok()) {
    *this = BitString();
    return false;
  }
  // Padding bits past `length` must be zero: the word-parallel scans rely
  // on it, so a corrupt word here would silently change results.
  if (word_count != 0 && length % kBits != 0 &&
      (w[word_count - 1] & ~((1ULL << (length % kBits)) - 1)) != 0) {
    *this = BitString();
    return false;
  }
  start_time_ = start;
  length_ = length;
  return true;
}

std::string BitString::ToString() const {
  std::string s;
  s.reserve(static_cast<std::size_t>(length_));
  for (std::int32_t j = 0; j < length_; ++j) s.push_back(Get(j) ? '1' : '0');
  return s;
}

}  // namespace comove::pattern
