#include "pattern/fixed_bit_enumerator.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

#include "common/check.h"
#include "common/time_sequence.h"

namespace comove::pattern {

namespace {

/// Recursive apriori enumeration over arena-resident word rows. Indices
/// are chosen in increasing order; validity is evaluated from cardinality
/// M-1 on, and only valid patterns are extended (monotonicity: AND can
/// only clear bits). Below the target cardinality partial ANDs are pruned
/// by the generalised Lemma 8 check (fewer than K ones can never reach
/// duration K).
///
/// No allocation per node: every candidate is zero-extended once into a
/// shared frame [min start, max end) of `frame_len` bits, recursion level
/// d ANDs into the fixed arena slot d with a running popcount, and depth 0
/// aliases the candidate row itself. All slots live until the next
/// scratch-arena reset.
class AprioriRunner {
 public:
  AprioriRunner(const CandidateView* cands, std::size_t count,
                TrajectoryId owner, const PatternConstraints& constraints,
                bool first_mandatory, const PatternSink& sink,
                EnumerationScratch* scratch)
      : cands_(cands),
        count_(count),
        owner_(owner),
        constraints_(constraints),
        first_mandatory_(first_mandatory),
        sink_(sink),
        scratch_(scratch) {
    frame_start_ = cands[0].bits->start_time();
    Timestamp frame_end = frame_start_;
    for (std::size_t i = 0; i < count; ++i) {
      const BitString& b = *cands[i].bits;
      if (b.empty()) continue;
      frame_start_ = std::min(frame_start_, b.start_time());
      frame_end = std::max(frame_end, b.start_time() + b.length());
    }
    frame_len_ = std::max<std::int32_t>(frame_end - frame_start_, 0);
    nwords_ = BitString::WordCountFor(frame_len_);

    Arena& arena = scratch_->arena;
    arena.Reset();
    rows_ = static_cast<std::uint64_t*>(
        arena.Allocate(count * nwords_ * sizeof(std::uint64_t)));
    stack_ = static_cast<std::uint64_t*>(
        arena.Allocate(count * nwords_ * sizeof(std::uint64_t)));
    pops_ = static_cast<std::int32_t*>(
        arena.Allocate(count * sizeof(std::int32_t)));
    chosen_ = static_cast<std::size_t*>(
        arena.Allocate(count * sizeof(std::size_t)));
    std::memset(rows_, 0, count * nwords_ * sizeof(std::uint64_t));
    for (std::size_t i = 0; i < count; ++i) {
      ZeroExtendInto(*cands[i].bits, rows_ + i * nwords_);
      pops_[i] = CountOnesInWords(rows_ + i * nwords_, nwords_);
    }
  }

  void Run() {
    if (frame_len_ <= 0) return;
    if (!first_mandatory_) {
      Recurse(0, nullptr);
      return;
    }
    // Element 0 is mandatory (VBA: the newly closed string); every emitted
    // set contains it, so no previously known pattern is re-enumerated.
    ++scratch_->nodes_visited;
    if (pops_[0] < constraints_.k) {
      ++scratch_->nodes_pruned;
      return;
    }
    chosen_[0] = 0;
    depth_ = 1;
    if (1 >= constraints_.m - 1) {
      if (WordsSatisfyKLG(rows_, frame_len_, constraints_)) {
        Emit(rows_);
        Recurse(1, rows_);
      } else {
        ++scratch_->nodes_pruned;
      }
    } else {
      Recurse(1, rows_);
    }
  }

 private:
  /// Copies `src`'s packed words into the frame row: dst bit
  /// (src.start_time() - frame_start_ + j) = src bit j. Bits outside the
  /// source window stay zero, which is exactly why ANDing full frame rows
  /// equals AndAligned over the shrinking window intersection.
  void ZeroExtendInto(const BitString& src, std::uint64_t* dst) const {
    if (src.empty()) return;
    const std::int32_t offset = src.start_time() - frame_start_;
    const auto off_words = static_cast<std::size_t>(offset / 64);
    const std::int32_t off_bits = offset % 64;
    const std::uint64_t* words = src.word_data();
    const std::size_t wc = src.word_count();
    for (std::size_t w = 0; w < wc; ++w) {
      const std::uint64_t v = words[w];
      dst[off_words + w] |= v << off_bits;
      if (off_bits != 0) {
        const std::uint64_t hi = v >> (64 - off_bits);
        if (hi != 0) dst[off_words + w + 1] |= hi;
      }
    }
  }

  void Recurse(std::size_t start, const std::uint64_t* partial) {
    for (std::size_t i = start; i < count_; ++i) {
      ++scratch_->nodes_visited;
      const std::uint64_t* row = rows_ + i * nwords_;
      const std::uint64_t* combined;
      std::int32_t ones;
      if (depth_ == 0) {
        combined = row;
        ones = pops_[i];
      } else {
        std::uint64_t* slot = stack_ + depth_ * nwords_;
        ones = 0;
        for (std::size_t w = 0; w < nwords_; ++w) {
          const std::uint64_t v = partial[w] & row[w];
          slot[w] = v;
          ones += std::popcount(v);
        }
        combined = slot;
      }
      // Generalised Lemma 8: not enough ones left for duration K.
      if (ones < constraints_.k) {
        ++scratch_->nodes_pruned;
        continue;
      }
      chosen_[depth_] = i;
      ++depth_;
      if (static_cast<std::int32_t>(depth_) >= constraints_.m - 1) {
        if (WordsSatisfyKLG(combined, frame_len_, constraints_)) {
          Emit(combined);
          Recurse(i + 1, combined);
        } else {
          // Invalid at this level: apriori property prunes all supersets.
          ++scratch_->nodes_pruned;
        }
      } else {
        Recurse(i + 1, combined);
      }
      --depth_;
    }
  }

  void Emit(const std::uint64_t* combined) {
    CoMovementPattern pattern;
    pattern.objects.reserve(depth_ + 1);
    for (std::size_t d = 0; d < depth_; ++d) {
      pattern.objects.push_back(cands_[chosen_[d]].id);
    }
    pattern.objects.push_back(owner_);
    std::sort(pattern.objects.begin(), pattern.objects.end());
    scratch_->one_times.clear();
    AppendOneTimes(combined, frame_len_, frame_start_, &scratch_->one_times);
    pattern.times =
        BestQualifyingSubsequence(scratch_->one_times, constraints_);
    sink_(pattern);
  }

  const CandidateView* cands_;
  const std::size_t count_;
  const TrajectoryId owner_;
  const PatternConstraints& constraints_;
  const bool first_mandatory_;
  const PatternSink& sink_;
  EnumerationScratch* scratch_;

  Timestamp frame_start_ = 0;
  std::int32_t frame_len_ = 0;
  std::size_t nwords_ = 0;
  std::uint64_t* rows_ = nullptr;   ///< count x nwords zero-extended strings
  std::uint64_t* stack_ = nullptr;  ///< per-level partial-AND slots
  std::int32_t* pops_ = nullptr;    ///< per-candidate popcounts
  std::size_t* chosen_ = nullptr;   ///< candidate indices of the open path
  std::size_t depth_ = 0;
};

}  // namespace

void EnumerateFromCandidates(const CandidateView* candidates,
                             std::size_t count, TrajectoryId owner,
                             const PatternConstraints& constraints,
                             bool first_mandatory, const PatternSink& sink,
                             EnumerationScratch* scratch) {
  COMOVE_CHECK(scratch != nullptr);
  if (count == 0) return;
  if (static_cast<std::int32_t>(count) < constraints.m - 1) return;
  AprioriRunner(candidates, count, owner, constraints, first_mandatory, sink,
                scratch)
      .Run();
}

// A RingTable slot's words: [0] the id, [1] the count (0: empty slot),
// [2, stride) the ring.
namespace {
constexpr std::uint64_t kFibonacci = 0x9E3779B97F4A7C15ULL;  // 2^64 / phi
constexpr std::size_t kMinRingCapacity = 8;
}  // namespace

FixedBitEnumerator::RingTable::RingTable(std::size_t ring_words)
    : stride_(ring_words + 2) {
  Rehash(kMinRingCapacity);
}

std::size_t FixedBitEnumerator::RingTable::Home(std::uint64_t id) const {
  return static_cast<std::size_t>((id * kFibonacci) >> shift_);
}

std::size_t FixedBitEnumerator::RingTable::Find(TrajectoryId id) const {
  // Load stays at most 3/4, so every probe run ends at an empty slot.
  const auto key = static_cast<std::uint64_t>(id);
  const std::size_t mask = capacity_ - 1;
  for (std::size_t i = Home(key);; i = (i + 1) & mask) {
    const std::uint64_t* s = At(i);
    if (s[1] == 0 || s[0] == key) return i;
  }
}

bool FixedBitEnumerator::RingTable::Set(TrajectoryId id, std::int32_t bit) {
  std::size_t i = Find(id);
  const bool fresh = At(i)[1] == 0;
  if (fresh) {
    if ((size_ + 1) * 4 > capacity_ * 3) {
      Rehash(capacity_ * 2);
      i = Find(id);
    }
    std::uint64_t* s = At(i);
    s[0] = static_cast<std::uint64_t>(id);
    std::fill(s + 2, s + stride_, 0);  // a vacated slot keeps stale bits
    ++size_;
  }
  std::uint64_t* s = At(i);
  s[2 + bit / BitString::kBitsPerWord] |=
      std::uint64_t{1} << (bit % BitString::kBitsPerWord);
  ++s[1];
  return fresh;
}

bool FixedBitEnumerator::RingTable::Clear(std::size_t slot,
                                          std::int32_t bit) {
  std::uint64_t* s = At(slot);
  s[2 + bit / BitString::kBitsPerWord] &=
      ~(std::uint64_t{1} << (bit % BitString::kBitsPerWord));
  if (--s[1] != 0) return false;
  Erase(slot);
  return true;
}

void FixedBitEnumerator::RingTable::Erase(std::size_t hole) {
  // Backward shift: walk the probe run after the hole and move back every
  // entry whose home lies cyclically at or before the hole, so each
  // remaining entry stays reachable from its home without a tombstone.
  const std::size_t mask = capacity_ - 1;
  for (std::size_t j = (hole + 1) & mask; At(j)[1] != 0; j = (j + 1) & mask) {
    const std::size_t home = Home(At(j)[0]);
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      std::copy_n(At(j), stride_, At(hole));
      hole = j;
    }
  }
  At(hole)[1] = 0;
  --size_;
  if (size_ * 8 < capacity_ && capacity_ > kMinRingCapacity) {
    Rehash(capacity_ / 2);
  }
}

void FixedBitEnumerator::RingTable::Rehash(std::size_t capacity) {
  std::vector<std::uint64_t> old =
      std::exchange(slots_, std::vector<std::uint64_t>(capacity * stride_));
  capacity_ = capacity;
  shift_ = 64 - std::countr_zero(capacity);
  const std::size_t mask = capacity_ - 1;
  for (std::size_t o = 0; o < old.size(); o += stride_) {
    if (old[o + 1] == 0) continue;
    std::size_t i = Home(old[o]);
    while (At(i)[1] != 0) i = (i + 1) & mask;
    std::copy_n(&old[o], stride_, At(i));
  }
}

FixedBitEnumerator::FixedBitEnumerator(const PatternConstraints& constraints,
                                       PatternSink sink)
    : StreamingEnumerator(constraints, std::move(sink)),
      eta_(constraints.Eta()),
      ring_words_(BitString::WordCountFor(eta_)),
      due_(static_cast<std::size_t>(eta_)),
      rotated_(ring_words_) {}

EnumerationStats FixedBitEnumerator::enumeration_stats() const {
  EnumerationStats s = stats_;
  s.apriori_nodes = scratch_.nodes_visited;
  s.apriori_pruned = scratch_.nodes_pruned;
  return s;
}

void FixedBitEnumerator::AddTick(OwnerState* state) {
  const Tick& tick = state->ticks.back();
  const std::int32_t slot = Slot(tick.time);
  for (const TrajectoryId id : tick.members) {
    if (state->rings.Set(id, slot)) {
      ++stats_.strings_opened;
      ++live_rings_;
    }
  }
  stats_.candidates_peak = std::max(stats_.candidates_peak, live_rings_);
}

void FixedBitEnumerator::ProcessTime(Timestamp t,
                                     PartitionsByOwner&& by_owner) {
  // The entering tick touches only the owners with members at t; an
  // owner new to the window starts a stay and is due at t + eta - 1.
  for (auto& [owner, partition] : by_owner) {
    if (partition.members.empty()) continue;  // sets no bit, anchors none
    auto [it, fresh] = owners_.try_emplace(owner, ring_words_);
    OwnerState& state = it->second;
    if (fresh) {
      state.stay_start = t;
      DueAt(t).push_back(&*it);
    }
    state.ticks.push_back(Tick{t, std::move(partition.members)});
    AddTick(&state);
  }
  // The windows anchored at t - eta + 1 (which shares t + 1's slot) are
  // complete. Every owner's entering tick is in before any window slides,
  // so the live-ring peak counts both the entering and the leaving tick.
  // An owner's next oldest tick is later than the anchor and at most t,
  // so it joins another slot's list, never this one.
  std::vector<OwnerEntry*>& due = DueAt(t + 1);
  for (OwnerEntry* entry : due) {
    OwnerState& state = entry->second;
    COMOVE_DCHECK(state.ticks.front().time == t - (eta_ - 1));
    RunWindowAndSlide(entry->first, &state);
    if (state.ticks.empty()) {
      owners_.erase(entry->first);  // its stay ends
    } else {
      DueAt(state.ticks.front().time).push_back(entry);
    }
  }
  due.clear();
}

void FixedBitEnumerator::RunWindowAndSlide(TrajectoryId owner,
                                           OwnerState* state) {
  const Tick& anchor = state->ticks.front();
  const std::int32_t front = Slot(anchor.time);

  // Lines 2-8 of Algorithm 4: B[oi] for an anchor member oi is its ring
  // read from the front slot on. Fewer than K ones can never reach
  // duration K (the generalised Lemma 8), so only members with count >= K
  // are materialised and checked against (K, L, G). Each anchor member's
  // front bit is then cleared: the slide touches only the leaving tick.
  views_.clear();
  window_bits_.clear();
  window_bits_.reserve(anchor.members.size());  // the views point into it
  for (const TrajectoryId oi : anchor.members) {
    const std::size_t slot = state->rings.Find(oi);
    COMOVE_DCHECK(state->rings.count(slot) != 0);
    if (state->rings.count(slot) >=
        static_cast<std::uint64_t>(constraints().k)) {
      RotateWords(state->rings.ring(slot), eta_, front, rotated_.data());
      if (WordsSatisfyKLG(rotated_.data(), eta_, constraints())) {
        window_bits_.push_back(
            BitString::FromWords(anchor.time, eta_, rotated_.data()));
        views_.push_back(CandidateView{oi, &window_bits_.back()});
      }
    }
    if (state->rings.Clear(slot, front)) {
      ++stats_.strings_closed;
      --live_rings_;
    }
  }

  // Lines 9-17: candidate-based apriori enumeration from level M-1.
  EnumerateFromCandidates(views_.data(), views_.size(), owner, constraints(),
                          /*first_mandatory=*/false, sink(), &scratch_);
  state->ticks.pop_front();
}

void FixedBitEnumerator::FlushAtEnd(Timestamp next_time) {
  for (std::int32_t i = 0; i < eta_ && !owners_.empty(); ++i) {
    ProcessTime(next_time + i, {});
  }
  COMOVE_CHECK(owners_.empty());
}

void FixedBitEnumerator::SaveDerived(BinaryWriter* writer) const {
  // The dense layout every bundle carries: per owner, one member list per
  // time from its history start to the cursor, empty for a gap. Between
  // ticks a history is at most eta - 1 deep (the tick that fills it runs
  // the window and slides), and it starts no earlier than the owner's
  // stay. Owners go in id order.
  static const std::vector<TrajectoryId> kGap;
  const Timestamp cursor = last_fed() + 1;
  writer->WriteU64(owners_.size());
  for (const OwnerEntry* entry : InKeyOrder(owners_)) {
    const auto& [owner, state] = *entry;
    const Timestamp start = std::max(state.stay_start, cursor - (eta_ - 1));
    writer->WriteI64(owner);
    writer->WriteI32(start);
    writer->WriteU64(static_cast<std::uint64_t>(cursor - start));
    auto tick = state.ticks.begin();
    for (Timestamp t = start; t < cursor; ++t) {
      if (tick != state.ticks.end() && tick->time == t) {
        writer->WriteIntVector(tick->members);
        ++tick;
      } else {
        writer->WriteIntVector(kGap);
      }
    }
  }
}

bool FixedBitEnumerator::RestoreDerived(BinaryReader* reader,
                                        Timestamp next_time) {
  owners_.clear();
  for (std::vector<OwnerEntry*>& due : due_) due.clear();
  live_rings_ = 0;
  const std::uint64_t owner_count = reader->ReadU64();
  for (std::uint64_t i = 0; i < owner_count && reader->ok(); ++i) {
    const TrajectoryId owner = reader->ReadI64();
    const Timestamp history_start = reader->ReadI32();
    const std::uint64_t history = reader->ReadU64();
    // Between ticks a history is at most eta - 1 ticks deep (the tick
    // that fills it runs the window and pops) and ends just before the
    // cursor; anything else would never slide again or would anchor its
    // windows at times the stream is not at.
    if (!reader->ok() || history >= static_cast<std::uint64_t>(eta_) ||
        next_time == kNoTime ||
        static_cast<std::int64_t>(history_start) +
                static_cast<std::int64_t>(history) !=
            next_time) {
      return false;
    }
    // A repeated owner would replay its ticks into the ring stats twice
    // and run its windows twice.
    auto [it, fresh] = owners_.try_emplace(owner, ring_words_);
    if (!fresh) return false;
    OwnerState& state = it->second;
    state.stay_start = history_start;
    for (std::uint64_t h = 0; h < history; ++h) {
      auto members = reader->ReadIntVector<TrajectoryId>();
      if (!reader->ok()) return false;
      // Member lists are strictly ascending: a duplicate would count twice
      // in its ring, which then never empties, and candidates are taken in
      // anchor order. Reject corrupt bundles instead of misbehaving.
      for (std::size_t j = 1; j < members.size(); ++j) {
        if (members[j] <= members[j - 1]) return false;
      }
      if (members.empty()) continue;  // a gap
      state.ticks.push_back(Tick{
          history_start + static_cast<Timestamp>(h), std::move(members)});
      // Rings are derived state: replay the tick to rebuild them.
      AddTick(&state);
    }
    // An owner leaves once no buffered tick holds a member, so a saved
    // owner always has one; without it the owner would never be due.
    if (state.ticks.empty()) return false;
    DueAt(state.ticks.front().time).push_back(&*it);
  }
  return reader->ok();
}

}  // namespace comove::pattern
