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

FixedBitEnumerator::FixedBitEnumerator(const PatternConstraints& constraints,
                                       PatternSink sink)
    : StreamingEnumerator(constraints, std::move(sink)),
      eta_(constraints.Eta()) {}

EnumerationStats FixedBitEnumerator::enumeration_stats() const {
  EnumerationStats s = stats_;
  s.apriori_nodes = scratch_.nodes_visited;
  s.apriori_pruned = scratch_.nodes_pruned;
  return s;
}

void FixedBitEnumerator::AddTick(OwnerState* state) {
  const Timestamp t = state->history_start +
                      static_cast<Timestamp>(state->history.size()) - 1;
  const std::int32_t slot = Slot(t);
  for (const TrajectoryId id : state->history.back()) {
    auto [it, fresh] = state->rings.try_emplace(id);
    Ring& ring = it->second;
    if (fresh) {
      ring.bits = BitString(0, eta_);
      ++stats_.strings_opened;
      ++live_rings_;
    }
    ring.bits.Set(slot, true);
    ++ring.count;
  }
  stats_.candidates_peak = std::max(stats_.candidates_peak, live_rings_);
}

void FixedBitEnumerator::ProcessTime(Timestamp t,
                                     PartitionsByOwner&& by_owner) {
  // Extend histories of known owners; create states for new owners.
  for (auto& [owner, partition] : by_owner) {
    auto [it, fresh] = owners_.try_emplace(owner);
    if (fresh) it->second.history_start = t;
  }
  for (auto& [owner, state] : owners_) {
    auto it = by_owner.find(owner);
    if (it != by_owner.end()) {
      state.history.push_back(std::move(it->second.members));
    } else {
      state.history.emplace_back();
    }
    AddTick(&state);
  }
  // Complete windows: when a history reaches eta entries its front time is
  // fully covered and the Algorithm 4 batch can run; afterwards the window
  // advances by one. Every owner's tick is in before any window slides, so
  // the live-ring peak counts both the entering and the leaving tick.
  for (auto it = owners_.begin(); it != owners_.end();) {
    OwnerState& state = it->second;
    if (static_cast<std::int32_t>(state.history.size()) == eta_) {
      RunWindowAndSlide(it->first, &state);
    }
    // No ring left <=> every buffered tick is empty for this owner.
    if (state.rings.empty()) {
      it = owners_.erase(it);
    } else {
      ++it;
    }
  }
}

void FixedBitEnumerator::RunWindowAndSlide(TrajectoryId owner,
                                           OwnerState* state) {
  const std::vector<TrajectoryId>& anchor = state->history.front();
  const std::int32_t front = Slot(state->history_start);

  // Lines 2-8 of Algorithm 4: B[oi] for an anchor member oi is its ring
  // read from the front slot on. Fewer than K ones can never reach
  // duration K (the generalised Lemma 8), so only members with count >= K
  // are materialised and checked against (K, L, G). Each anchor member's
  // front bit is then cleared: the slide touches only the leaving tick.
  views_.clear();
  window_bits_.clear();
  window_bits_.reserve(anchor.size());  // the views point into it
  for (const TrajectoryId oi : anchor) {
    auto it = state->rings.find(oi);
    COMOVE_DCHECK(it != state->rings.end());
    Ring& ring = it->second;
    if (ring.count >= constraints().k) {
      BitString b = ring.bits.Rotated(front, state->history_start);
      if (b.SatisfiesKLG(constraints())) {
        window_bits_.push_back(std::move(b));
        views_.push_back(CandidateView{oi, &window_bits_.back()});
      }
    }
    ring.bits.Set(front, false);
    if (--ring.count == 0) {
      state->rings.erase(it);
      ++stats_.strings_closed;
      --live_rings_;
    }
  }

  // Lines 9-17: candidate-based apriori enumeration from level M-1.
  EnumerateFromCandidates(views_.data(), views_.size(), owner, constraints(),
                          /*first_mandatory=*/false, sink(), &scratch_);
  state->history.pop_front();
  ++state->history_start;
}

void FixedBitEnumerator::FlushAtEnd(Timestamp next_time) {
  for (std::int32_t i = 0; i < eta_ && !owners_.empty(); ++i) {
    ProcessTime(next_time + i, {});
  }
  COMOVE_CHECK(owners_.empty());
}

void FixedBitEnumerator::SaveDerived(BinaryWriter* writer) const {
  writer->WriteU64(owners_.size());
  for (const auto& [owner, state] : owners_) {
    writer->WriteI64(owner);
    writer->WriteI32(state.history_start);
    writer->WriteU64(state.history.size());
    for (const auto& members : state.history) {
      writer->WriteIntVector(members);
    }
  }
}

bool FixedBitEnumerator::RestoreDerived(BinaryReader* reader) {
  owners_.clear();
  live_rings_ = 0;
  const std::uint64_t owner_count = reader->ReadU64();
  for (std::uint64_t i = 0; i < owner_count && reader->ok(); ++i) {
    const TrajectoryId owner = reader->ReadI64();
    OwnerState state;
    state.history_start = reader->ReadI32();
    const std::uint64_t history = reader->ReadU64();
    // A history longer than eta would be inconsistent state.
    if (history > static_cast<std::uint64_t>(eta_)) return false;
    for (std::uint64_t h = 0; h < history && reader->ok(); ++h) {
      auto members = reader->ReadIntVector<TrajectoryId>();
      if (!reader->ok()) return false;
      // Member lists are strictly ascending: a duplicate would count twice
      // in its ring, which then never empties, and candidates are taken in
      // anchor order. Reject corrupt bundles instead of misbehaving.
      for (std::size_t j = 1; j < members.size(); ++j) {
        if (members[j] <= members[j - 1]) return false;
      }
      state.history.push_back(std::move(members));
      // Rings are derived state: replay the tick to rebuild them.
      AddTick(&state);
    }
    owners_.emplace(owner, std::move(state));
  }
  return reader->ok();
}

}  // namespace comove::pattern
