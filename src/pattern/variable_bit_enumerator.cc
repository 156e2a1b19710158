#include "pattern/variable_bit_enumerator.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace comove::pattern {

VariableBitEnumerator::VariableBitEnumerator(
    const PatternConstraints& constraints, PatternSink sink)
    : StreamingEnumerator(constraints, std::move(sink)) {}

EnumerationStats VariableBitEnumerator::enumeration_stats() const {
  EnumerationStats s = stats_;
  s.apriori_nodes = scratch_.nodes_visited;
  s.apriori_pruned = scratch_.nodes_pruned;
  return s;
}

void VariableBitEnumerator::ProcessTime(Timestamp t,
                                        PartitionsByOwner&& by_owner) {
  // Ensure owner states exist for owners first seen at t.
  for (const auto& [owner, partition] : by_owner) {
    owners_.try_emplace(owner);
  }

  for (auto owner_it = owners_.begin(); owner_it != owners_.end();) {
    const TrajectoryId owner = owner_it->first;
    OwnerState& state = owner_it->second;
    const auto part_it = by_owner.find(owner);
    static const std::vector<TrajectoryId> kNoMembers;
    const std::vector<TrajectoryId>& members =
        part_it != by_owner.end() ? part_it->second.members : kNoMembers;

    // Lines 2-12 of Algorithm 5, as one merge of the sorted open column
    // against the sorted member list. Present strings materialise their
    // pending zero run and gain a one; absent strings pay a single counter
    // increment, and close (Lemma 7) in ascending id order - the same
    // order the sort-then-close of the per-string walk produced - the
    // moment the run exceeds G. Closed entries are compacted out in place.
    std::size_t out = 0;
    std::size_t mi = 0;
    std::size_t fresh = 0;
    const std::size_t open_count = state.open.size();
    for (std::size_t oi = 0; oi < open_count; ++oi) {
      OpenString& s = state.open[oi];
      while (mi < members.size() && members[mi] < s.id) {
        ++mi;
        ++fresh;
      }
      const bool present = mi < members.size() && members[mi] == s.id;
      if (present) {
        ++mi;
        s.bits.AppendZeros(s.zero_run);
        s.bits.Append(true);
        s.zero_run = 0;
      } else {
        ++s.zero_run;
        if (s.zero_run > constraints().g) {
          open_starts_.erase(open_starts_.find(s.bits.start_time()));
          CloseString(owner, &state, s.id, std::move(s.bits));
          continue;  // entry retired, not copied to `out`
        }
      }
      if (out != oi) state.open[out] = std::move(s);
      ++out;
    }
    state.open.resize(out);
    fresh += members.size() - mi;

    // Lines 13-14: open a fresh string for members seen anew, spliced in
    // id order. (A string closed above cannot reopen here: closure implies
    // the id is absent from `members`.)
    if (fresh > 0) {
      merged_open_.clear();
      merged_open_.reserve(state.open.size() + fresh);
      std::size_t oi = 0;
      mi = 0;
      while (oi < state.open.size() || mi < members.size()) {
        const bool take_open =
            oi < state.open.size() &&
            (mi >= members.size() || state.open[oi].id <= members[mi]);
        if (take_open) {
          if (mi < members.size() && state.open[oi].id == members[mi]) ++mi;
          merged_open_.push_back(std::move(state.open[oi]));
          ++oi;
        } else {
          OpenString s;
          s.id = members[mi];
          s.bits = BitString(t, 0);
          s.bits.Append(true);
          merged_open_.push_back(std::move(s));
          open_starts_.insert(t);
          ++mi;
        }
      }
      state.open.swap(merged_open_);
      stats_.strings_opened += static_cast<std::int64_t>(fresh);
    }

    if (state.open.empty() && state.candidates.empty()) {
      owner_it = owners_.erase(owner_it);
    } else {
      ++owner_it;
    }
  }
}

void VariableBitEnumerator::CloseString(TrajectoryId owner,
                                        OwnerState* state, TrajectoryId id,
                                        BitString bits) {
  ++stats_.strings_closed;
  // Open strings are kept trimmed (pending zeros live in zero_run), so
  // this is a no-op on the ProcessTime path; it matters only for restored
  // or flushed strings.
  bits.TrimTrailingZeros();
  if (bits.length() == 0 || !bits.SatisfiesKLG(constraints())) {
    // tag = -1 in Algorithm 5: the episode can never qualify; discard.
    return;
  }
  Candidate closed{id, std::move(bits)};

  // Lines 15-20: filter the candidate list with Lemma 8 (windows must be
  // able to overlap by at least K), then enumerate patterns containing the
  // newly closed string. The views borrow the stored candidate strings -
  // no per-close deep copy of every surviving candidate's words.
  views_.clear();
  views_.push_back(CandidateView{closed.id, &closed.bits});
  for (const Candidate& c : state->candidates) {
    const Timestamp overlap_start =
        std::max(c.bits.start_time(), closed.bits.start_time());
    const Timestamp overlap_end = std::min(c.end_time(), closed.end_time());
    if (overlap_end - overlap_start + 1 >= constraints().k) {
      views_.push_back(CandidateView{c.id, &c.bits});
    }
  }
  EnumerateFromCandidates(views_.data(), views_.size(), owner, constraints(),
                          /*first_mandatory=*/true, sink(), &scratch_);

  state->candidates.push_back(std::move(closed));
  ++candidate_count_;
  stats_.candidates_peak = std::max(
      stats_.candidates_peak, static_cast<std::int64_t>(candidate_count_));
}

void VariableBitEnumerator::FlushAtEnd(Timestamp /*next_time*/) {
  // Close every open string as if followed by G+1 empty snapshots. The
  // open column is already sorted by id, which keeps pattern emission
  // reproducible.
  for (auto& [owner, state] : owners_) {
    for (std::size_t i = 0; i < state.open.size(); ++i) {
      CloseString(owner, &state, state.open[i].id,
                  std::move(state.open[i].bits));
    }
    state.open.clear();
  }
  owners_.clear();
  open_starts_.clear();
  candidate_count_ = 0;
}

void VariableBitEnumerator::SaveDerived(BinaryWriter* writer) const {
  writer->WriteU64(owners_.size());
  for (const auto* entry : InKeyOrder(owners_)) {
    const auto& [owner, state] = *entry;
    writer->WriteI64(owner);
    writer->WriteU64(state.open.size());
    for (const OpenString& s : state.open) {
      writer->WriteI64(s.id);
      // Materialise the pending zero run so the wire format stays the
      // plain bit string older bundles carry.
      BitString padded = s.bits;
      padded.AppendZeros(s.zero_run);
      padded.Serialize(writer);
    }
    writer->WriteU64(state.candidates.size());
    for (const Candidate& cand : state.candidates) {
      writer->WriteI64(cand.id);
      cand.bits.Serialize(writer);
    }
  }
}

bool VariableBitEnumerator::RestoreDerived(BinaryReader* reader,
                                           Timestamp next_time) {
  owners_.clear();
  open_starts_.clear();
  candidate_count_ = 0;
  const std::uint64_t owner_count = reader->ReadU64();
  // Nothing was fed before a kNoTime cursor, so no owner can exist.
  if (owner_count > 0 && next_time == kNoTime) return false;
  for (std::uint64_t i = 0; i < owner_count && reader->ok(); ++i) {
    const TrajectoryId owner = reader->ReadI64();
    // Each owner is saved once; a repeat is a corrupt bundle.
    auto [it, fresh] = owners_.try_emplace(owner);
    if (!fresh) return false;
    OwnerState& state = it->second;
    const std::uint64_t open_count = reader->ReadU64();
    for (std::uint64_t o = 0; o < open_count && reader->ok(); ++o) {
      const TrajectoryId id = reader->ReadI64();
      // The merge walk requires a strictly ascending open column.
      if (!state.open.empty() && id <= state.open.back().id) return false;
      BitString bits;
      if (!bits.Deserialize(reader)) return false;
      // Saved zero-padded, an open string runs up to the cursor: one that
      // does not would place its witness times where the stream is not.
      if (static_cast<std::int64_t>(bits.start_time()) + bits.length() !=
          next_time) {
        return false;
      }
      const std::int32_t zero_run = bits.TrailingZeros();
      // An open string always contains a one, and one with more than G
      // trailing zeros would already have closed (Lemma 7).
      if (bits.length() == 0 || zero_run >= bits.length()) return false;
      if (zero_run > constraints().g) return false;
      bits.TrimTrailingZeros();
      open_starts_.insert(bits.start_time());
      OpenString s;
      s.id = id;
      s.bits = std::move(bits);
      s.zero_run = zero_run;
      state.open.push_back(std::move(s));
    }
    const std::uint64_t cand_count = reader->ReadU64();
    for (std::uint64_t c = 0; c < cand_count && reader->ok(); ++c) {
      Candidate cand;
      cand.id = reader->ReadI64();
      if (!cand.bits.Deserialize(reader)) return false;
      // Only trimmed, (K, L, G)-qualifying strings ever enter the
      // candidate list; anything else is a corrupt bundle.
      if (cand.bits.length() == 0 ||
          !cand.bits.Get(cand.bits.length() - 1)) {
        return false;
      }
      if (!cand.bits.SatisfiesKLG(constraints())) return false;
      // A candidate closed at a tick already fed, so its last time,
      // start + length - 1, is before the cursor.
      if (static_cast<std::int64_t>(cand.bits.start_time()) +
              cand.bits.length() >
          next_time) {
        return false;
      }
      ++candidate_count_;
      state.candidates.push_back(std::move(cand));
    }
  }
  return reader->ok();
}

}  // namespace comove::pattern
