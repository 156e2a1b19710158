#ifndef COMOVE_PATTERN_VARIABLE_BIT_ENUMERATOR_H_
#define COMOVE_PATTERN_VARIABLE_BIT_ENUMERATOR_H_

#include <cstdint>
#include <set>
#include <unordered_map>
#include <vector>

#include "pattern/bitstring.h"
#include "pattern/fixed_bit_enumerator.h"
#include "pattern/streaming_enumerator.h"

/// \file
/// VBA - Variable Length Bit Compression based Algorithm (Algorithm 5).
/// Instead of re-verifying eta-length windows that overlap (FBA processes
/// every snapshot up to eta times), VBA grows ONE variable-length bit
/// string per (owner, trajectory) across all times and closes it when
/// Lemma 7 proves its pattern time sequence maximal (G+1 trailing zeros).
/// Closed strings that satisfy (K, L, G) enter a per-owner candidate list;
/// enumeration runs once per closure, restricted to patterns involving the
/// newly closed string, with Lemma 8 pruning combinations whose time spans
/// cannot overlap by K. Each snapshot is therefore verified exactly once -
/// trading detection latency for throughput, as §6.3 observes.
///
/// The per-tick walk is a single merge of the sorted member list against
/// the sorted open-string column (not a hash probe per open string), and
/// absence is a lazy zero-run counter: a string that misses G ticks costs
/// O(1) per tick instead of G Append calls, with the zeros materialised
/// only if a one arrives before the Lemma 7 closure.

namespace comove::pattern {

/// Streaming VBA enumerator covering all owners routed to this instance.
class VariableBitEnumerator : public StreamingEnumerator {
 public:
  VariableBitEnumerator(const PatternConstraints& constraints,
                        PatternSink sink);

  /// Total closed candidate strings currently retained (for benches).
  std::size_t candidate_count() const { return candidate_count_; }

  /// Time t is decided only when no open bit string covering t remains
  /// (§6.3: VBA trades latency for throughput). With open strings the
  /// frontier sits just before the oldest open start.
  Timestamp FinalizedThrough() const override {
    if (last_fed() == kNoTime) return kNoTime;
    return open_starts_.empty() ? last_fed() : *open_starts_.begin() - 1;
  }

  EnumerationStats enumeration_stats() const override;

 protected:
  void ProcessTime(Timestamp time, PartitionsByOwner&& by_owner) override;
  void FlushAtEnd(Timestamp next_time) override;
  void SaveDerived(BinaryWriter* writer) const override;
  bool RestoreDerived(BinaryReader* reader, Timestamp next_time) override;

 private:
  /// A closed maximal bit string of one co-traveller.
  struct Candidate {
    TrajectoryId id = 0;
    BitString bits;  ///< trimmed: ends with its last one
    Timestamp end_time() const {
      return bits.start_time() + bits.length() - 1;
    }
  };

  /// An open variable-length string. `bits` is kept trimmed (it always
  /// ends with a one); `zero_run` counts the zeros accumulated since -
  /// the Lemma 7 closure test is `zero_run > G`, and the zeros are only
  /// written into `bits` if the trajectory reappears first.
  struct OpenString {
    TrajectoryId id = 0;
    BitString bits;
    std::int32_t zero_run = 0;
  };

  struct OwnerState {
    /// Open strings sorted by trajectory id (the hashmap H of
    /// Algorithm 5, laid out as a merge-friendly column).
    std::vector<OpenString> open;
    /// Closed candidate strings in closure order (the candidate list C).
    std::vector<Candidate> candidates;
  };

  /// Handles a string that just accumulated G+1 trailing zeros (or stream
  /// end): if its (already trimmed) form qualifies, enumerates patterns
  /// against the candidate list and appends it (Lemma 7 closure).
  void CloseString(TrajectoryId owner, OwnerState* state, TrajectoryId id,
                   BitString bits);

  std::unordered_map<TrajectoryId, OwnerState> owners_;
  /// Start times of all open strings across owners, for FinalizedThrough.
  std::multiset<Timestamp> open_starts_;
  std::size_t candidate_count_ = 0;
  EnumerationScratch scratch_;
  EnumerationStats stats_;
  std::vector<CandidateView> views_;     ///< reused per closure
  std::vector<OpenString> merged_open_;  ///< reused merge scratch
};

}  // namespace comove::pattern

#endif  // COMOVE_PATTERN_VARIABLE_BIT_ENUMERATOR_H_
