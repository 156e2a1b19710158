#ifndef COMOVE_PATTERN_FIXED_BIT_ENUMERATOR_H_
#define COMOVE_PATTERN_FIXED_BIT_ENUMERATOR_H_

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "common/arena.h"
#include "pattern/bitstring.h"
#include "pattern/streaming_enumerator.h"

/// \file
/// FBA - Fixed Length Bit Compression based Algorithm (Algorithm 4).
/// Every trajectory of a partition P_t(o) is compressed to an eta-bit
/// string (storage O(eta x |P|) instead of O(2^|P|)); a candidate set C
/// keeps only trajectories whose individual strings can still satisfy
/// (K, L, G); and patterns are enumerated apriori-style starting directly
/// at cardinality M-1, extending only valid patterns (cost
/// O(|R| x |C| + C(|C|, M-1)) instead of O(2^|P|)).
///
/// Streaming-wise FBA buffers eta snapshots: the verification of patterns
/// anchored at time t runs once the snapshot t + eta - 1 has arrived.
/// Each (owner, trajectory) pair present in the buffered window keeps a
/// presence ring - eta bits indexed by time mod eta, plus their count - so
/// a tick costs one bit set per member of the entering tick and one bit
/// clear per member of the leaving tick, however many strings are live,
/// and a window materialises (by one word-level rotation) only the strings
/// of anchor members present at K or more buffered ticks.

namespace comove::pattern {

/// A borrowed candidate bit string for the shared apriori enumeration.
/// The caller keeps the referenced BitString alive for the call.
struct CandidateView {
  TrajectoryId id = 0;
  const BitString* bits = nullptr;
};

/// Reusable scratch for EnumerateFromCandidates: one arena holding the
/// frame-aligned candidate words and the per-level partial-AND stack, plus
/// lifetime counters feeding the enumeration stats. Owned by one
/// enumerator instance (single worker thread), rewound per call.
struct EnumerationScratch {
  Arena arena;
  std::vector<Timestamp> one_times;  ///< reused by pattern emission
  std::int64_t nodes_visited = 0;    ///< apriori tree nodes expanded
  std::int64_t nodes_pruned = 0;     ///< cut by popcount or (K,L,G) check
};

/// The candidate-based apriori enumeration shared by FBA and VBA: given
/// per-candidate bit strings (aligned or alignable by absolute time),
/// emits every object set O (|O| >= M-1, drawn from `candidates`) whose
/// combined string satisfies (K, L, G). With `first_mandatory` every
/// emitted set contains candidates[0] - VBA uses it to enumerate only
/// patterns involving the newly closed string. The owner id is appended
/// to every emitted set.
///
/// Allocation-free: candidates are zero-extended into a shared time frame
/// inside the scratch arena, and each recursion level ANDs into its own
/// arena slot with a running popcount - no BitString is constructed per
/// node. Zero-extension is exact: bits outside a candidate's own window
/// are zero, so the plain word AND over the frame carries the same ones as
/// AndAligned over the shrinking intersection, and counts, (K,L,G)
/// verdicts, and witness times are identical.
void EnumerateFromCandidates(const CandidateView* candidates,
                             std::size_t count, TrajectoryId owner,
                             const PatternConstraints& constraints,
                             bool first_mandatory, const PatternSink& sink,
                             EnumerationScratch* scratch);

/// Streaming FBA enumerator covering all owners routed to this instance.
class FixedBitEnumerator : public StreamingEnumerator {
 public:
  FixedBitEnumerator(const PatternConstraints& constraints,
                     PatternSink sink);

  /// Time t is decided once the window anchored at t has run, which
  /// happens when tick t + eta - 1 is fed.
  Timestamp FinalizedThrough() const override {
    return last_fed() == kNoTime ? kNoTime : last_fed() - (eta_ - 1);
  }

  EnumerationStats enumeration_stats() const override;

 protected:
  void ProcessTime(Timestamp time, PartitionsByOwner&& by_owner) override;
  void FlushAtEnd(Timestamp next_time) override;
  void SaveDerived(BinaryWriter* writer) const override;
  bool RestoreDerived(BinaryReader* reader) override;

 private:
  /// Presence of one trajectory in an owner's buffered window: bit
  /// (t mod eta) records membership at time t, for the eta times the
  /// history can hold. Derived from `history` (rebuilt on restore, never
  /// checkpointed itself).
  struct Ring {
    BitString bits;
    std::int32_t count = 0;  ///< set bits: buffered ticks holding the id
  };

  struct OwnerState {
    /// Member lists of the owner's partitions for the last eta times;
    /// history.front() corresponds to `history_start`.
    std::deque<std::vector<TrajectoryId>> history;
    Timestamp history_start = 0;
    /// One ring per trajectory present in some buffered tick; a ring goes
    /// when its count reaches 0, the owner when its last ring does.
    std::unordered_map<TrajectoryId, Ring> rings;
  };

  /// The ring bit of time `t`.
  std::int32_t Slot(Timestamp t) const {
    const std::int32_t r = t % eta_;
    return r < 0 ? r + eta_ : r;
  }

  /// Sets the freshly pushed tick's (history.back()) bit in each of its
  /// members' rings, opening rings for members new to the window.
  void AddTick(OwnerState* state);

  /// Runs the Algorithm 4 batch for the window anchored at the front of
  /// `state`'s history (which must be eta entries deep), then slides the
  /// window by one: the front tick's bits are cleared, emptied rings
  /// retire, and the front tick is popped.
  void RunWindowAndSlide(TrajectoryId owner, OwnerState* state);

  std::int32_t eta_;
  std::unordered_map<TrajectoryId, OwnerState> owners_;
  EnumerationScratch scratch_;
  EnumerationStats stats_;
  std::int64_t live_rings_ = 0;
  std::vector<CandidateView> views_;     ///< reused per window
  std::vector<BitString> window_bits_;   ///< candidate strings, per window
};

}  // namespace comove::pattern

#endif  // COMOVE_PATTERN_FIXED_BIT_ENUMERATOR_H_
