#ifndef COMOVE_PATTERN_FIXED_BIT_ENUMERATOR_H_
#define COMOVE_PATTERN_FIXED_BIT_ENUMERATOR_H_

#include <cstddef>
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
/// of anchor members present at K or more buffered ticks. An owner's rings
/// live inline in one flat open-addressing table, so a ring touch is one
/// probe into one array and opening a ring allocates nothing.
///
/// An owner keeps only its non-empty ticks, and eta due lists (indexed
/// like the rings, by anchor time mod eta) name the owners whose oldest
/// non-empty tick anchors the window that completes now. A tick touches
/// only the owners with a partition at it and the owners on its due list:
/// a window anchored at an empty tick has no anchor members, so it would
/// emit nothing and clear no ring.

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
  bool RestoreDerived(BinaryReader* reader, Timestamp next_time) override;

 private:
  /// One owner's presence rings in a flat open-addressing table. A slot
  /// is `stride` words: the trajectory id, the ring's count of set bits
  /// (buffered ticks holding the id; 0 marks an empty slot), and the
  /// WordCountFor(eta) ring words, bit (t mod eta) recording membership
  /// at time t. Probing is linear from a Fibonacci hash of the id; erase
  /// shifts the rest of the probe run back, so there are no tombstones.
  /// The capacity is a power of two that doubles past 3/4 load and halves
  /// below 1/8, so ring memory follows the live rings. Derived from
  /// `ticks` (rebuilt on restore, never checkpointed itself).
  class RingTable {
   public:
    explicit RingTable(std::size_t ring_words);

    std::size_t size() const { return size_; }

    /// Sets bit `bit` of `id`'s ring, opening a zero ring for an id the
    /// table lacks; true when it opened one.
    bool Set(TrajectoryId id, std::int32_t bit);

    /// The slot holding `id`, else the empty slot (count() 0) that ends
    /// its probe run.
    std::size_t Find(TrajectoryId id) const;

    std::uint64_t count(std::size_t slot) const { return At(slot)[1]; }
    const std::uint64_t* ring(std::size_t slot) const {
      return At(slot) + 2;
    }

    /// Clears bit `bit` of the ring in `slot` (which must be set) and
    /// erases the ring once its count reaches 0; true when it did. Slot
    /// indices are stale after an erase.
    bool Clear(std::size_t slot, std::int32_t bit);

   private:
    std::uint64_t* At(std::size_t slot) { return &slots_[slot * stride_]; }
    const std::uint64_t* At(std::size_t slot) const {
      return &slots_[slot * stride_];
    }
    std::size_t Home(std::uint64_t id) const;
    void Erase(std::size_t hole);
    void Rehash(std::size_t capacity);

    std::size_t stride_;
    std::size_t capacity_ = 0;
    std::size_t size_ = 0;
    int shift_ = 0;  ///< 64 - log2(capacity_): Home keeps the top bits
    std::vector<std::uint64_t> slots_;
  };

  /// One non-empty tick of an owner: its time and its partition members.
  struct Tick {
    Timestamp time = 0;
    std::vector<TrajectoryId> members;
  };

  struct OwnerState {
    explicit OwnerState(std::size_t ring_words) : rings(ring_words) {}

    /// The owner's non-empty ticks among the last eta - 1 times, oldest
    /// first; the owner goes when its last tick leaves the window.
    std::deque<Tick> ticks;
    /// The first tick of the owner's current stay, where its saved dense
    /// history starts unless the window has slid past it.
    Timestamp stay_start = 0;
    /// One ring per trajectory present in some buffered tick; a ring goes
    /// when its count reaches 0.
    RingTable rings;
  };
  using OwnerMap = std::unordered_map<TrajectoryId, OwnerState>;
  /// Map nodes are stable across rehashes, so due lists hold pointers.
  using OwnerEntry = OwnerMap::value_type;

  /// The ring bit of time `t`.
  std::int32_t Slot(Timestamp t) const {
    const std::int32_t r = t % eta_;
    return r < 0 ? r + eta_ : r;
  }

  /// The due list of the windows anchored at `anchor`'s slot.
  std::vector<OwnerEntry*>& DueAt(Timestamp anchor) {
    return due_[static_cast<std::size_t>(Slot(anchor))];
  }

  /// Sets the freshly pushed tick's (ticks.back()) bit in each of its
  /// members' rings, opening rings for members new to the window.
  void AddTick(OwnerState* state);

  /// Runs the Algorithm 4 batch for the window anchored at the owner's
  /// oldest tick, whose window is complete, then slides past that tick:
  /// its bits are cleared, emptied rings retire, and the tick is popped.
  void RunWindowAndSlide(TrajectoryId owner, OwnerState* state);

  std::int32_t eta_;
  std::size_t ring_words_;  ///< WordCountFor(eta_)
  OwnerMap owners_;
  /// due_[Slot(a)]: the owners whose oldest tick is a, i.e. whose next
  /// window is anchored at a and completes at tick a + eta - 1.
  std::vector<std::vector<OwnerEntry*>> due_;
  EnumerationScratch scratch_;
  EnumerationStats stats_;
  std::int64_t live_rings_ = 0;
  std::vector<CandidateView> views_;     ///< reused per window
  std::vector<BitString> window_bits_;   ///< candidate strings, per window
  std::vector<std::uint64_t> rotated_;   ///< one ring in time order
};

}  // namespace comove::pattern

#endif  // COMOVE_PATTERN_FIXED_BIT_ENUMERATOR_H_
