#ifndef COMOVE_PATTERN_STREAMING_ENUMERATOR_H_
#define COMOVE_PATTERN_STREAMING_ENUMERATOR_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/constraints.h"
#include "common/serde.h"
#include "pattern/enumerator.h"
#include "pattern/partition.h"

/// \file
/// Shared streaming machinery of BA/FBA/VBA: ascending-time enforcement,
/// synthesis of empty ticks for skipped times, and the partition-level
/// entry point the distributed engine uses (each enumeration subtask only
/// receives the partitions of the owners routed to it).

namespace comove::pattern {

/// Enumeration-stage counters over one enumerator's lifetime, surfaced
/// through IcpeResult / --stats. "Strings" are per-(owner, trajectory)
/// bit strings: FBA counts one open per presence ring created (the
/// trajectory enters the owner's buffered window) and one close per ring
/// retired (it has left every buffered tick); VBA counts its
/// variable-length open strings. Apriori counters tally enumeration tree
/// nodes expanded versus cut by the running-popcount / (K, L, G) prune.
struct EnumerationStats {
  std::int64_t strings_opened = 0;
  std::int64_t strings_closed = 0;
  std::int64_t candidates_peak = 0;  ///< max live strings (FBA: rings)
  std::int64_t apriori_nodes = 0;
  std::int64_t apriori_pruned = 0;
};

/// Base class of BA/FBA/VBA implementing the time bookkeeping; subclasses
/// implement ProcessTime (called once per tick, in order, with the tick's
/// partitions grouped by owner - possibly empty). Single-threaded: the
/// engine runs one instance per query and enumerate subtask (per id-hash
/// slice).
class StreamingEnumerator {
 public:
  using PartitionsByOwner = std::unordered_map<TrajectoryId, Partition>;

  StreamingEnumerator(const PatternConstraints& constraints,
                      PatternSink sink);
  virtual ~StreamingEnumerator() = default;

  /// Convenience entry: partitions the snapshot (Lemma 3 applied) and
  /// processes all owners. Calls must be in strictly ascending time
  /// order; skipped times are treated as empty snapshots. The engine uses
  /// OnPartitions instead.
  void OnClusterSnapshot(const ClusterSnapshot& snapshot);

  /// Feeds the partitions of one tick. `time` must be strictly greater
  /// than any previously fed tick; skipped times are synthesized as empty.
  void OnPartitions(Timestamp time, std::vector<Partition> partitions);

  /// Declares that every tick up to and including `time` is final without
  /// feeding data (watermark progress); empty ticks are synthesized.
  void AdvanceTime(Timestamp time);

  /// Signals end of stream; flushes every still-open verification.
  void Finish();

  /// Serialises the complete operator state (constraints fingerprint,
  /// time cursor, algorithm-specific state) into a checkpoint - the
  /// Flink-style durability hook. Restore into a fresh instance that was
  /// constructed with the SAME constraints; continuing the stream from
  /// the checkpointed position then yields byte-identical results.
  void SaveState(BinaryWriter* writer) const;

  /// Restores a checkpoint written by SaveState. Returns false (leaving
  /// the enumerator unusable) on corrupt data or a constraints mismatch.
  [[nodiscard]] bool RestoreState(BinaryReader* reader);

  /// The largest snapshot time whose pattern decisions are all final
  /// (§6.3's latency notion): BA/FBA finalise time t once the eta-window
  /// anchored at t has run; VBA finalises t only when no open bit string
  /// covering t remains. kNoTime when nothing is finalised yet.
  virtual Timestamp FinalizedThrough() const = 0;

  /// Lifetime enumeration counters (zeroes unless the subclass tracks
  /// them). Read after Finish(); not synchronised.
  virtual EnumerationStats enumeration_stats() const { return {}; }

  const PatternConstraints& constraints() const { return constraints_; }

  /// The most recent tick processed, or kNoTime before the first.
  Timestamp last_fed() const {
    return next_time_ == kNoTime ? kNoTime : next_time_ - 1;
  }

 protected:
  /// One tick of processing; `by_owner` may be empty.
  virtual void ProcessTime(Timestamp time, PartitionsByOwner&& by_owner) = 0;

  /// End-of-stream flush; the base guarantees ticks were contiguous.
  /// `next_time` is the first unprocessed tick (kNoTime if none was fed).
  virtual void FlushAtEnd(Timestamp next_time) = 0;

  /// Algorithm-specific checkpoint payload. `next_time` is the restored
  /// cursor (the first unprocessed tick, kNoTime if none was fed), so the
  /// payload can be checked against it.
  virtual void SaveDerived(BinaryWriter* writer) const = 0;
  virtual bool RestoreDerived(BinaryReader* reader, Timestamp next_time) = 0;

  const PatternSink& sink() const { return sink_; }

 private:
  void CatchUpTo(Timestamp time);

  PatternConstraints constraints_;
  PatternSink sink_;
  Timestamp next_time_ = kNoTime;
  bool finished_ = false;
};

}  // namespace comove::pattern

#endif  // COMOVE_PATTERN_STREAMING_ENUMERATOR_H_
