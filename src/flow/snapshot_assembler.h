#ifndef COMOVE_FLOW_SNAPSHOT_ASSEMBLER_H_
#define COMOVE_FLOW_SNAPSHOT_ASSEMBLER_H_

#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/serde.h"
#include "common/types.h"

/// \file
/// Transforms an out-of-order stream of GPS records into complete,
/// time-ordered snapshots using the paper's "last time" synchronisation
/// (§4): every record carries the time of its trajectory's previous report,
/// which proves whether the system must keep waiting for a missing
/// intermediate report.
///
/// Example from the paper: for trajectory records r1, r3 with r3.last = 2,
/// snapshot 2 must wait (a report at time 2 exists but has not arrived);
/// after r1, r2, r3, r5 with r5.last = 3, snapshot 4 need not wait (r5
/// proves no report at time 4 exists).

namespace comove::flow {

/// Event-driven assembler. Feed events; each call returns the snapshots
/// that became provably complete, in ascending time order. Records of one
/// trajectory may arrive out of order (they are chained back together via
/// last_time); trajectory *births* are bounded by AdvanceBirthBound, which
/// asserts that no trajectory will report its first record at a time <= t
/// anymore (the source derives this from its watermark).
class SnapshotAssembler {
 public:
  SnapshotAssembler() = default;

  /// Ingests one GPS record. Out-of-chain records are buffered until the
  /// missing predecessors arrive.
  std::vector<Snapshot> OnRecord(const GpsRecord& record);

  /// Declares that trajectory `id` has ended (no further reports).
  std::vector<Snapshot> OnTrajectoryEnd(TrajectoryId id);

  /// Asserts that no new trajectory will start at time <= t.
  std::vector<Snapshot> AdvanceBirthBound(Timestamp t);

  /// Stream end: applies any still-buffered records in time order
  /// (best-effort recovery from broken chains) and flushes all remaining
  /// snapshots.
  std::vector<Snapshot> Finish();

  /// Largest snapshot time emitted so far, or kNoTime.
  Timestamp emitted_through() const { return emitted_through_; }

  /// True when this is the state time-ordered input leaves at the
  /// boundary to time `t`: the birth bound is t - 1 and no applied,
  /// buffered or accumulating record is at or past t. A checkpoint cut of
  /// ordered replay is such a boundary.
  bool SitsAtBoundary(Timestamp t) const;

  /// Serialises the assembler's full state (per-trajectory frontiers,
  /// buffered out-of-order records, accumulating snapshots) into a
  /// checkpoint, trajectories in id order so equal states save equal
  /// bytes; RestoreState rebuilds an equivalent assembler that continues
  /// the stream identically. RestoreState accepts trajectories in any
  /// order and returns false on corrupt data or on a state no stream can
  /// reach: a finished assembler, a repeated trajectory or snapshot time,
  /// an ended trajectory still waiting on a record, a buffered record not
  /// newer than its trajectory's frontier or of another trajectory, or an
  /// accumulating snapshot that was already emitted.
  void SaveState(BinaryWriter* writer) const;
  [[nodiscard]] bool RestoreState(BinaryReader* reader);

  /// Number of records buffered waiting for their predecessor.
  std::size_t pending_records() const { return pending_count_; }

 private:
  struct TrajectoryState {
    Timestamp last_seen = kNoTime;  ///< time of latest applied record
    bool ended = false;
    /// Out-of-order records keyed by their last_time link.
    std::map<Timestamp, GpsRecord> pending;
  };

  /// Applies `record` to the snapshot accumulator (chain already checked).
  void Apply(const GpsRecord& record, TrajectoryState* state);

  /// Emits every snapshot with time <= the current provable horizon.
  std::vector<Snapshot> Drain();

  Timestamp Horizon() const;

  std::unordered_map<TrajectoryId, TrajectoryState> trajectories_;
  /// Multiset of last_seen horizons of live (seen, not ended) trajectories.
  std::multiset<Timestamp> live_horizons_;
  /// Accumulating snapshots keyed by time.
  std::map<Timestamp, std::vector<SnapshotEntry>> accumulating_;
  Timestamp birth_bound_ = kNoTime;
  Timestamp emitted_through_ = kNoTime;
  std::size_t pending_count_ = 0;
  bool finished_ = false;
};

}  // namespace comove::flow

#endif  // COMOVE_FLOW_SNAPSHOT_ASSEMBLER_H_
