#ifndef COMOVE_FLOW_CHECKPOINT_COORDINATOR_H_
#define COMOVE_FLOW_CHECKPOINT_COORDINATOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "flow/checkpoint/snapshot_store.h"
#include "flow/stage_stats.h"

/// \file
/// Checkpoint completion tracking. Every operator subtask, upon absorbing
/// (and aligning) barrier n, snapshots its state and acks it here; when
/// the configured number of acks for n has arrived - i.e. every subtask
/// in the pipeline snapshotted at the same consistent cut - the bundle is
/// persisted to the SnapshotStore and checkpoint n becomes the recovery
/// point. A crash before the final ack simply leaves n incomplete;
/// recovery falls back to the newest persisted checkpoint.
///
/// The coordinator is also the commit half of a two-phase-commit sink:
/// the staged output a bundle carries (its kEpochOp states) is handed to
/// the commit callback once, right after the bundle persisted. A failed
/// write carries its epochs into the next bundle, and a run that ends
/// with epochs still carried commits them through CommitCarried, so
/// nothing staged is lost or committed twice.

namespace comove::flow {

/// Collects per-operator state acks and persists completed checkpoints.
/// Thread-safe: subtasks ack concurrently from their worker threads.
class CheckpointCoordinator {
 public:
  /// Receives a persisted bundle's epoch states (carried ones first).
  /// Bundles commit one at a time, in checkpoint order.
  using CommitFn =
      std::function<void(const std::vector<OperatorState>& epochs)>;

  /// `expected_acks` is the total ack count of one checkpoint across all
  /// stages (every subtask acks every checkpoint, stateless ones with
  /// empty bytes). `fingerprint` stamps each bundle with the pipeline
  /// shape so restores into a different topology are rejected. `stats`,
  /// when set, receives persisted bytes and the last completed id (the
  /// "checkpoint" row of the stage table). `last_completed` and
  /// `last_crc` name the restored bundle after recovery: the id sequence
  /// and the chain continue from it.
  CheckpointCoordinator(std::int32_t expected_acks, SnapshotStore* store,
                        std::string fingerprint,
                        StageStats* stats = nullptr,
                        std::int64_t last_completed = 0,
                        std::uint32_t last_crc = 0, CommitFn commit = {});

  /// Records (`op`, `subtask`)'s state for checkpoint `checkpoint_id`;
  /// the final ack triggers the store write and the commit.
  void Ack(std::int64_t checkpoint_id, std::string op,
           std::int32_t subtask, std::string state);

  /// Commits the epochs of failed writes that no later bundle persisted
  /// (the last write failed, or the store stayed down to the end). Call
  /// once every subtask has stopped, on a run that did not crash: its
  /// epochs are final though never persisted. A crashed run must not
  /// call it; its recovery regenerates those epochs instead.
  void CommitCarried();

  /// Newest checkpoint whose bundle was successfully persisted.
  std::int64_t last_completed() const;
  std::int64_t completed_count() const;
  /// Checkpoints whose store write failed (aborted, never recoverable).
  std::int64_t failed_count() const;

 private:
  /// Writes and commits every completed bundle, oldest first.
  void Persist();

  const std::int32_t expected_acks_;
  SnapshotStore* const store_;
  const std::string fingerprint_;
  StageStats* const stats_;
  const CommitFn commit_;

  mutable std::mutex mu_;
  std::map<std::int64_t, CheckpointBundle> pending_;
  /// Complete bundles waiting for Persist; they complete in id order.
  std::map<std::int64_t, CheckpointBundle> ready_;
  std::int64_t last_completed_;
  std::int64_t completed_count_ = 0;
  std::int64_t failed_count_ = 0;

  /// Held across a write and its commit, so bundles persist and commit
  /// in checkpoint order; guards the chain head and the carried epochs.
  /// While the store stays down, the carried epochs grow with the stream.
  std::mutex write_mu_;
  std::int64_t chain_id_;
  std::uint32_t chain_crc_;
  std::vector<OperatorState> carried_;
};

}  // namespace comove::flow

#endif  // COMOVE_FLOW_CHECKPOINT_COORDINATOR_H_
