#ifndef COMOVE_FLOW_CHECKPOINT_COORDINATOR_H_
#define COMOVE_FLOW_CHECKPOINT_COORDINATOR_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "flow/checkpoint/snapshot_store.h"
#include "flow/stage_stats.h"
#include "flow/trace.h"

/// \file
/// Checkpoint completion tracking. Every operator subtask, upon absorbing
/// (and aligning) barrier n, snapshots its state and acks it here; when
/// the configured number of acks for n has arrived - i.e. every subtask
/// in the pipeline snapshotted at the same consistent cut - the bundle is
/// complete, and the coordinator's one committer thread persists it to
/// the SnapshotStore, after which checkpoint n is the recovery point. A
/// crash before the final ack simply leaves n incomplete; recovery falls
/// back to the newest persisted checkpoint.
///
/// The coordinator is also the commit half of a two-phase-commit sink:
/// the staged output a bundle carries (its kEpochOp states) is handed to
/// the commit callback once, on the committer, right after the bundle
/// persisted. A failed write carries its epochs into the next bundle, and
/// a run that ends with epochs still carried commits them through
/// CommitCarried, so nothing staged is lost or committed twice.
///
/// The acking threads never wait for the store: the final ack files its
/// bundle and returns. At most one complete bundle waits behind the write
/// in progress; an ack that completes another blocks until the committer
/// takes the waiting one, so the coordinator holds at most two.

namespace comove::flow {

/// Collects per-operator state acks and persists completed checkpoints.
/// Thread-safe: subtasks ack concurrently from their worker threads.
class CheckpointCoordinator {
 public:
  /// Receives a persisted bundle's epoch states (carried ones first), on
  /// the committer thread. Bundles commit one at a time, in checkpoint
  /// order.
  using CommitFn =
      std::function<void(const std::vector<OperatorState>& epochs)>;

  /// `expected_acks` is the total ack count of one checkpoint across all
  /// stages (every subtask acks every checkpoint, stateless ones with
  /// empty bytes). `fingerprint` stamps each bundle with the pipeline
  /// shape so restores into a different topology are rejected. `stats`,
  /// when set, receives persisted bytes and the last completed id (the
  /// "checkpoint" row of the stage table). `last_completed` and
  /// `last_crc` name the restored bundle after recovery: the id sequence
  /// and the chain continue from it. `tr`, when set, receives one
  /// `checkpoint`/`persist` span per bundle (aux = its id), covering its
  /// write and its commit, on a lane of its own (subtask -1). Starts the
  /// committer thread.
  CheckpointCoordinator(std::int32_t expected_acks, SnapshotStore* store,
                        std::string fingerprint,
                        StageStats* stats = nullptr,
                        std::int64_t last_completed = 0,
                        std::uint32_t last_crc = 0, CommitFn commit = {},
                        TraceRecorder* tr = nullptr);

  /// Stops the committer (Stop).
  ~CheckpointCoordinator();

  CheckpointCoordinator(const CheckpointCoordinator&) = delete;
  CheckpointCoordinator& operator=(const CheckpointCoordinator&) = delete;

  /// Records (`op`, `subtask`)'s state for checkpoint `checkpoint_id`.
  /// The final ack files the bundle for the committer and returns; it
  /// blocks only while another complete bundle already waits.
  void Ack(std::int64_t checkpoint_id, std::string op,
           std::int32_t subtask, std::string state);

  /// Waits until every bundle filed so far is persisted (or failed) and
  /// committed.
  void Drain();

  /// Drains, then joins the committer. Call once no subtask acks any
  /// more, before reading the counts of a finished run; idempotent.
  void Stop();

  /// Commits the epochs of failed writes that no later bundle persisted
  /// (the last write failed, or the store stayed down to the end). Call
  /// after Stop, on a run that did not crash: its epochs are final though
  /// never persisted. A crashed run must not call it; its recovery
  /// regenerates those epochs instead.
  void CommitCarried();

  /// Newest checkpoint whose bundle was successfully persisted.
  std::int64_t last_completed() const;
  std::int64_t completed_count() const;
  /// Checkpoints whose store write failed (aborted, never recoverable).
  std::int64_t failed_count() const;

 private:
  /// The committer thread: persists and commits filed bundles in order.
  void RunCommitter();
  /// Writes `bundle` behind the chain head and commits its epochs, or
  /// carries them when the write fails.
  void Persist(CheckpointBundle bundle);

  const std::int32_t expected_acks_;
  SnapshotStore* const store_;
  const std::string fingerprint_;
  StageStats* const stats_;
  const CommitFn commit_;
  TraceRecorder* const tr_;

  mutable std::mutex mu_;
  /// Signals a filed bundle, a freed slot, a finished write and Stop.
  std::condition_variable cv_;
  std::map<std::int64_t, CheckpointBundle> pending_;
  /// The one complete bundle waiting for the committer. Every subtask
  /// acks n before n + 1, so bundles complete in id order.
  std::optional<CheckpointBundle> waiting_;
  bool writing_ = false;
  bool stopping_ = false;
  std::int64_t last_completed_;
  std::int64_t completed_count_ = 0;
  std::int64_t failed_count_ = 0;

  /// The committer's own: the chain head and the epochs carried past
  /// failed writes. While the store stays down, the carried epochs grow
  /// with the stream.
  std::int64_t chain_id_;
  std::uint32_t chain_crc_;
  std::vector<OperatorState> carried_;

  /// Declared last: it starts once every member above exists.
  std::thread committer_;
};

}  // namespace comove::flow

#endif  // COMOVE_FLOW_CHECKPOINT_COORDINATOR_H_
