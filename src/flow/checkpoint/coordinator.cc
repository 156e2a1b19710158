#include "flow/checkpoint/coordinator.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "common/check.h"

namespace comove::flow {

CheckpointCoordinator::CheckpointCoordinator(std::int32_t expected_acks,
                                             SnapshotStore* store,
                                             std::string fingerprint,
                                             StageStats* stats,
                                             std::int64_t last_completed,
                                             std::uint32_t last_crc,
                                             CommitFn commit)
    : expected_acks_(expected_acks),
      store_(store),
      fingerprint_(std::move(fingerprint)),
      stats_(stats),
      commit_(std::move(commit)),
      last_completed_(last_completed),
      chain_id_(last_completed),
      chain_crc_(last_crc) {
  COMOVE_CHECK(expected_acks > 0);
  COMOVE_CHECK(store != nullptr);
}

void CheckpointCoordinator::Ack(std::int64_t checkpoint_id, std::string op,
                                std::int32_t subtask, std::string state) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    CheckpointBundle& bundle = pending_[checkpoint_id];
    bundle.id = checkpoint_id;
    bundle.fingerprint = fingerprint_;
    bundle.states.push_back(
        OperatorState{std::move(op), subtask, std::move(state)});
    COMOVE_CHECK_MSG(
        bundle.states.size() <= static_cast<std::size_t>(expected_acks_),
        "checkpoint %lld over-acked", static_cast<long long>(checkpoint_id));
    if (bundle.states.size() < static_cast<std::size_t>(expected_acks_)) {
      return;
    }
    ready_.emplace(checkpoint_id, std::move(bundle));
    pending_.erase(checkpoint_id);
  }
  Persist();
}

void CheckpointCoordinator::Persist() {
  // Every subtask acks n before n + 1, so bundles complete in id order;
  // whichever completing thread takes the write lock first drains them
  // all, oldest first.
  std::lock_guard<std::mutex> write_lock(write_mu_);
  while (true) {
    CheckpointBundle bundle;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (ready_.empty()) return;
      bundle = std::move(ready_.begin()->second);
      ready_.erase(ready_.begin());
    }
    bundle.prev_id = chain_id_;
    bundle.prev_crc = chain_crc_;
    // Epochs of a failed write go first: a subtask's epochs stay in
    // ascending order within the bundle.
    bundle.states.insert(bundle.states.begin(),
                         std::make_move_iterator(carried_.begin()),
                         std::make_move_iterator(carried_.end()));
    carried_.clear();
    std::int64_t bytes = 0;
    for (const OperatorState& s : bundle.states) {
      bytes += static_cast<std::int64_t>(s.bytes.size());
    }
    const std::optional<std::uint32_t> crc = store_->Write(bundle);
    std::vector<OperatorState> epochs;
    for (OperatorState& s : bundle.states) {
      if (s.op == kEpochOp) epochs.push_back(std::move(s));
    }
    if (!crc) {
      carried_ = std::move(epochs);
      std::lock_guard<std::mutex> lock(mu_);
      ++failed_count_;
      continue;
    }
    chain_id_ = bundle.id;
    chain_crc_ = *crc;
    bundle.states.clear();  // release the operator states before the commit
    if (commit_ && !epochs.empty()) commit_(epochs);
    std::lock_guard<std::mutex> lock(mu_);
    ++completed_count_;
    last_completed_ = std::max(last_completed_, bundle.id);
    if (stats_ != nullptr) stats_->OnSnapshot(bytes, bundle.id);
  }
}

void CheckpointCoordinator::CommitCarried() {
  std::lock_guard<std::mutex> write_lock(write_mu_);
  if (commit_ && !carried_.empty()) commit_(carried_);
  carried_.clear();
}

std::int64_t CheckpointCoordinator::last_completed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_completed_;
}

std::int64_t CheckpointCoordinator::completed_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return completed_count_;
}

std::int64_t CheckpointCoordinator::failed_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failed_count_;
}

}  // namespace comove::flow
