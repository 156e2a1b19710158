#include "flow/checkpoint/coordinator.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "common/check.h"

namespace comove::flow {
namespace {

/// The trace lane (subtask) of the committer's spans, apart from every
/// subtask's ack spans on the `checkpoint` stage.
constexpr std::int32_t kCommitterLane = -1;

}  // namespace

CheckpointCoordinator::CheckpointCoordinator(std::int32_t expected_acks,
                                             SnapshotStore* store,
                                             std::string fingerprint,
                                             StageStats* stats,
                                             std::int64_t last_completed,
                                             std::uint32_t last_crc,
                                             CommitFn commit,
                                             TraceRecorder* tr)
    : expected_acks_(expected_acks),
      store_(store),
      fingerprint_(std::move(fingerprint)),
      stats_(stats),
      commit_(std::move(commit)),
      tr_(tr),
      last_completed_(last_completed),
      chain_id_(last_completed),
      chain_crc_(last_crc) {
  COMOVE_CHECK(expected_acks > 0);
  COMOVE_CHECK(store != nullptr);
  committer_ = std::thread([this] { RunCommitter(); });
}

CheckpointCoordinator::~CheckpointCoordinator() { Stop(); }

void CheckpointCoordinator::Ack(std::int64_t checkpoint_id, std::string op,
                                std::int32_t subtask, std::string state) {
  {
    std::unique_lock<std::mutex> lock(mu_);
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
    // No other bundle can complete meanwhile: this thread has not acked
    // the next checkpoint yet.
    cv_.wait(lock, [this] { return !waiting_.has_value(); });
    waiting_ = std::move(bundle);
    pending_.erase(checkpoint_id);
  }
  cv_.notify_all();
}

void CheckpointCoordinator::RunCommitter() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    cv_.wait(lock, [this] { return waiting_.has_value() || stopping_; });
    if (!waiting_) return;  // stopping, and nothing left to persist
    CheckpointBundle bundle = std::move(*waiting_);
    waiting_.reset();
    writing_ = true;
    lock.unlock();
    cv_.notify_all();  // the slot is free for the next bundle
    Persist(std::move(bundle));
    lock.lock();
    writing_ = false;
    cv_.notify_all();  // for Drain
  }
}

void CheckpointCoordinator::Persist(CheckpointBundle bundle) {
  const std::uint64_t t0 = tr_ != nullptr ? tr_->NowNs() : 0;
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
  bundle.states.clear();  // release the operator states before the commit
  if (!crc) {
    carried_ = std::move(epochs);
    std::lock_guard<std::mutex> lock(mu_);
    ++failed_count_;
  } else {
    chain_id_ = bundle.id;
    chain_crc_ = *crc;
    if (commit_ && !epochs.empty()) commit_(epochs);
    std::lock_guard<std::mutex> lock(mu_);
    ++completed_count_;
    last_completed_ = std::max(last_completed_, bundle.id);
    if (stats_ != nullptr) stats_->OnSnapshot(bytes, bundle.id);
  }
  if (tr_ != nullptr) {
    tr_->RecordSpanSince("checkpoint", "persist", kCommitterLane, kNoTime,
                         t0, bundle.id);
  }
}

void CheckpointCoordinator::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return !waiting_.has_value() && !writing_; });
}

void CheckpointCoordinator::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  if (committer_.joinable()) committer_.join();
}

void CheckpointCoordinator::CommitCarried() {
  COMOVE_CHECK_MSG(!committer_.joinable(),
                   "CommitCarried while the committer runs");
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
