#ifndef COMOVE_FLOW_CHANNEL_H_
#define COMOVE_FLOW_CHANNEL_H_

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <vector>

#include "common/check.h"
#include "flow/stage_stats.h"

/// \file
/// A bounded multi-producer multi-consumer channel: the pipelined transfer
/// primitive of the stream engine. Bounded capacity gives backpressure
/// exactly as Flink's pipelined network buffers do - a slow consumer stalls
/// its producers instead of buffering unboundedly.
///
/// Push and Pop move one element per lock round-trip: every element the
/// engine moves is already coarse - a whole snapshot, or one subtask's
/// share of a snapshot's partitions. PopBatch lets a consumer take
/// everything already queued under one lock (the enumerate subtasks
/// drain this way; DESIGN.md §5.1 has the measurement).

namespace comove::flow {

/// Outcome of a non-blocking poll, distinguishing a momentarily empty
/// queue (the stream may continue) from a finished stream. The two states
/// must be reported under one lock: a separate empty-then-finished probe
/// races with a producer pushing in between, making a poller spin or quit
/// early.
enum class PollResult : std::uint8_t {
  kItem,      ///< an element was dequeued
  kEmpty,     ///< queue empty but producers remain - poll again later
  kFinished,  ///< all producers closed and the queue is drained
};

/// Blocking bounded MPMC FIFO. Producers must be registered so the channel
/// knows when the stream is finished: once every registered producer has
/// called CloseProducer() and the queue drains, Pop() returns nullopt.
///
/// An optional StageStats receives per-element counters plus blocked-time
/// accounting; with a null stats pointer (the default) the hot path pays
/// only untaken branches and never reads a clock.
///
/// Wakeups are edge-triggered and cheap: waiters are counted, so a push
/// or pop that nobody waits for performs no condvar call at all, and
/// notifications happen after the mutex is released - a woken thread
/// never immediately blocks on the lock its waker still holds.
template <typename T>
class Channel {
 public:
  explicit Channel(std::size_t capacity, StageStats* stats = nullptr)
      : capacity_(capacity), stats_(stats) {
    COMOVE_CHECK(capacity > 0);
  }

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Declares one more producer. Must be called before that producer's
  /// first Push and balanced by CloseProducer.
  void RegisterProducer() {
    std::lock_guard<std::mutex> lock(mu_);
    ++producers_;
  }

  /// Signals that one producer is done. When the last producer closes, all
  /// blocked consumers wake and drain.
  void CloseProducer() {
    bool wake = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      COMOVE_CHECK(producers_ > 0);
      wake = --producers_ == 0 && waiting_consumers_ > 0;
    }
    if (wake) not_empty_.notify_all();
  }

  /// Kills the channel: wakes every blocked producer and consumer, drops
  /// the queued elements, and makes all further traffic a no-op (pushes
  /// are discarded, pops report a finished stream). Used to simulate a
  /// crash - a cancelled pipeline unwinds without deadlocking on
  /// backpressure, exactly like a failed TaskManager tearing down its
  /// network stack. Irreversible.
  void Cancel() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      cancelled_ = true;
      queue_.clear();
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  /// Blocks while the channel is full; FIFO per producer.
  void Push(T value) {
    bool wake = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      std::uint64_t blocked_ns = 0;
      if (queue_.size() >= capacity_ && !cancelled_) {
        blocked_ns = WaitNotFull(lock);
      }
      if (cancelled_) return;
      if (stats_ != nullptr) {
        if (IsBarrier(value)) {
          stats_->OnBarrierPushed(blocked_ns);
        } else {
          const bool is_watermark = IsWatermark(value);
          stats_->OnPush(is_watermark, blocked_ns);
          if (is_watermark) stats_->OnWatermarkValue(WatermarkOf(value));
        }
      }
      queue_.push_back(std::move(value));
      wake = waiting_consumers_ > 0;
    }
    if (wake) not_empty_.notify_one();
  }

  /// Blocks until an element is available or the channel is finished.
  /// Returns nullopt exactly when all producers closed and the queue is
  /// empty.
  std::optional<T> Pop() {
    std::optional<T> value;
    bool wake = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      std::uint64_t blocked_ns = 0;
      if (queue_.empty() && producers_ > 0 && !cancelled_) {
        blocked_ns = WaitNotEmpty(lock);
      }
      if (queue_.empty()) return std::nullopt;
      value = std::move(queue_.front());
      queue_.pop_front();
      if (stats_ != nullptr) {
        if (IsBarrier(*value)) {
          stats_->OnBarrierPopped(blocked_ns);
        } else {
          stats_->OnPop(IsWatermark(*value), blocked_ns);
        }
      }
      wake = waiting_producers_ > 0;
    }
    if (wake) not_full_.notify_one();
    return value;
  }

  /// Blocking drain: clears `out`, then moves up to `max` queued elements
  /// into it under one lock acquisition. Blocks only while the channel is
  /// empty with producers remaining; never waits for more elements to
  /// arrive, so it adds no latency over Pop. Returns the number of
  /// elements delivered; 0 means the channel is finished (all producers
  /// closed and drained).
  std::size_t PopBatch(std::vector<T>& out, std::size_t max) {
    out.clear();
    if (max == 0) return 0;
    bool wake = false;
    bool wake_all = false;
    std::size_t n = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      std::uint64_t blocked_ns = 0;
      if (queue_.empty() && producers_ > 0 && !cancelled_) {
        blocked_ns = WaitNotEmpty(lock);
      }
      n = std::min(max, queue_.size());
      for (std::size_t k = 0; k < n; ++k) {
        if (stats_ != nullptr) {
          // The wait, if any, is charged to the first element.
          const std::uint64_t waited = k == 0 ? blocked_ns : 0;
          if (IsBarrier(queue_.front())) {
            stats_->OnBarrierPopped(waited);
          } else {
            stats_->OnPop(IsWatermark(queue_.front()), waited);
          }
        }
        out.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      wake = n > 0 && waiting_producers_ > 0;
      wake_all = n > 1;
    }
    if (wake) {
      if (wake_all) {
        not_full_.notify_all();
      } else {
        not_full_.notify_one();
      }
    }
    return n;
  }

  /// Non-blocking poll. On kItem the element is moved into `out`; kEmpty
  /// and kFinished leave `out` untouched. The finished check shares the
  /// queue lock with the dequeue, so a kFinished result is authoritative:
  /// nothing can arrive afterwards.
  PollResult TryPop(T& out) {
    bool wake = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (queue_.empty()) {
        return producers_ == 0 || cancelled_ ? PollResult::kFinished
                                             : PollResult::kEmpty;
      }
      out = std::move(queue_.front());
      queue_.pop_front();
      if (stats_ != nullptr) {
        if (IsBarrier(out)) {
          stats_->OnBarrierPopped(0);
        } else {
          stats_->OnPop(IsWatermark(out), 0);
        }
      }
      wake = waiting_producers_ > 0;
    }
    if (wake) not_full_.notify_one();
    return PollResult::kItem;
  }

  std::size_t capacity() const { return capacity_; }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return queue_.size();
  }

  /// True when all producers have closed (the queue may still hold data).
  bool finished_producing() const {
    std::lock_guard<std::mutex> lock(mu_);
    return producers_ == 0;
  }

 private:
  /// Watermark/data split for stats: payloads exposing is_watermark()
  /// (Element<T>) are classified, anything else counts as a record.
  static bool IsWatermark(const T& value) {
    if constexpr (requires { value.is_watermark(); }) {
      return value.is_watermark();
    } else {
      (void)value;
      return false;
    }
  }

  /// Event-time value of a watermark element, for the last_watermark
  /// gauge; only called when IsWatermark(value) is true.
  static Timestamp WatermarkOf(const T& value) {
    if constexpr (requires { value.watermark; }) {
      return value.watermark;
    } else {
      (void)value;
      return kNoTime;
    }
  }

  /// Checkpoint-barrier split for stats, same pattern as IsWatermark.
  static bool IsBarrier(const T& value) {
    if constexpr (requires { value.is_barrier(); }) {
      return value.is_barrier();
    } else {
      (void)value;
      return false;
    }
  }

  /// Waits for free capacity; returns the blocked time in ns (0 when
  /// stats are off - the clock is never read then). Caller holds `lock`
  /// and has verified the queue is full.
  std::uint64_t WaitNotFull(std::unique_lock<std::mutex>& lock) {
    ++waiting_producers_;
    std::uint64_t blocked_ns = 0;
    const auto ready = [&] {
      return queue_.size() < capacity_ || cancelled_;
    };
    if (stats_ == nullptr) {
      not_full_.wait(lock, ready);
    } else {
      const auto start = std::chrono::steady_clock::now();
      not_full_.wait(lock, ready);
      blocked_ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start)
              .count());
    }
    --waiting_producers_;
    return blocked_ns;
  }

  /// Waits for input or a finished stream; same contract as WaitNotFull.
  std::uint64_t WaitNotEmpty(std::unique_lock<std::mutex>& lock) {
    ++waiting_consumers_;
    std::uint64_t blocked_ns = 0;
    const auto ready = [&] {
      return !queue_.empty() || producers_ == 0 || cancelled_;
    };
    if (stats_ == nullptr) {
      not_empty_.wait(lock, ready);
    } else {
      const auto start = std::chrono::steady_clock::now();
      not_empty_.wait(lock, ready);
      blocked_ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start)
              .count());
    }
    --waiting_consumers_;
    return blocked_ns;
  }

  const std::size_t capacity_;
  StageStats* const stats_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> queue_;
  int producers_ = 0;
  int waiting_producers_ = 0;
  int waiting_consumers_ = 0;
  bool cancelled_ = false;
};

}  // namespace comove::flow

#endif  // COMOVE_FLOW_CHANNEL_H_
