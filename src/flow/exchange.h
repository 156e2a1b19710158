#ifndef COMOVE_FLOW_EXCHANGE_H_
#define COMOVE_FLOW_EXCHANGE_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "common/check.h"
#include "flow/channel.h"
#include "flow/element.h"
#include "flow/net/transport.h"

/// \file
/// The data exchange between two stages: every producer subtask can reach
/// every consumer subtask. Data elements are routed to one consumer (by an
/// explicit partition, normally hash(key) % consumers); watermarks are
/// broadcast to all consumers so each can align over all producers. This
/// reproduces Flink's keyBy/hash-partitioned network shuffle.
///
/// Every Send is one channel lock round-trip. The engine's elements are
/// already coarse - a whole snapshot, or one PartitionGroup per
/// (snapshot, destination subtask) - so they need no producer-side
/// buffering to amortise that cost.

namespace comove::flow {

/// An all-to-all exchange of Element<T> between `producers` upstream
/// subtasks and `consumers` downstream subtasks: the in-process
/// Transport implementation (and the default - see flow/net/transport.h
/// for the seam and the socket implementation behind it).
///
/// When a StageStats is supplied, every consumer channel reports into it,
/// so the stats aggregate the whole exchange: pushed/popped record and
/// watermark counts, current/max total queue depth, and cumulative
/// blocked-time split into backpressure (Push) and starvation (Pop).
template <typename T>
class Exchange final : public Transport<T> {
 public:
  Exchange(std::int32_t producers, std::int32_t consumers,
           std::size_t capacity_per_channel = 256,
           StageStats* stats = nullptr)
      : producers_(producers), consumers_(consumers) {
    COMOVE_CHECK(producers > 0 && consumers > 0);
    channels_.reserve(static_cast<std::size_t>(consumers));
    for (std::int32_t c = 0; c < consumers; ++c) {
      channels_.push_back(std::make_unique<Channel<Element<T>>>(
          capacity_per_channel, stats));
      for (std::int32_t p = 0; p < producers; ++p) {
        channels_.back()->RegisterProducer();
      }
    }
  }

  std::int32_t producers() const override { return producers_; }
  std::int32_t consumers() const override { return consumers_; }

  /// Sends a data element from `producer` to consumer subtask `partition`.
  void Send(std::int32_t producer, std::size_t partition,
            T value) override {
    COMOVE_CHECK(partition < channels_.size());
    channels_[partition]->Push(
        Element<T>::Data(std::move(value), producer));
  }

  /// Broadcasts watermark `t` from `producer` to every consumer.
  void BroadcastWatermark(std::int32_t producer, Timestamp t) override {
    for (auto& ch : channels_) {
      ch->Push(Element<T>::Watermark(t, producer));
    }
  }

  /// Broadcasts checkpoint barrier `checkpoint` from `producer` to every
  /// consumer. Everything this producer sent before the barrier belongs
  /// to the checkpoint's pre-image on every channel (FIFO per producer).
  void BroadcastBarrier(std::int32_t producer,
                        std::int64_t checkpoint) override {
    for (auto& ch : channels_) {
      ch->Push(Element<T>::Barrier(checkpoint, producer));
    }
  }

  /// Marks `producer` as finished on every consumer channel.
  void CloseProducer(std::int32_t /*producer*/) override {
    for (auto& ch : channels_) ch->CloseProducer();
  }

  /// Cancels every consumer channel (crash teardown; see Channel::Cancel).
  void Cancel() override {
    for (auto& ch : channels_) ch->Cancel();
  }

  /// The input channel of consumer subtask `consumer`.
  Channel<Element<T>>& channel(std::int32_t consumer) override {
    return *channels_.at(static_cast<std::size_t>(consumer));
  }

 private:
  std::int32_t producers_;
  std::int32_t consumers_;
  std::vector<std::unique_ptr<Channel<Element<T>>>> channels_;
};

}  // namespace comove::flow

#endif  // COMOVE_FLOW_EXCHANGE_H_
