#ifndef COMOVE_FLOW_EXCHANGE_H_
#define COMOVE_FLOW_EXCHANGE_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "common/check.h"
#include "flow/channel.h"
#include "flow/element.h"
#include "flow/net/transport.h"
#include "flow/trace.h"

/// \file
/// The data exchange between two stages: every producer subtask can reach
/// every consumer subtask. Data elements are routed to one consumer (by an
/// explicit partition, normally hash(key) % consumers); watermarks are
/// broadcast to all consumers so each can align over all producers. This
/// reproduces Flink's keyBy/hash-partitioned network shuffle.
///
/// Per-element Send pays one channel lock round-trip per record. For hot
/// exchanges, wrap the producer side in a BatchingSender: it accumulates
/// records per destination partition and ships each buffer with a single
/// Channel::PushBatch, mirroring Flink's buffer-oriented network transfer
/// (records fill a network buffer, which is flushed on size, timeout, or
/// checkpoint barrier - here: size, watermark, or close).

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

  /// Ships a pre-built element batch to one consumer with a single
  /// Channel::PushBatch (one lock round-trip); the batch is drained in
  /// place so the caller reuses its capacity.
  void PushBatch(std::int32_t /*producer*/, std::size_t partition,
                 std::vector<Element<T>>&& batch) override {
    COMOVE_CHECK(partition < channels_.size());
    channels_[partition]->PushBatch(std::move(batch));
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

/// Producer-side batching façade over one Transport edge, owned by exactly one
/// producer subtask (not thread-safe; make one per producer). Data records
/// accumulate per destination partition and are flushed as a single
/// batched push when a partition reaches `batch_size`, when a watermark is
/// broadcast (pending data must precede the watermark on every channel for
/// the watermark contract to hold), or on Close. Per-producer FIFO order
/// is therefore preserved exactly as with unbatched Send, and watermark
/// alignment latency is unchanged - a watermark never waits on a partial
/// buffer.
///
/// With `batch_size` <= 1 every call forwards straight to the unbatched
/// Exchange path, so a pipeline can be configured back to per-element
/// transfer for comparison without touching the call sites.
template <typename T>
class BatchingSender {
 public:
  /// `trace`, when non-null, records one "flush" span per shipped batch
  /// (subtask = producer, aux = batch size) under `trace_name` - by
  /// convention the destination the batches feed, e.g. "partitions".
  BatchingSender(Transport<T>& transport, std::int32_t producer,
                 std::size_t batch_size, TraceRecorder* trace = nullptr,
                 const char* trace_name = "flush")
      : transport_(&transport),
        producer_(producer),
        batch_size_(batch_size),
        trace_(trace),
        trace_name_(trace_name),
        pending_(static_cast<std::size_t>(transport.consumers())) {}

  BatchingSender(const BatchingSender&) = delete;
  BatchingSender& operator=(const BatchingSender&) = delete;

  /// Buffers a data record for consumer subtask `partition`; ships the
  /// partition's buffer when it reaches the batch size.
  void Send(std::size_t partition, T value) {
    if (batch_size_ <= 1) {
      transport_->Send(producer_, partition, std::move(value));
      return;
    }
    COMOVE_CHECK(partition < pending_.size());
    std::vector<Element<T>>& buffer = pending_[partition];
    buffer.push_back(Element<T>::Data(std::move(value), producer_));
    if (buffer.size() >= batch_size_) {
      // PushBatch drains the buffer in place, so its capacity is reused
      // for the next batch - steady state allocates nothing.
      Ship(partition, buffer);
    }
  }

  /// Flushes all pending data, then broadcasts watermark `t`.
  void BroadcastWatermark(Timestamp t) {
    FlushAll();
    transport_->BroadcastWatermark(producer_, t);
  }

  /// Flushes all pending data, then broadcasts checkpoint barrier
  /// `checkpoint` - pending records precede the barrier on every channel,
  /// so they stay inside the checkpoint's pre-image.
  void BroadcastBarrier(std::int64_t checkpoint) {
    FlushAll();
    transport_->BroadcastBarrier(producer_, checkpoint);
  }

  /// Ships every non-empty partition buffer now.
  void FlushAll() {
    for (std::size_t c = 0; c < pending_.size(); ++c) {
      if (!pending_[c].empty()) Ship(c, pending_[c]);
    }
  }

  /// Flushes pending data and closes this producer on the exchange.
  void Close() {
    FlushAll();
    transport_->CloseProducer(producer_);
  }

  std::size_t batch_size() const { return batch_size_; }

 private:
  /// Single flush path: push the buffer, tracing the span (including any
  /// backpressure blocking inside PushBatch) when tracing is on.
  void Ship(std::size_t partition, std::vector<Element<T>>& buffer) {
    const std::int64_t n = static_cast<std::int64_t>(buffer.size());
    const std::uint64_t start_ns = trace_ != nullptr ? trace_->NowNs() : 0;
    transport_->PushBatch(producer_, partition, std::move(buffer));
    if (trace_ != nullptr) {
      trace_->RecordSpanSince("flush", trace_name_, producer_, kNoTime,
                              start_ns, n);
    }
  }

  Transport<T>* transport_;
  std::int32_t producer_;
  std::size_t batch_size_;
  TraceRecorder* trace_;
  const char* trace_name_;
  std::vector<std::vector<Element<T>>> pending_;  ///< one per partition
};

}  // namespace comove::flow

#endif  // COMOVE_FLOW_EXCHANGE_H_
