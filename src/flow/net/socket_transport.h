#ifndef COMOVE_FLOW_NET_SOCKET_TRANSPORT_H_
#define COMOVE_FLOW_NET_SOCKET_TRANSPORT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/serde.h"
#include "flow/net/peer_link.h"
#include "flow/net/transport.h"
#include "flow/net/wire.h"

/// \file
/// The multi-process Transport implementation. One SocketTransport
/// instance represents one logical edge (e.g. cluster -> enumerate) as
/// seen by one process: consumer subtasks in [local_lo, local_hi) are
/// hosted here as ordinary bounded channels; every other consumer is
/// reached through the PeerLink of the process hosting it.
///
/// Wire path: Send/PushBatch/Broadcast* serialize Element envelopes
/// (data, watermarks, and barriers all in-band) into one CRC-guarded
/// frame per destination consumer:
///
///   [u8 kMsgElements][u8 edge][i32 consumer][u32 count][count x element]
///
/// The receiving process's link reader thread dispatches the frame to its
/// SocketTransport of the same edge, which decodes and PushBatch-es into
/// the consumer's local channel - so the consumer side is bit-for-bit the
/// in-process contract: per-producer FIFO, watermark alignment, barrier
/// alignment, and PollResult semantics all unchanged. Backpressure
/// propagates naturally: a full local channel blocks the reader thread,
/// which stops draining the socket, which blocks the remote writer.
///
/// Producer close travels in-band too:
///
///   [u8 kMsgCloseProducer][u8 edge][i32 producer]
///
/// one frame per peer process; the receiver closes one producer slot on
/// every local channel of the edge, so each channel sees exactly
/// `producers` closes no matter where the producers ran.
///
/// A dead link makes sends no-ops (like pushes to a cancelled channel);
/// the driver decides crash semantics when a link dies.

namespace comove::flow::net {

/// First payload byte of every transport frame. Drivers may define
/// further control messages above kMsgFirstControl on the same links.
enum class MsgType : std::uint8_t {
  kElements = 1,
  kCloseProducer = 2,
  kFirstControl = 16,
};

template <typename T, typename Codec>
class SocketTransport final : public Transport<T> {
 public:
  /// `route[c]` is the link to the process hosting consumer `c`, or
  /// nullptr when `c` is local (then local_lo <= c < local_hi must
  /// hold). Local channels register all `producers` regardless of where
  /// those producers run.
  SocketTransport(std::int32_t producers, std::int32_t consumers,
                  std::uint8_t edge, std::int32_t local_lo,
                  std::int32_t local_hi, std::vector<PeerLink*> route,
                  std::size_t capacity_per_channel,
                  StageStats* stats = nullptr)
      : producers_(producers),
        consumers_(consumers),
        edge_(edge),
        local_lo_(local_lo),
        local_hi_(local_hi),
        route_(std::move(route)) {
    COMOVE_CHECK(producers > 0 && consumers > 0);
    COMOVE_CHECK(route_.size() == static_cast<std::size_t>(consumers));
    COMOVE_CHECK(local_lo >= 0 && local_lo <= local_hi &&
                 local_hi <= consumers);
    for (std::int32_t c = local_lo_; c < local_hi_; ++c) {
      COMOVE_CHECK(route_[static_cast<std::size_t>(c)] == nullptr);
      locals_.push_back(std::make_unique<Channel<Element<T>>>(
          capacity_per_channel, stats));
      for (std::int32_t p = 0; p < producers; ++p) {
        locals_.back()->RegisterProducer();
      }
    }
  }

  std::int32_t producers() const override { return producers_; }
  std::int32_t consumers() const override { return consumers_; }
  std::uint8_t edge() const { return edge_; }

  void Send(std::int32_t producer, std::size_t partition,
            T value) override {
    Element<T> e = Element<T>::Data(std::move(value), producer);
    if (IsLocal(partition)) {
      Local(partition).Push(std::move(e));
      return;
    }
    std::vector<Element<T>> one;
    one.push_back(std::move(e));
    ShipRemote(partition, one);
  }

  void PushBatch(std::int32_t /*producer*/, std::size_t partition,
                 std::vector<Element<T>>&& batch) override {
    if (IsLocal(partition)) {
      Local(partition).PushBatch(std::move(batch));
      return;
    }
    ShipRemote(partition, batch);
    // Drained-in-place contract: the caller reuses the capacity.
    batch.clear();
  }

  void BroadcastWatermark(std::int32_t producer, Timestamp t) override {
    BroadcastElement(Element<T>::Watermark(t, producer));
  }

  void BroadcastBarrier(std::int32_t producer,
                        std::int64_t checkpoint) override {
    BroadcastElement(Element<T>::Barrier(checkpoint, producer));
  }

  void CloseProducer(std::int32_t producer) override {
    for (auto& ch : locals_) ch->CloseProducer();
    // One close frame per distinct peer; its transport closes one
    // producer slot on each of ITS local channels of this edge.
    std::string payload;
    for (PeerLink* link : DistinctPeers()) {
      payload.clear();
      BinaryWriter writer(&payload);
      writer.WriteU8(static_cast<std::uint8_t>(MsgType::kCloseProducer));
      writer.WriteU8(edge_);
      writer.WriteI32(producer);
      link->SendFrame(payload);
    }
  }

  void Cancel() override {
    for (auto& ch : locals_) ch->Cancel();
  }

  Channel<Element<T>>& channel(std::int32_t consumer) override {
    COMOVE_CHECK(IsLocal(static_cast<std::size_t>(consumer)));
    return Local(static_cast<std::size_t>(consumer));
  }

  // --- Receiving side, called from link reader threads. ---

  /// Decodes a kMsgElements body (reader positioned after the edge tag)
  /// and delivers it into the local consumer channel. Returns false on a
  /// corrupt frame.
  [[nodiscard]] bool OnElements(BinaryReader* reader) {
    const std::int32_t consumer = reader->ReadI32();
    if (!reader->ok() || !IsLocal(static_cast<std::size_t>(consumer))) {
      return false;
    }
    std::vector<Element<T>> batch;
    if (!ReadElementBatch<Codec>(reader, &batch) || !reader->AtEnd()) {
      return false;
    }
    Local(static_cast<std::size_t>(consumer)).PushBatch(std::move(batch));
    return true;
  }

  /// Handles a kMsgCloseProducer body: one remote producer finished, so
  /// every local channel of this edge loses one producer slot.
  void OnCloseProducer() {
    for (auto& ch : locals_) ch->CloseProducer();
  }

 private:
  bool IsLocal(std::size_t consumer) const {
    return consumer >= static_cast<std::size_t>(local_lo_) &&
           consumer < static_cast<std::size_t>(local_hi_);
  }

  Channel<Element<T>>& Local(std::size_t consumer) {
    return *locals_[consumer - static_cast<std::size_t>(local_lo_)];
  }

  /// Serializes `batch` into one frame for `consumer`'s host process.
  /// A dead link drops the frame (driver handles the crash).
  void ShipRemote(std::size_t consumer,
                  const std::vector<Element<T>>& batch) {
    PeerLink* link = route_[consumer];
    COMOVE_CHECK(link != nullptr);
    std::string payload;
    BinaryWriter writer(&payload);
    writer.WriteU8(static_cast<std::uint8_t>(MsgType::kElements));
    writer.WriteU8(edge_);
    writer.WriteI32(static_cast<std::int32_t>(consumer));
    WriteElementBatch<Codec>(&writer, batch);
    // The link row's batch histogram counts elements per shipped frame,
    // the remote twin of the channel-side amortisation histogram.
    if (StageStats* link_stats = link->stats(); link_stats != nullptr) {
      link_stats->OnBatchPushed(batch.size());
    }
    link->SendFrame(payload);
  }

  /// Stack-local scratch per call: several producer threads share the
  /// transport object (every cluster subtask broadcasts on the partition
  /// edge), so no member buffers on the producer path.
  void BroadcastElement(const Element<T>& e) {
    std::vector<Element<T>> one;
    for (std::size_t c = 0; c < route_.size(); ++c) {
      if (IsLocal(c)) {
        Local(c).Push(e);
      } else {
        one.clear();
        one.push_back(e);
        ShipRemote(c, one);
      }
    }
  }

  std::vector<PeerLink*> DistinctPeers() const {
    std::vector<PeerLink*> peers;
    for (PeerLink* link : route_) {
      if (link == nullptr) continue;
      bool seen = false;
      for (PeerLink* p : peers) seen = seen || (p == link);
      if (!seen) peers.push_back(link);
    }
    return peers;
  }

  const std::int32_t producers_;
  const std::int32_t consumers_;
  const std::uint8_t edge_;
  const std::int32_t local_lo_;
  const std::int32_t local_hi_;
  std::vector<PeerLink*> route_;
  std::vector<std::unique_ptr<Channel<Element<T>>>> locals_;
};

}  // namespace comove::flow::net

#endif  // COMOVE_FLOW_NET_SOCKET_TRANSPORT_H_
