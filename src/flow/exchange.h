#ifndef COMOVE_FLOW_EXCHANGE_H_
#define COMOVE_FLOW_EXCHANGE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/serde.h"
#include "flow/channel.h"
#include "flow/element.h"
#include "flow/net/peer_link.h"
#include "flow/net/wire.h"

/// \file
/// The edge between two stages, as Flink's keyBy shuffle: every producer
/// subtask reaches every consumer subtask. Data elements are routed to
/// one consumer (by an explicit partition, normally hash(key) %
/// consumers); watermarks and checkpoint barriers are broadcast to all
/// consumers so each can align over all producers.
///
/// One Exchange is one logical edge (e.g. cluster -> enumerate) as seen
/// by one process. Consumers in [local_lo, local_hi) are hosted here as
/// bounded channels: a Send to one is one channel lock round-trip. Every
/// other consumer is reached through the PeerLink of its host process:
/// each element (data, watermarks and barriers all in-band) becomes one
/// CRC-guarded frame
///
///   [u8 kElements][u8 edge][i32 consumer][element]
///
/// which that process's link reader thread hands to its Exchange of the
/// same edge (OnElements), which pushes it into the consumer's channel.
/// So the consumer side is the same wherever the producer ran:
/// per-producer FIFO, watermark and barrier alignment, and PollResult
/// semantics (tests/transport_conformance_test.cc pins them on both
/// shapes). Backpressure crosses processes too: a full channel blocks the
/// reader thread, which stops draining the socket, which blocks the
/// remote writer. Producer close travels in-band as well,
///
///   [u8 kCloseProducer][u8 edge][i32 producer]
///
/// one frame per peer process, whose Exchange closes one producer slot on
/// each of its channels. A dead link makes sends no-ops (like pushes to a
/// cancelled channel); the driver decides crash semantics.
///
/// `Codec` encodes the payload for the wire (flow/net/wire.h); an
/// exchange whose consumers are all local never calls it.

namespace comove::flow {

/// An all-to-all exchange of Element<T> between `producers` upstream
/// subtasks and `consumers` downstream subtasks. When a StageStats is
/// supplied, every local consumer channel reports into it: pushed/popped
/// counts, total queue depth, and blocked time split into backpressure
/// (Push) and starvation (Pop).
template <typename T, typename Codec>
class Exchange {
 public:
  /// Every consumer local: the in-process edge.
  Exchange(std::int32_t producers, std::int32_t consumers,
           std::size_t capacity_per_channel = 256,
           StageStats* stats = nullptr)
      : Exchange(producers, consumers, /*edge=*/0, /*local_lo=*/0,
                 /*local_hi=*/consumers,
                 std::vector<net::PeerLink*>(
                     static_cast<std::size_t>(consumers), nullptr),
                 capacity_per_channel, stats) {}

  /// Consumers [local_lo, local_hi) local, the rest remote: `route[c]` is
  /// the link to the process hosting consumer `c`, or nullptr when `c` is
  /// local. `edge` tags this edge's frames on links shared with other
  /// edges. Local channels register all `producers` regardless of where
  /// those producers run.
  Exchange(std::int32_t producers, std::int32_t consumers, std::uint8_t edge,
           std::int32_t local_lo, std::int32_t local_hi,
           std::vector<net::PeerLink*> route,
           std::size_t capacity_per_channel, StageStats* stats = nullptr)
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

  std::int32_t producers() const { return producers_; }
  std::int32_t consumers() const { return consumers_; }

  /// Sends a data element from `producer` to consumer subtask
  /// `partition`: one lock round-trip to a local consumer, one wire frame
  /// to a remote one.
  void Send(std::int32_t producer, std::size_t partition, T value) {
    COMOVE_CHECK_MSG(partition < static_cast<std::size_t>(consumers_),
                     "partition %zu outside the consumers [0, %d)",
                     partition, consumers_);
    Element<T> e = Element<T>::Data(std::move(value), producer);
    if (IsLocal(partition)) {
      Local(partition).Push(std::move(e));
    } else {
      ShipRemote(partition, e);
    }
  }

  /// Broadcasts watermark `t` from `producer` to every consumer.
  void BroadcastWatermark(std::int32_t producer, Timestamp t) {
    BroadcastElement(Element<T>::Watermark(t, producer));
  }

  /// Broadcasts checkpoint barrier `checkpoint` from `producer` to every
  /// consumer. Everything this producer sent before the barrier belongs
  /// to the checkpoint's pre-image on every channel (FIFO per producer).
  void BroadcastBarrier(std::int32_t producer, std::int64_t checkpoint) {
    BroadcastElement(Element<T>::Barrier(checkpoint, producer));
  }

  /// Marks `producer` as finished on every consumer channel: local ones
  /// directly, remote ones through one close frame per peer process.
  void CloseProducer(std::int32_t producer) {
    for (auto& ch : locals_) ch->CloseProducer();
    std::string payload;
    for (net::PeerLink* link : DistinctPeers()) {
      payload.clear();
      BinaryWriter writer(&payload);
      writer.WriteU8(static_cast<std::uint8_t>(net::MsgType::kCloseProducer));
      writer.WriteU8(edge_);
      writer.WriteI32(producer);
      link->SendFrame(payload);
    }
  }

  /// Cancels every local consumer channel (crash teardown; see
  /// Channel::Cancel). Remote consumers learn of the crash from their
  /// side's connection teardown.
  void Cancel() {
    for (auto& ch : locals_) ch->Cancel();
  }

  /// The input channel of consumer subtask `consumer`, which must be
  /// local.
  Channel<Element<T>>& channel(std::int32_t consumer) {
    COMOVE_CHECK(IsLocal(static_cast<std::size_t>(consumer)));
    return Local(static_cast<std::size_t>(consumer));
  }

  // --- Receiving side, called from link reader threads. ---

  /// Decodes a kElements body (reader positioned after the edge tag) and
  /// delivers its element into the local consumer channel. Returns false
  /// on a corrupt frame, trailing bytes included.
  [[nodiscard]] bool OnElements(BinaryReader* reader) {
    const std::int32_t consumer = reader->ReadI32();
    if (!reader->ok() || !IsLocal(static_cast<std::size_t>(consumer))) {
      return false;
    }
    Element<T> e;
    if (!net::ReadElement<Codec>(reader, &e) || !reader->AtEnd()) {
      return false;
    }
    Local(static_cast<std::size_t>(consumer)).Push(std::move(e));
    return true;
  }

  /// Handles a kCloseProducer body: one remote producer finished, so
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

  /// Serialises `e` into one frame for `consumer`'s host process. A dead
  /// link drops the frame (the driver handles the crash).
  void ShipRemote(std::size_t consumer, const Element<T>& e) {
    net::PeerLink* link = route_[consumer];
    COMOVE_CHECK(link != nullptr);
    std::string payload;
    BinaryWriter writer(&payload);
    writer.WriteU8(static_cast<std::uint8_t>(net::MsgType::kElements));
    writer.WriteU8(edge_);
    writer.WriteI32(static_cast<std::int32_t>(consumer));
    net::WriteElement<Codec>(&writer, e);
    link->SendFrame(payload);
  }

  void BroadcastElement(const Element<T>& e) {
    for (std::size_t c = 0; c < route_.size(); ++c) {
      if (IsLocal(c)) {
        Local(c).Push(e);
      } else {
        ShipRemote(c, e);
      }
    }
  }

  std::vector<net::PeerLink*> DistinctPeers() const {
    std::vector<net::PeerLink*> peers;
    for (net::PeerLink* link : route_) {
      if (link == nullptr) continue;
      bool seen = false;
      for (net::PeerLink* p : peers) seen = seen || (p == link);
      if (!seen) peers.push_back(link);
    }
    return peers;
  }

  const std::int32_t producers_;
  const std::int32_t consumers_;
  const std::uint8_t edge_;
  const std::int32_t local_lo_;
  const std::int32_t local_hi_;
  std::vector<net::PeerLink*> route_;
  std::vector<std::unique_ptr<Channel<Element<T>>>> locals_;
};

}  // namespace comove::flow

#endif  // COMOVE_FLOW_EXCHANGE_H_
