#ifndef COMOVE_FLOW_NET_TRANSPORT_H_
#define COMOVE_FLOW_NET_TRANSPORT_H_

#include <cstddef>
#include <cstdint>

#include "common/types.h"
#include "flow/channel.h"
#include "flow/element.h"

/// \file
/// The transport seam of the dataflow: everything a producer subtask may
/// do to the edge between two task groups, abstracted away from how the
/// edge moves bytes. Two implementations exist:
///
///   - Exchange<T> (flow/exchange.h): the in-process default - every
///     consumer channel lives in this process and pushes are direct
///     Channel operations. Zero behaviour change vs the pre-seam engine.
///   - SocketTransport<T> (flow/net/socket_transport.h): consumers may
///     live in other processes; data, watermarks and checkpoint barriers
///     are serialized into length-prefixed CRC-guarded frames and shipped
///     over UNIX-domain or TCP-loopback sockets, arriving in the remote
///     process's consumer channels via a demux reader thread.
///
/// The consumer side is identical for both: a consumer drains its input
/// Channel<Element<T>> and sees the exact same PollResult semantics
/// (kItem while elements remain - including residual elements still in
/// flight after every producer closed - then kFinished). The conformance test
/// suite (tests/transport_conformance_test.cc) pins this contract against
/// both implementations.
///
/// Ordering contract (what barrier alignment and watermark alignment
/// need): per (producer, consumer) pair, elements arrive in send order.
/// Cross-producer interleaving is unspecified, as with bare channels.

namespace comove::flow {

/// Producer-side edge interface between two task groups.
template <typename T>
class Transport {
 public:
  virtual ~Transport() = default;

  virtual std::int32_t producers() const = 0;
  virtual std::int32_t consumers() const = 0;

  /// Sends a data element from `producer` to consumer subtask
  /// `partition`: one lock round-trip in process, one wire frame across
  /// processes.
  virtual void Send(std::int32_t producer, std::size_t partition,
                    T value) = 0;

  /// Broadcasts watermark `t` from `producer` to every consumer.
  virtual void BroadcastWatermark(std::int32_t producer, Timestamp t) = 0;

  /// Broadcasts checkpoint barrier `checkpoint` from `producer` to every
  /// consumer. Everything this producer sent before the barrier belongs
  /// to the checkpoint's pre-image on every channel (FIFO per producer).
  virtual void BroadcastBarrier(std::int32_t producer,
                                std::int64_t checkpoint) = 0;

  /// Marks `producer` as finished on every consumer channel (local ones
  /// directly, remote ones via an in-band close notification).
  virtual void CloseProducer(std::int32_t producer) = 0;

  /// Cancels every locally-hosted consumer channel (crash teardown; see
  /// Channel::Cancel). Remote consumers learn of the crash from their
  /// side's connection teardown.
  virtual void Cancel() = 0;

  /// The input channel of consumer subtask `consumer`; only valid for
  /// consumers hosted in this process.
  virtual Channel<Element<T>>& channel(std::int32_t consumer) = 0;
};

}  // namespace comove::flow

#endif  // COMOVE_FLOW_NET_TRANSPORT_H_
