#ifndef COMOVE_FLOW_NET_PEER_LINK_H_
#define COMOVE_FLOW_NET_PEER_LINK_H_

#include <atomic>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>

#include "common/net_io.h"
#include "flow/stage_stats.h"

/// \file
/// One framed, full-duplex connection between two processes of a
/// distributed run. Writers from any thread share SendFrame (one mutex,
/// one WriteFull per frame - a frame carries a whole snapshot or one
/// subtask's partition group, so the lock is amortised like a channel
/// lock); a
/// single reader thread decodes [len][crc][payload] frames and hands each
/// payload to the owner's dispatcher.
///
/// A dead link (peer closed, write error, CRC mismatch) never throws:
/// SendFrame starts returning false - senders treat that like a
/// cancelled channel - and on_close fires exactly once, which is how a
/// process learns that a peer crashed.

namespace comove::flow::net {

class PeerLink {
 public:
  explicit PeerLink(UniqueFd fd) : fd_(std::move(fd)) {}
  ~PeerLink();

  PeerLink(const PeerLink&) = delete;
  PeerLink& operator=(const PeerLink&) = delete;

  /// Frames `payload` and writes it out; thread-safe. Returns false once
  /// the link is dead (the frame is dropped, like a push to a cancelled
  /// channel).
  bool SendFrame(std::string_view payload);

  /// Blocking single-frame read for the pre-Start handshake (HELLO /
  /// CONFIG exchange) - must not race the reader thread, so only valid
  /// before Start(). Returns false on EOF, timeout, or corruption.
  bool ReadFrameBlocking(std::string* payload, std::int64_t timeout_ms);

  /// Starts the reader thread. `on_frame` runs on that thread for every
  /// valid frame; `on_close` runs exactly once when the stream ends (EOF,
  /// error, or corruption). Handlers may block (that is the backpressure
  /// path) but must not call back into Start/Shutdown.
  void Start(std::function<void(std::string_view)> on_frame,
             std::function<void()> on_close);

  /// Half-closes the send side: the peer's reader sees EOF after
  /// draining. Safe to call with the reader running.
  void CloseSend();

  /// Joins the reader (waiting for the peer to close its send side) and
  /// closes the socket. Idempotent.
  void Shutdown();

  /// True once a send failed or the stream ended.
  bool dead() const { return dead_.load(std::memory_order_acquire); }

  /// Attaches per-link counters (frames/bytes each way, syscall blocked
  /// time, CRC rejects - see the link columns of StageStatsSnapshot).
  /// Not synchronised: set it during single-threaded setup, after any
  /// handshake frames that should stay uncounted and before Start() /
  /// concurrent SendFrame use. Null (the default) keeps the data path
  /// free of clock reads.
  void set_stats(StageStats* stats) { stats_ = stats; }
  StageStats* stats() const { return stats_; }

 private:
  bool ReadOneFrame(std::string* payload);

  UniqueFd fd_;
  std::mutex send_mu_;
  std::string send_buffer_;  ///< reused header+payload scratch
  std::atomic<bool> dead_{false};
  std::thread reader_;
  std::string read_buffer_;  ///< reader-thread payload scratch
  StageStats* stats_ = nullptr;
};

}  // namespace comove::flow::net

#endif  // COMOVE_FLOW_NET_PEER_LINK_H_
