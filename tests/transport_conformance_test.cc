#include <sys/socket.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/net_io.h"
#include "common/serde.h"
#include "flow/channel.h"
#include "flow/element.h"
#include "flow/exchange.h"
#include "flow/net/peer_link.h"
#include "flow/net/socket_transport.h"
#include "flow/net/transport.h"

/// One conformance suite, run against BOTH Transport implementations -
/// the in-process Exchange and a socketpair-connected SocketTransport
/// pair. This is what pins the seam: any semantics a driver may rely on
/// (per-consumer delivery, broadcast fan-out, and above all PollResult
/// after a producer closes with residual elements still in flight) must
/// hold identically whether the edge is a mutex-guarded deque or a
/// CRC-framed socket. kFinished strictly after the residuals drain is
/// the contract the enumerate stage's barrier alignment depends on.

namespace comove::flow {
namespace {

using net::MsgType;
using net::PeerLink;
using net::SocketTransport;

struct IntCodec {
  static void Write(BinaryWriter* w, const int& value) {
    w->WriteI32(value);
  }
  static bool Read(BinaryReader* r, int* out) {
    *out = r->ReadI32();
    return r->ok();
  }
};

constexpr std::int32_t kProducers = 2;
constexpr std::int32_t kConsumers = 2;

/// A Transport under test plus access to every consumer channel,
/// regardless of which side of a process-shaped boundary it lives on.
class TransportHarness {
 public:
  virtual ~TransportHarness() = default;
  virtual Transport<int>& transport() = 0;
  virtual Channel<Element<int>>& consumer(std::int32_t c) = 0;
};

class ExchangeHarness final : public TransportHarness {
 public:
  ExchangeHarness() : exchange_(kProducers, kConsumers, /*capacity=*/64) {}
  Transport<int>& transport() override { return exchange_; }
  Channel<Element<int>>& consumer(std::int32_t c) override {
    return exchange_.channel(c);
  }

 private:
  Exchange<int> exchange_;
};

/// Two SocketTransport instances joined by a socketpair, modelling two
/// processes sharing one edge: consumer 0 lives on the "sending" side A,
/// consumer 1 on the far side B. A's reader handles nothing (B never
/// sends); B's reader dispatches data and close frames into B's
/// transport, exactly like the distributed driver's link dispatcher.
class SocketHarness final : public TransportHarness {
 public:
  SocketHarness() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a_link_ = std::make_unique<PeerLink>(comove::UniqueFd(fds[0]));
    b_link_ = std::make_unique<PeerLink>(comove::UniqueFd(fds[1]));
    a_ = std::make_unique<SocketTransport<int, IntCodec>>(
        kProducers, kConsumers, /*edge=*/0, /*local_lo=*/0, /*local_hi=*/1,
        std::vector<PeerLink*>{nullptr, a_link_.get()}, /*capacity=*/64);
    b_ = std::make_unique<SocketTransport<int, IntCodec>>(
        kProducers, kConsumers, /*edge=*/0, /*local_lo=*/1, /*local_hi=*/2,
        std::vector<PeerLink*>{b_link_.get(), nullptr}, /*capacity=*/64);
    a_link_->Start([](std::string_view) {}, [] {});
    b_link_->Start(
        [this](std::string_view payload) {
          comove::BinaryReader reader(payload);
          const std::uint8_t tag = reader.ReadU8();
          reader.ReadU8();  // edge, single-edge harness
          if (tag == static_cast<std::uint8_t>(MsgType::kElements)) {
            ASSERT_TRUE(b_->OnElements(&reader));
          } else if (tag ==
                     static_cast<std::uint8_t>(MsgType::kCloseProducer)) {
            b_->OnCloseProducer();
          }
        },
        [] {});
  }

  ~SocketHarness() override {
    a_link_->CloseSend();
    b_link_->CloseSend();
    a_link_->Shutdown();
    b_link_->Shutdown();
  }

  Transport<int>& transport() override { return *a_; }
  Channel<Element<int>>& consumer(std::int32_t c) override {
    return c == 0 ? a_->channel(0) : b_->channel(1);
  }

 private:
  std::unique_ptr<PeerLink> a_link_;
  std::unique_ptr<PeerLink> b_link_;
  std::unique_ptr<SocketTransport<int, IntCodec>> a_;
  std::unique_ptr<SocketTransport<int, IntCodec>> b_;
};

using HarnessFactory = std::function<std::unique_ptr<TransportHarness>()>;

struct TransportCase {
  const char* name;
  HarnessFactory make;
};

/// Prints the implementation name only. gtest's default printer would
/// show the name pointer and the factory's bytes, so the discovered test
/// names would change with every link and load address.
void PrintTo(const TransportCase& c, std::ostream* os) { *os << c.name; }

class TransportConformance : public ::testing::TestWithParam<TransportCase> {
 protected:
  std::unique_ptr<TransportHarness> harness_ = GetParam().make();
};

/// Polls `channel` until it yields an item or finishes. The socket path
/// delivers asynchronously, so kEmpty is legitimate transiently; what
/// the contract forbids is kFinished while undelivered residuals exist.
PollResult PollNext(Channel<Element<int>>& channel, Element<int>* out) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    const PollResult r = channel.TryPop(*out);
    if (r != PollResult::kEmpty) return r;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return PollResult::kEmpty;
}

TEST_P(TransportConformance, ShapeAndInitialEmptiness) {
  EXPECT_EQ(harness_->transport().producers(), kProducers);
  EXPECT_EQ(harness_->transport().consumers(), kConsumers);
  Element<int> e;
  EXPECT_EQ(harness_->consumer(0).TryPop(e), PollResult::kEmpty);
  EXPECT_EQ(harness_->consumer(1).TryPop(e), PollResult::kEmpty);
}

TEST_P(TransportConformance, DeliversToTheAddressedConsumer) {
  Transport<int>& t = harness_->transport();
  t.Send(/*producer=*/0, /*partition=*/0, 100);
  t.Send(/*producer=*/1, /*partition=*/1, 200);
  Element<int> e;
  ASSERT_EQ(PollNext(harness_->consumer(0), &e), PollResult::kItem);
  EXPECT_TRUE(e.is_data());
  EXPECT_EQ(e.data, 100);
  EXPECT_EQ(e.producer, 0);
  ASSERT_EQ(PollNext(harness_->consumer(1), &e), PollResult::kItem);
  EXPECT_EQ(e.data, 200);
  EXPECT_EQ(e.producer, 1);
  EXPECT_EQ(harness_->consumer(0).TryPop(e), PollResult::kEmpty);
  EXPECT_EQ(harness_->consumer(1).TryPop(e), PollResult::kEmpty);
}

TEST_P(TransportConformance, BroadcastsReachEveryConsumer) {
  Transport<int>& t = harness_->transport();
  t.BroadcastWatermark(/*producer=*/0, /*t=*/42);
  t.BroadcastBarrier(/*producer=*/1, /*checkpoint=*/7);
  for (std::int32_t c = 0; c < kConsumers; ++c) {
    Element<int> e;
    ASSERT_EQ(PollNext(harness_->consumer(c), &e), PollResult::kItem);
    EXPECT_TRUE(e.is_watermark());
    EXPECT_EQ(e.watermark, 42);
    EXPECT_EQ(e.producer, 0);
    ASSERT_EQ(PollNext(harness_->consumer(c), &e), PollResult::kItem);
    EXPECT_TRUE(e.is_barrier());
    EXPECT_EQ(e.checkpoint, 7);
    EXPECT_EQ(e.producer, 1);
  }
}

/// THE pinned semantics: a producer that sends residual elements and
/// immediately closes must still have every element delivered; TryPop
/// yields kFinished only after the last residual is drained, on both
/// implementations. (A transport that reported kFinished early would
/// make the enumerate stage drop tail-of-stream partitions.)
TEST_P(TransportConformance, ResidualBatchesDrainBeforeFinished) {
  Transport<int>& t = harness_->transport();
  constexpr int kResiduals = 5;
  for (std::int32_t producer = 0; producer < kProducers; ++producer) {
    for (std::int32_t c = 0; c < kConsumers; ++c) {
      for (int i = 0; i < kResiduals; ++i) {
        t.Send(producer, static_cast<std::size_t>(c),
               1000 * (producer + 1) + i);
      }
    }
    t.CloseProducer(producer);
  }
  for (std::int32_t c = 0; c < kConsumers; ++c) {
    std::vector<int> got;
    for (;;) {
      Element<int> e;
      const PollResult r = PollNext(harness_->consumer(c), &e);
      if (r == PollResult::kFinished) break;
      ASSERT_EQ(r, PollResult::kItem);
      got.push_back(e.data);
    }
    EXPECT_EQ(got.size(),
              static_cast<std::size_t>(kProducers * kResiduals))
        << "consumer " << c
        << " saw kFinished before residual elements drained";
    // And the terminal state is sticky across every pop flavour.
    Element<int> e;
    EXPECT_EQ(harness_->consumer(c).TryPop(e), PollResult::kFinished);
    EXPECT_FALSE(harness_->consumer(c).Pop().has_value());
    std::vector<Element<int>> rest;
    EXPECT_EQ(harness_->consumer(c).PopBatch(rest, 16), 0u);
  }
}

TEST_P(TransportConformance, CancelFinishesConsumersImmediately) {
  Transport<int>& t = harness_->transport();
  t.Send(/*producer=*/0, /*partition=*/0, 1);
  t.Cancel();
  Element<int> e;
  EXPECT_EQ(harness_->consumer(0).TryPop(e), PollResult::kFinished);
}

INSTANTIATE_TEST_SUITE_P(
    Implementations, TransportConformance,
    ::testing::Values(
        TransportCase{"Exchange",
                      [] {
                        return std::unique_ptr<TransportHarness>(
                            std::make_unique<ExchangeHarness>());
                      }},
        TransportCase{"SocketPair",
                      [] {
                        return std::unique_ptr<TransportHarness>(
                            std::make_unique<SocketHarness>());
                      }}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace comove::flow
