#include <cstdint>
#include <iterator>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/frame.h"
#include "common/serde.h"
#include "core/wire_codecs.h"
#include "flow/element.h"
#include "flow/net/wire.h"

/// Wire-format property tests for the socket transport: every payload the
/// distributed pipeline ships (snapshots, partition groups, watermarks and
/// barriers in the Element envelope; the RESULT counter block) must
/// round-trip bit-exactly, and the frame layer must reject every
/// truncation and every single-bit flip. The CRC-32 frame guard is the integrity layer; the
/// envelope layer on top must additionally fail cleanly (MarkCorrupt, no
/// crash, no over-read) on structurally corrupt bodies that a CRC match
/// would let through - e.g. a hostile peer, not line noise.

namespace comove::core {
namespace {

using flow::Element;
using flow::net::ReadElement;
using flow::net::ReadElementBatch;
using flow::net::WriteElement;
using flow::net::WriteElementBatch;

bool operator==(const SnapshotEntry& a, const SnapshotEntry& b) {
  return a.id == b.id && a.location == b.location;
}

bool Same(const Snapshot& a, const Snapshot& b) {
  if (a.time != b.time || a.entries.size() != b.entries.size()) return false;
  for (std::size_t i = 0; i < a.entries.size(); ++i) {
    if (!(a.entries[i] == b.entries[i])) return false;
  }
  return true;
}

bool Same(const pattern::Partition& a, const pattern::Partition& b) {
  return a.owner == b.owner && a.time == b.time && a.members == b.members;
}

bool Same(const pattern::PartitionGroup& a, const pattern::PartitionGroup& b) {
  if (a.time != b.time || a.parts.size() != b.parts.size()) return false;
  for (std::size_t i = 0; i < a.parts.size(); ++i) {
    if (!Same(a.parts[i], b.parts[i])) return false;
  }
  return true;
}

Snapshot RandomSnapshot(std::mt19937_64& rng) {
  std::uniform_int_distribution<int> entries(0, 12);
  std::uniform_real_distribution<double> coord(-1e6, 1e6);
  Snapshot s;
  s.time = static_cast<Timestamp>(rng() % 10000);
  const int n = entries(rng);
  for (int i = 0; i < n; ++i) {
    s.entries.push_back(SnapshotEntry{
        static_cast<TrajectoryId>(rng()),
        Point{coord(rng), coord(rng)}});
  }
  return s;
}

pattern::Partition RandomPartition(std::mt19937_64& rng) {
  pattern::Partition p;
  p.owner = static_cast<TrajectoryId>(rng());
  p.time = static_cast<Timestamp>(rng() % 10000);
  const int n = static_cast<int>(rng() % 8);
  for (int i = 0; i < n; ++i) {
    p.members.push_back(p.owner + 1 + static_cast<TrajectoryId>(i));
  }
  return p;
}

/// 0-20 random partitions of one time, as the cluster stage sends them.
pattern::PartitionGroup RandomPartitionGroup(std::mt19937_64& rng) {
  pattern::PartitionGroup g;
  g.time = static_cast<Timestamp>(rng() % 10000);
  const int n = static_cast<int>(rng() % 21);
  for (int i = 0; i < n; ++i) {
    g.parts.push_back(RandomPartition(rng));
    g.parts.back().time = g.time;
  }
  return g;
}

template <typename Codec, typename T, typename Eq>
void RoundTripElements(std::mt19937_64& rng, T (*make)(std::mt19937_64&),
                       Eq same) {
  for (int iter = 0; iter < 200; ++iter) {
    const std::int32_t producer = static_cast<std::int32_t>(rng() % 64);
    Element<T> original;
    switch (rng() % 3) {
      case 0:
        original = Element<T>::Data(make(rng), producer);
        break;
      case 1:
        original = Element<T>::Watermark(
            static_cast<Timestamp>(rng() % 100000), producer);
        break;
      default:
        original = Element<T>::Barrier(
            static_cast<std::int64_t>(rng() % 100000), producer);
        break;
    }
    std::string bytes;
    BinaryWriter writer(&bytes);
    WriteElement<Codec>(&writer, original);
    BinaryReader reader(bytes);
    Element<T> decoded;
    ASSERT_TRUE(ReadElement<Codec>(&reader, &decoded));
    ASSERT_TRUE(reader.ok());
    EXPECT_TRUE(reader.AtEnd());
    EXPECT_EQ(decoded.kind, original.kind);
    EXPECT_EQ(decoded.producer, original.producer);
    switch (original.kind) {
      case Element<T>::Kind::kData:
        EXPECT_TRUE(same(decoded.data, original.data));
        break;
      case Element<T>::Kind::kWatermark:
        EXPECT_EQ(decoded.watermark, original.watermark);
        break;
      case Element<T>::Kind::kBarrier:
        EXPECT_EQ(decoded.checkpoint, original.checkpoint);
        break;
    }

    // Every strict prefix of the encoding must fail the reader, never
    // fabricate an element or read out of bounds.
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
      BinaryReader truncated(std::string_view(bytes).substr(0, cut));
      Element<T> sink;
      EXPECT_FALSE(ReadElement<Codec>(&truncated, &sink))
          << "prefix of " << cut << "/" << bytes.size() << " bytes decoded";
    }
  }
}

TEST(NetWire, SnapshotElementsRoundTrip) {
  std::mt19937_64 rng(0xC0F0EE01);
  RoundTripElements<SnapshotCodec, Snapshot>(rng, RandomSnapshot,
                                             [](const auto& a, const auto& b) {
                                               return Same(a, b);
                                             });
}

TEST(NetWire, PartitionElementsRoundTrip) {
  std::mt19937_64 rng(0xC0F0EE02);
  RoundTripElements<PartitionGroupCodec, pattern::PartitionGroup>(
      rng, RandomPartitionGroup,
      [](const auto& a, const auto& b) { return Same(a, b); });
}

std::string EncodeGroup(const pattern::PartitionGroup& group) {
  std::string bytes;
  BinaryWriter writer(&bytes);
  WriteElement<PartitionGroupCodec>(
      &writer, Element<pattern::PartitionGroup>::Data(group, /*producer=*/0));
  return bytes;
}

bool DecodeGroup(const std::string& bytes) {
  BinaryReader reader(bytes);
  Element<pattern::PartitionGroup> sink;
  return ReadElement<PartitionGroupCodec>(&reader, &sink);
}

TEST(NetWire, PartitionGroupTimeMismatchRejected) {
  // Every partition of a group belongs to the group's snapshot; one that
  // claims another time is corruption the enumerate side must not buffer.
  pattern::PartitionGroup group;
  group.time = 7;
  group.parts.push_back(pattern::Partition{1, 7, {2, 3}});
  group.parts.push_back(pattern::Partition{2, 7, {3}});
  ASSERT_TRUE(DecodeGroup(EncodeGroup(group)));
  group.parts.back().time = 8;
  EXPECT_FALSE(DecodeGroup(EncodeGroup(group)));
}

TEST(NetWire, AbsurdPartitionGroupCountRejected) {
  // A partition count past the remaining bytes is rejected before any
  // allocation, not read as a large group.
  std::string bytes;
  BinaryWriter writer(&bytes);
  writer.WriteU8(0);   // Kind::kData
  writer.WriteI32(0);  // producer
  writer.WriteI32(7);  // group time
  writer.WriteU64(1ULL << 60);
  EXPECT_FALSE(DecodeGroup(bytes));
}

TEST(NetWire, RunCountersRoundTrip) {
  // A distinct value per counter (some beyond 32 bits): a decoder that
  // fills the rows in a different order than the encoder wrote them fails.
  RunCounters original;
  std::int64_t row = 0;
  for (const CounterField& f : kCounterFields) {
    ++row;
    original.*f.value = (row << 33) + row;
  }
  std::string bytes;
  BinaryWriter writer(&bytes);
  RunCountersCodec::Write(&writer, original);
  EXPECT_EQ(bytes.size(), std::size(kCounterFields) * sizeof(std::int64_t));

  BinaryReader reader(bytes);
  RunCounters decoded;
  ASSERT_TRUE(RunCountersCodec::Read(&reader, &decoded));
  EXPECT_TRUE(reader.AtEnd());
  for (const CounterField& f : kCounterFields) {
    EXPECT_EQ(decoded.*f.value, original.*f.value) << f.name;
  }
  // The block leads with the list's first row.
  BinaryReader raw(bytes);
  EXPECT_EQ(raw.ReadI64(), original.cluster_count);

  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    BinaryReader truncated(std::string_view(bytes).substr(0, cut));
    RunCounters sink;
    EXPECT_FALSE(RunCountersCodec::Read(&truncated, &sink))
        << "prefix of " << cut << "/" << bytes.size() << " bytes decoded";
  }
}

TEST(NetWire, MixedBatchRoundTrip) {
  std::mt19937_64 rng(0xC0F0EE04);
  for (int iter = 0; iter < 50; ++iter) {
    using GroupElement = Element<pattern::PartitionGroup>;
    std::vector<GroupElement> batch;
    const int n = static_cast<int>(rng() % 20);
    for (int i = 0; i < n; ++i) {
      switch (rng() % 3) {
        case 0:
          batch.push_back(GroupElement::Data(RandomPartitionGroup(rng),
                                             static_cast<std::int32_t>(i)));
          break;
        case 1:
          batch.push_back(GroupElement::Watermark(
              static_cast<Timestamp>(i), static_cast<std::int32_t>(i)));
          break;
        default:
          batch.push_back(GroupElement::Barrier(
              static_cast<std::int64_t>(i), static_cast<std::int32_t>(i)));
          break;
      }
    }
    std::string bytes;
    BinaryWriter writer(&bytes);
    WriteElementBatch<PartitionGroupCodec>(&writer, batch);
    BinaryReader reader(bytes);
    std::vector<GroupElement> decoded;
    ASSERT_TRUE(ReadElementBatch<PartitionGroupCodec>(&reader, &decoded));
    EXPECT_TRUE(reader.AtEnd());
    ASSERT_EQ(decoded.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(decoded[i].kind, batch[i].kind);
      EXPECT_EQ(decoded[i].producer, batch[i].producer);
      if (batch[i].is_data()) {
        EXPECT_TRUE(Same(decoded[i].data, batch[i].data));
      }
    }
  }
}

TEST(NetWire, BatchTruncationRejected) {
  std::mt19937_64 rng(0xC0F0EE05);
  std::vector<Element<Snapshot>> batch;
  for (int i = 0; i < 5; ++i) {
    batch.push_back(
        Element<Snapshot>::Data(RandomSnapshot(rng), /*producer=*/i));
  }
  std::string bytes;
  BinaryWriter writer(&bytes);
  WriteElementBatch<SnapshotCodec>(&writer, batch);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    BinaryReader reader(std::string_view(bytes).substr(0, cut));
    std::vector<Element<Snapshot>> decoded;
    EXPECT_FALSE(ReadElementBatch<SnapshotCodec>(&reader, &decoded));
  }
}

TEST(NetWire, CorruptKindTagRejected) {
  std::string bytes;
  BinaryWriter writer(&bytes);
  WriteElement<PartitionGroupCodec>(
      &writer,
      Element<pattern::PartitionGroup>::Watermark(7, /*producer=*/1));
  for (int kind = 3; kind < 256; kind += 41) {
    std::string corrupt = bytes;
    corrupt[0] = static_cast<char>(kind);
    BinaryReader reader(corrupt);
    Element<pattern::PartitionGroup> sink;
    EXPECT_FALSE(ReadElement<PartitionGroupCodec>(&reader, &sink));
    EXPECT_FALSE(reader.ok());
  }
}

TEST(NetWire, AbsurdBatchCountRejected) {
  // A count prefix far past the remaining bytes is corruption, not a
  // large batch - it must be rejected before any allocation.
  std::string bytes;
  BinaryWriter writer(&bytes);
  writer.WriteU32(0x7FFFFFFF);
  BinaryReader reader(bytes);
  std::vector<Element<Snapshot>> decoded;
  EXPECT_FALSE(ReadElementBatch<SnapshotCodec>(&reader, &decoded));
  EXPECT_TRUE(decoded.empty());
}

// --- Frame layer: [u32 len][u32 crc][payload]. ---

std::string RandomPayload(std::mt19937_64& rng, std::size_t max_len) {
  std::string payload;
  const std::size_t n = rng() % (max_len + 1);
  payload.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    payload.push_back(static_cast<char>(rng() & 0xFF));
  }
  return payload;
}

TEST(NetFrame, RoundTripAndTruncation) {
  std::mt19937_64 rng(0xF4A3E001);
  for (int iter = 0; iter < 100; ++iter) {
    const std::string payload = RandomPayload(rng, 200);
    std::string frame;
    AppendFrame(&frame, payload);
    ASSERT_EQ(frame.size(), kFrameHeaderBytes + payload.size());
    std::string_view decoded;
    ASSERT_EQ(DecodeFrame(frame, &decoded), frame.size());
    EXPECT_EQ(decoded, payload);
    for (std::size_t cut = 0; cut < frame.size(); ++cut) {
      std::string_view sink;
      EXPECT_EQ(DecodeFrame(std::string_view(frame).substr(0, cut), &sink),
                0u);
    }
  }
}

TEST(NetFrame, EveryBitFlipRejected) {
  std::mt19937_64 rng(0xF4A3E002);
  const std::string payload = RandomPayload(rng, 64) + "guard";
  std::string frame;
  AppendFrame(&frame, payload);
  for (std::size_t byte = 0; byte < frame.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = frame;
      corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
      std::string_view decoded;
      // A flip in the length prefix misaligns or truncates the frame; a
      // flip in the CRC or payload fails the guard. Either way: no
      // payload may come back unchanged.
      const std::size_t used = DecodeFrame(corrupt, &decoded);
      EXPECT_TRUE(used == 0 || decoded != payload)
          << "bit flip at byte " << byte << " bit " << bit << " undetected";
    }
  }
}

TEST(NetFrame, AbsurdLengthPrefixRejected) {
  std::string frame;
  AppendFrame(&frame, "payload");
  const std::uint32_t absurd = kMaxFramePayloadBytes + 1;
  frame.replace(0, sizeof(absurd),
                reinterpret_cast<const char*>(&absurd), sizeof(absurd));
  EXPECT_FALSE(DecodeFrameHeader(frame.data()).has_value());
}

TEST(NetFrame, BackToBackFramesDecodeInSequence) {
  std::mt19937_64 rng(0xF4A3E003);
  std::vector<std::string> payloads;
  std::string stream;
  for (int i = 0; i < 10; ++i) {
    payloads.push_back(RandomPayload(rng, 100));
    AppendFrame(&stream, payloads.back());
  }
  std::string_view rest = stream;
  for (const std::string& expected : payloads) {
    std::string_view payload;
    const std::size_t used = DecodeFrame(rest, &payload);
    ASSERT_GT(used, 0u);
    EXPECT_EQ(payload, expected);
    rest.remove_prefix(used);
  }
  EXPECT_TRUE(rest.empty());
}

}  // namespace
}  // namespace comove::core
