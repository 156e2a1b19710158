#ifndef COMOVE_CORE_WIRE_CODECS_H_
#define COMOVE_CORE_WIRE_CODECS_H_

#include "core/pipeline_counters.h"
#include "core/state_serde.h"

/// \file
/// Codec policies plugging the pipeline's value types into the
/// payload-agnostic net transport (flow/net/wire.h expects
/// `Codec::Write(BinaryWriter*, const T&)` and
/// `bool Codec::Read(BinaryReader*, T*)`). They reuse the exact
/// state_serde encodings, so an element's bytes on the wire match its
/// bytes inside a checkpoint - one format to fuzz, one to version.
/// flow/ stays ignorant of core types; this header is the one place the
/// two meet.

namespace comove::core {

struct SnapshotCodec {
  static void Write(BinaryWriter* w, const Snapshot& s) {
    WriteSnapshot(w, s);
  }
  static bool Read(BinaryReader* r, Snapshot* out) {
    *out = ReadSnapshot(r);
    return r->ok();
  }
};

/// A partition group: its time, its partition count, then each partition
/// in the checkpoint encoding. A partition whose own time disagrees with
/// the group's, or a count beyond the remaining bytes, is corruption.
struct PartitionGroupCodec {
  static void Write(BinaryWriter* w, const pattern::PartitionGroup& g) {
    w->WriteI32(g.time);
    w->WriteU64(g.parts.size());
    for (const pattern::Partition& p : g.parts) WritePartition(w, p);
  }
  static bool Read(BinaryReader* r, pattern::PartitionGroup* out) {
    out->time = r->ReadI32();
    const std::uint64_t count = r->ReadU64();
    if (!r->ok() || count > r->remaining()) return false;
    out->parts.clear();
    out->parts.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) {
      out->parts.push_back(ReadPartition(r));
      if (!r->ok() || out->parts.back().time != out->time) return false;
    }
    return true;
  }
};

/// The counter block of a worker's RESULT frame: every run counter as an
/// I64, in list order (core/pipeline_counters.h).
struct RunCountersCodec {
  static void Write(BinaryWriter* w, const RunCounters& c) {
    for (const CounterField& f : kCounterFields) w->WriteI64(c.*f.value);
  }
  static bool Read(BinaryReader* r, RunCounters* out) {
    for (const CounterField& f : kCounterFields) out->*f.value = r->ReadI64();
    return r->ok();
  }
};

}  // namespace comove::core

#endif  // COMOVE_CORE_WIRE_CODECS_H_
