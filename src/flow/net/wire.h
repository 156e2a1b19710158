#ifndef COMOVE_FLOW_NET_WIRE_H_
#define COMOVE_FLOW_NET_WIRE_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/serde.h"
#include "flow/element.h"
#include "flow/stage_stats.h"
#include "flow/trace.h"

/// \file
/// Serialisation of Element<T> envelopes for the socket transport. The
/// payload type's encoding is supplied as a Codec policy:
///
///   struct FooCodec {
///     static void Write(BinaryWriter* w, const Foo& value);
///     // Returns false (and/or fails the reader) on corrupt input.
///     static bool Read(BinaryReader* r, Foo* out);
///   };
///
/// so the transport templates stay payload-agnostic while the concrete
/// codecs (core/wire_codecs.h) reuse the checkpoint state serializers -
/// one binary convention for both state-at-rest and data-in-flight.
///
/// Envelope layout: [u8 kind][i32 producer][kind-specific body], where
/// data carries the Codec payload, watermarks an i64 timestamp, barriers
/// an i64 checkpoint id - watermarks and barriers travel in-band with
/// the data exactly as on in-process channels, which is what keeps
/// alignment and exactly-once recovery working across processes.

namespace comove::flow::net {

template <typename Codec, typename T>
void WriteElement(BinaryWriter* w, const Element<T>& e) {
  w->WriteU8(static_cast<std::uint8_t>(e.kind));
  w->WriteI32(e.producer);
  switch (e.kind) {
    case Element<T>::Kind::kData:
      Codec::Write(w, e.data);
      break;
    case Element<T>::Kind::kWatermark:
      w->WriteI64(static_cast<std::int64_t>(e.watermark));
      break;
    case Element<T>::Kind::kBarrier:
      w->WriteI64(e.checkpoint);
      break;
  }
}

/// Decodes one envelope; returns false (with the reader failed) on a
/// truncated body or an out-of-range kind tag.
template <typename Codec, typename T>
[[nodiscard]] bool ReadElement(BinaryReader* r, Element<T>* out) {
  const std::uint8_t kind = r->ReadU8();
  out->producer = r->ReadI32();
  if (!r->ok() ||
      kind > static_cast<std::uint8_t>(Element<T>::Kind::kBarrier)) {
    r->MarkCorrupt();
    return false;
  }
  out->kind = static_cast<typename Element<T>::Kind>(kind);
  switch (out->kind) {
    case Element<T>::Kind::kData:
      if (!Codec::Read(r, &out->data)) {
        r->MarkCorrupt();
        return false;
      }
      break;
    case Element<T>::Kind::kWatermark:
      out->watermark = static_cast<Timestamp>(r->ReadI64());
      break;
    case Element<T>::Kind::kBarrier:
      out->checkpoint = r->ReadI64();
      break;
  }
  return r->ok();
}

/// Encodes an elements-frame body: [u32 count][count x element]. The
/// consumer index and edge tag are part of the enclosing frame message,
/// not of this body. SocketTransport sends one element per frame (count
/// 1, written inline); the decoder below accepts any count.
template <typename Codec, typename T>
void WriteElementBatch(BinaryWriter* w,
                       const std::vector<Element<T>>& batch) {
  w->WriteU32(static_cast<std::uint32_t>(batch.size()));
  for (const Element<T>& e : batch) WriteElement<Codec>(w, e);
}

/// Decodes an elements-frame body into `out` (appended). Returns false on
/// any corruption; `out` may then hold a prefix of the body's elements,
/// which the caller discards.
template <typename Codec, typename T>
[[nodiscard]] bool ReadElementBatch(BinaryReader* r,
                                    std::vector<Element<T>>* out) {
  const std::uint32_t count = r->ReadU32();
  if (!r->ok() || count > r->remaining()) {
    // Every element costs >= 1 byte on the wire; a count beyond
    // remaining() is corruption, not a large batch.
    r->MarkCorrupt();
    return false;
  }
  out->reserve(out->size() + count);
  for (std::uint32_t i = 0; i < count; ++i) {
    Element<T> e;
    if (!ReadElement<Codec>(r, &e)) return false;
    out->push_back(std::move(e));
  }
  return true;
}

// --- Observability payloads -------------------------------------------
//
// Control frames of a distributed run ship stage-stats snapshots and
// trace events from worker processes to the coordinator. Both use the
// same BinaryWriter/BinaryReader conventions as the element envelopes;
// decoders fail the reader (never trust a length) on corrupt input.

/// Body layout: [string stage][17 x i64/double fixed fields], with
/// last_watermark as a raw i64. Field order is frozen here, independent
/// of StageStatsFields() display order.
inline void WriteStageStatsSnapshot(BinaryWriter* w,
                                    const StageStatsSnapshot& s) {
  w->WriteString(s.stage);
  w->WriteI64(s.records_pushed);
  w->WriteI64(s.records_popped);
  w->WriteI64(s.watermarks_pushed);
  w->WriteI64(s.watermarks_popped);
  w->WriteI64(s.queue_depth);
  w->WriteI64(s.max_queue_depth);
  w->WriteDouble(s.push_blocked_ms);
  w->WriteDouble(s.pop_blocked_ms);
  w->WriteI64(s.barriers_pushed);
  w->WriteI64(s.barriers_popped);
  w->WriteDouble(s.align_blocked_ms);
  w->WriteI64(s.snapshot_bytes);
  w->WriteI64(s.last_checkpoint_id);
  w->WriteI64(static_cast<std::int64_t>(s.last_watermark));
  w->WriteI64(s.bytes_pushed);
  w->WriteI64(s.bytes_popped);
  w->WriteI64(s.crc_rejects);
}

[[nodiscard]] inline bool ReadStageStatsSnapshot(BinaryReader* r,
                                                 StageStatsSnapshot* out) {
  out->stage = r->ReadString();
  out->records_pushed = r->ReadI64();
  out->records_popped = r->ReadI64();
  out->watermarks_pushed = r->ReadI64();
  out->watermarks_popped = r->ReadI64();
  out->queue_depth = r->ReadI64();
  out->max_queue_depth = r->ReadI64();
  out->push_blocked_ms = r->ReadDouble();
  out->pop_blocked_ms = r->ReadDouble();
  out->barriers_pushed = r->ReadI64();
  out->barriers_popped = r->ReadI64();
  out->align_blocked_ms = r->ReadDouble();
  out->snapshot_bytes = r->ReadI64();
  out->last_checkpoint_id = r->ReadI64();
  out->last_watermark = static_cast<Timestamp>(r->ReadI64());
  out->bytes_pushed = r->ReadI64();
  out->bytes_popped = r->ReadI64();
  out->crc_rejects = r->ReadI64();
  return r->ok();
}

/// Owns the stage/name strings of trace events decoded off the wire.
/// TraceEvent stores `const char*` (string literals in-process), so a
/// decoder needs stable backing storage; cardinality is tiny (one entry
/// per distinct stage/op name), so a linear scan under a mutex is fine.
/// Thread-safe: several link reader threads may decode concurrently.
class TraceStringTable {
 public:
  const char* Intern(std::string_view s) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::string& have : strings_) {
      if (have == s) return have.c_str();
    }
    strings_.emplace_back(s);
    return strings_.back().c_str();
  }

 private:
  std::mutex mu_;
  std::deque<std::string> strings_;  ///< deque: stable c_str() addresses
};

/// Body layout: [string stage][string name][i32 subtask]
/// [i64 snapshot_time][i64 aux][u64 start_ns][u64 dur_ns].
inline void WriteTraceEvent(BinaryWriter* w, const TraceEvent& e) {
  w->WriteString(e.stage != nullptr ? e.stage : "");
  w->WriteString(e.name != nullptr ? e.name : "");
  w->WriteI32(e.subtask);
  w->WriteI64(static_cast<std::int64_t>(e.snapshot_time));
  w->WriteI64(e.aux);
  w->WriteU64(e.start_ns);
  w->WriteU64(e.dur_ns);
}

[[nodiscard]] inline bool ReadTraceEvent(BinaryReader* r,
                                         TraceStringTable* strings,
                                         TraceEvent* out) {
  const std::string stage = r->ReadString();
  const std::string name = r->ReadString();
  if (!r->ok()) return false;
  out->stage = strings->Intern(stage);
  out->name = strings->Intern(name);
  out->subtask = r->ReadI32();
  out->snapshot_time = static_cast<Timestamp>(r->ReadI64());
  out->aux = r->ReadI64();
  out->start_ns = r->ReadU64();
  out->dur_ns = r->ReadU64();
  return r->ok();
}

}  // namespace comove::flow::net

#endif  // COMOVE_FLOW_NET_WIRE_H_
