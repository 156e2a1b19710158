#ifndef COMOVE_FLOW_NET_WIRE_H_
#define COMOVE_FLOW_NET_WIRE_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/serde.h"
#include "flow/element.h"
#include "flow/stage_stats.h"
#include "flow/trace.h"

/// \file
/// Serialisation of Element<T> envelopes for an exchange's remote
/// consumers (flow/exchange.h). The payload type's encoding is supplied
/// as a Codec policy:
///
///   struct FooCodec {
///     static void Write(BinaryWriter* w, const Foo& value);
///     // Returns false (and/or fails the reader) on corrupt input.
///     static bool Read(BinaryReader* r, Foo* out);
///   };
///
/// so the exchange template stays payload-agnostic while the concrete
/// codecs (core/wire_codecs.h) reuse the checkpoint state serializers -
/// one binary convention for both state-at-rest and data-in-flight.
///
/// Envelope layout: [u8 kind][i32 producer][kind-specific body], where
/// data carries the Codec payload, watermarks an i64 timestamp, barriers
/// an i64 checkpoint id - watermarks and barriers travel in-band with
/// the data exactly as on in-process channels, which is what keeps
/// alignment and exactly-once recovery working across processes.

namespace comove::flow::net {

/// First payload byte of every exchange frame. Drivers may define
/// further control messages from kFirstControl on, on the same links.
enum class MsgType : std::uint8_t {
  kElements = 1,
  kCloseProducer = 2,
  kFirstControl = 16,
};

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

// --- Observability payloads -------------------------------------------
//
// Control frames of a distributed run ship stage-stats snapshots and
// trace events from worker processes to the coordinator. Both use the
// same BinaryWriter/BinaryReader conventions as the element envelopes;
// decoders fail the reader (never trust a length) on corrupt input.

namespace internal {

/// A stage-stats column on the wire: a double for an ms column, an i64
/// for every other.
template <typename V>
void WriteStageColumn(BinaryWriter* w, V v) {
  if constexpr (std::is_floating_point_v<V>) {
    w->WriteDouble(v);
  } else {
    w->WriteI64(v);
  }
}

template <typename V>
void ReadStageColumn(BinaryReader* r, V* v) {
  if constexpr (std::is_floating_point_v<V>) {
    *v = r->ReadDouble();
  } else {
    *v = static_cast<V>(r->ReadI64());
  }
}

}  // namespace internal

/// Body layout: [string stage], then every column of
/// COMOVE_STAGE_STATS_COLUMNS in list order: a double for an ms column,
/// an i64 for every other (last_watermark widened, kNoTime as -1).
inline void WriteStageStatsSnapshot(BinaryWriter* w,
                                    const StageStatsSnapshot& s) {
  w->WriteString(s.stage);
#define COMOVE_STAGE_COLUMN_WRITE(name, column, kind) \
  internal::WriteStageColumn(w, s.name);
  COMOVE_STAGE_STATS_COLUMNS(COMOVE_STAGE_COLUMN_WRITE)
#undef COMOVE_STAGE_COLUMN_WRITE
}

[[nodiscard]] inline bool ReadStageStatsSnapshot(BinaryReader* r,
                                                 StageStatsSnapshot* out) {
  out->stage = r->ReadString();
#define COMOVE_STAGE_COLUMN_READ(name, column, kind) \
  internal::ReadStageColumn(r, &out->name);
  COMOVE_STAGE_STATS_COLUMNS(COMOVE_STAGE_COLUMN_READ)
#undef COMOVE_STAGE_COLUMN_READ
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
