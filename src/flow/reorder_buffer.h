#ifndef COMOVE_FLOW_REORDER_BUFFER_H_
#define COMOVE_FLOW_REORDER_BUFFER_H_

#include <map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/serde.h"
#include "common/types.h"

/// \file
/// Reorders time-stamped items back into ascending time order using
/// watermarks: items may arrive out of order from parallel upstream
/// subtasks; once the aligned watermark passes time t, everything at t has
/// arrived and may be released.

namespace comove::flow {

/// Buffers items keyed by event time; DrainThrough(w) releases all items
/// with time <= w in ascending time order.
template <typename T>
class TimeReorderBuffer {
 public:
  void Add(Timestamp time, T value) {
    buffer_[time].push_back(std::move(value));
    ++count_;
  }

  /// Releases (time, item) pairs for all buffered times <= `watermark`.
  std::vector<std::pair<Timestamp, T>> DrainThrough(Timestamp watermark) {
    std::vector<std::pair<Timestamp, T>> out;
    while (!buffer_.empty() && buffer_.begin()->first <= watermark) {
      const Timestamp t = buffer_.begin()->first;
      for (T& v : buffer_.begin()->second) {
        out.emplace_back(t, std::move(v));
      }
      count_ -= buffer_.begin()->second.size();
      buffer_.erase(buffer_.begin());
    }
    return out;
  }

  /// True when DrainThrough(`watermark`) would release anything.
  bool HoldsThrough(Timestamp watermark) const {
    return !buffer_.empty() && buffer_.begin()->first <= watermark;
  }

  /// Releases everything regardless of watermark (stream end).
  std::vector<std::pair<Timestamp, T>> DrainAll() {
    std::vector<std::pair<Timestamp, T>> out;
    for (auto& [t, items] : buffer_) {
      for (T& v : items) out.emplace_back(t, std::move(v));
    }
    buffer_.clear();
    count_ = 0;
    return out;
  }

  /// Number of buffered items. O(1): a running count is maintained by
  /// Add/DrainThrough/DrainAll/RestoreState - this is polled as a gauge on
  /// every MetricsSampler tick, where a scan over the buffered times would
  /// scale with the reorder window. Debug builds re-derive the count by
  /// scanning and assert agreement.
  std::size_t buffered() const {
    COMOVE_DCHECK(count_ == ScanCount());
    return count_;
  }

  /// Serialises the buffered items; `write_item(writer, item)` encodes
  /// each T (the buffer itself is item-type agnostic).
  template <typename WriteItem>
  void SaveState(BinaryWriter* writer, WriteItem&& write_item) const {
    writer->WriteU64(buffer_.size());
    for (const auto& [t, items] : buffer_) {
      writer->WriteI64(t);
      writer->WriteU64(items.size());
      for (const T& item : items) write_item(writer, item);
    }
  }

  /// Restores a SaveState image via `read_item(reader) -> T`; the reader's
  /// ok() flag reports item-level corruption. Returns false - leaving the
  /// buffer unchanged - on corrupt input, including a time that repeats
  /// or descends (SaveState writes each time once, ascending); requires
  /// an empty buffer.
  template <typename ReadItem>
  [[nodiscard]] bool RestoreState(BinaryReader* reader,
                                  ReadItem&& read_item) {
    if (!buffer_.empty()) return false;
    std::map<Timestamp, std::vector<T>> restored;
    const std::uint64_t times = reader->ReadU64();
    if (!reader->ok() || times > reader->remaining()) return false;
    for (std::uint64_t i = 0; i < times; ++i) {
      const auto t = static_cast<Timestamp>(reader->ReadI64());
      const std::uint64_t count = reader->ReadU64();
      if (!reader->ok() || count > reader->remaining()) return false;
      if (!restored.empty() && t <= restored.rbegin()->first) return false;
      std::vector<T>& items = restored[t];
      items.reserve(static_cast<std::size_t>(count));
      for (std::uint64_t j = 0; j < count; ++j) {
        items.push_back(read_item(reader));
        if (!reader->ok()) return false;
      }
    }
    buffer_ = std::move(restored);
    count_ = ScanCount();
    return true;
  }

 private:
  /// The O(#times) reference count; buffered() asserts against it in
  /// debug builds, RestoreState derives the running count from it.
  std::size_t ScanCount() const {
    std::size_t n = 0;
    for (const auto& [t, items] : buffer_) n += items.size();
    return n;
  }

  std::map<Timestamp, std::vector<T>> buffer_;
  std::size_t count_ = 0;  ///< running total of buffered items
};

}  // namespace comove::flow

#endif  // COMOVE_FLOW_REORDER_BUFFER_H_
