#ifndef COMOVE_FLOW_REORDER_BUFFER_H_
#define COMOVE_FLOW_REORDER_BUFFER_H_

#include <iterator>
#include <map>
#include <utility>
#include <vector>

#include "common/serde.h"
#include "common/types.h"

/// \file
/// Reorders time-stamped items back into ascending time order using
/// watermarks: items may arrive out of order from parallel upstream
/// subtasks; once the aligned watermark passes time t, everything at t has
/// arrived and may be released. Items stay grouped by time throughout, so
/// a consumer that works one tick at a time takes each tick whole.

namespace comove::flow {

/// Buffers items keyed by event time; DrainThrough(w) releases every time
/// <= w with its items, in ascending time order.
template <typename T>
class TimeReorderBuffer {
 public:
  /// One time and its items, in arrival order.
  using Group = std::pair<Timestamp, std::vector<T>>;

  /// Appends `items` under `time`, behind those already held there.
  void Add(Timestamp time, std::vector<T> items) {
    // try_emplace leaves `items` untouched when `time` is already held.
    auto [it, inserted] = buffer_.try_emplace(time, std::move(items));
    if (!inserted) {
      it->second.insert(it->second.end(),
                        std::make_move_iterator(items.begin()),
                        std::make_move_iterator(items.end()));
    }
  }

  /// Releases every buffered time <= `watermark`, ascending.
  std::vector<Group> DrainThrough(Timestamp watermark) {
    std::vector<Group> out;
    while (!buffer_.empty() && buffer_.begin()->first <= watermark) {
      out.emplace_back(buffer_.begin()->first,
                       std::move(buffer_.begin()->second));
      buffer_.erase(buffer_.begin());
    }
    return out;
  }

  /// True when DrainThrough(`watermark`) would release anything.
  bool HoldsThrough(Timestamp watermark) const {
    return !buffer_.empty() && buffer_.begin()->first <= watermark;
  }

  /// Releases everything regardless of watermark (stream end).
  std::vector<Group> DrainAll() {
    std::vector<Group> out;
    out.reserve(buffer_.size());
    for (auto& [t, items] : buffer_) out.emplace_back(t, std::move(items));
    buffer_.clear();
    return out;
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
    return true;
  }

 private:
  std::map<Timestamp, std::vector<T>> buffer_;
};

}  // namespace comove::flow

#endif  // COMOVE_FLOW_REORDER_BUFFER_H_
