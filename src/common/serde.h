#ifndef COMOVE_COMMON_SERDE_H_
#define COMOVE_COMMON_SERDE_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

/// \file
/// Minimal binary serialisation for operator-state checkpointing (the
/// durability piece of the "efficiency and reliability" the paper picks
/// Flink for). Fixed-width little-endian primitives; readers carry an
/// error flag instead of throwing, so corrupt or truncated checkpoints
/// are reported, never trusted.

namespace comove {

/// Appends primitives to a byte string.
class BinaryWriter {
 public:
  explicit BinaryWriter(std::string* out) : out_(out) {}

  /// Makes room for `more` bytes past what is written, so writing a
  /// precomputed size allocates once instead of growing by doubling.
  void Reserve(std::size_t more) { out_->reserve(out_->size() + more); }

  void WriteBool(bool v) { out_->push_back(v ? 1 : 0); }

  /// Single byte, for compact tags (element kinds, frame message types).
  void WriteU8(std::uint8_t v) {
    out_->push_back(static_cast<char>(v));
  }

  void WriteI32(std::int32_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteU32(std::uint32_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteI64(std::int64_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteU64(std::uint64_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteDouble(double v) { WriteRaw(&v, sizeof(v)); }

  void WriteString(std::string_view s) {
    WriteU64(s.size());
    out_->append(s.data(), s.size());
  }

  /// Vector of a trivially-serialisable integer type.
  template <typename T>
  void WriteIntVector(const std::vector<T>& v) {
    WriteU64(v.size());
    for (const T x : v) WriteI64(static_cast<std::int64_t>(x));
  }

 private:
  void WriteRaw(const void* data, std::size_t size) {
    out_->append(static_cast<const char*>(data), size);
  }

  std::string* out_;
};

/// Reads primitives from a byte view; after any failed read, ok() turns
/// false and every further read returns zero values.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  bool ok() const { return ok_; }
  bool AtEnd() const { return position_ == data_.size(); }

  /// Bytes not yet consumed (0 once the reader has failed). Lets callers
  /// sanity-check untrusted element counts before reserving memory for
  /// them: a count can never exceed remaining() / bytes-per-element.
  std::size_t remaining() const {
    return ok_ ? data_.size() - position_ : 0;
  }

  bool ReadBool() {
    char c = 0;
    ReadRaw(&c, 1);
    return c != 0;
  }

  std::uint8_t ReadU8() {
    char c = 0;
    ReadRaw(&c, 1);
    return static_cast<std::uint8_t>(c);
  }

  /// Marks the reader failed (e.g. an out-of-range tag was decoded);
  /// every further read returns zero values, exactly as after a short
  /// read.
  void MarkCorrupt() { ok_ = false; }

  std::int32_t ReadI32() { return ReadFixed<std::int32_t>(); }
  std::uint32_t ReadU32() { return ReadFixed<std::uint32_t>(); }
  std::int64_t ReadI64() { return ReadFixed<std::int64_t>(); }
  std::uint64_t ReadU64() { return ReadFixed<std::uint64_t>(); }
  double ReadDouble() { return ReadFixed<double>(); }

  std::string ReadString() {
    const std::uint64_t size = ReadU64();
    if (!ok_ || size > data_.size() - position_) {
      ok_ = false;
      return {};
    }
    std::string s(data_.substr(position_, size));
    position_ += size;
    return s;
  }

  template <typename T>
  std::vector<T> ReadIntVector() {
    const std::uint64_t size = ReadU64();
    // Guard against absurd sizes from corrupt data (each element is 8
    // bytes on the wire).
    if (!ok_ || size > (data_.size() - position_) / 8) {
      ok_ = false;
      return {};
    }
    std::vector<T> v;
    v.reserve(size);
    for (std::uint64_t i = 0; i < size && ok_; ++i) {
      v.push_back(static_cast<T>(ReadI64()));
    }
    return v;
  }

 private:
  template <typename T>
  T ReadFixed() {
    T v{};
    ReadRaw(&v, sizeof(v));
    return v;
  }

  void ReadRaw(void* out, std::size_t size) {
    if (!ok_ || size > data_.size() - position_) {
      ok_ = false;
      std::memset(out, 0, size);
      return;
    }
    std::memcpy(out, data_.data() + position_, size);
    position_ += size;
  }

  std::string_view data_;
  std::size_t position_ = 0;
  bool ok_ = true;
};

/// Pointers to the entries of a hash map in key order. Saving state in
/// this order makes equal states save equal bytes: a map restored from a
/// checkpoint iterates in another order than the one it was saved from.
template <typename Map>
std::vector<const typename Map::value_type*> InKeyOrder(const Map& map) {
  std::vector<const typename Map::value_type*> entries;
  entries.reserve(map.size());
  for (const auto& entry : map) entries.push_back(&entry);
  std::sort(entries.begin(), entries.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  return entries;
}

}  // namespace comove

#endif  // COMOVE_COMMON_SERDE_H_
