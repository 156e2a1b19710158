#include "flow/checkpoint/snapshot_store.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include "common/crc32.h"
#include "common/serde.h"

namespace comove::flow {

namespace {

constexpr std::uint32_t kBundleMagic = 0x434B5054u;  // 'CKPT'
constexpr std::uint32_t kBundleVersion = 2u;

namespace fs = std::filesystem;

}  // namespace

const std::string* CheckpointBundle::Find(std::string_view op,
                                          std::int32_t subtask) const {
  for (const OperatorState& state : states) {
    if (state.op == op && state.subtask == subtask) return &state.bytes;
  }
  return nullptr;
}

namespace {

/// Emits the wire encoding of `bundle` through `put`, as consecutive
/// pieces whose concatenation is EncodeBundle's string, and returns the
/// envelope CRC, a running value over every piece before it. State bytes
/// are emitted in place, never copied.
template <typename Put>
std::uint32_t EmitBundle(const CheckpointBundle& bundle, Put&& put) {
  std::uint32_t crc = 0;
  std::string piece;
  BinaryWriter writer(&piece);
  const auto emit = [&](std::string_view bytes) {
    crc = Crc32(bytes, crc);
    put(bytes);
  };
  writer.WriteU32(kBundleMagic);
  writer.WriteU32(kBundleVersion);
  writer.WriteI64(bundle.id);
  writer.WriteI64(bundle.prev_id);
  writer.WriteU32(bundle.prev_crc);
  writer.WriteString(bundle.fingerprint);
  writer.WriteU64(bundle.states.size());
  for (const OperatorState& state : bundle.states) {
    writer.WriteString(state.op);
    writer.WriteI32(state.subtask);
    writer.WriteU64(state.bytes.size());  // WriteString's length prefix
    emit(piece);
    emit(state.bytes);
    piece.clear();
    writer.WriteU32(Crc32(state.bytes));
  }
  emit(piece);
  piece.clear();
  writer.WriteU32(crc);
  put(piece);
  return crc;
}

}  // namespace

std::string EncodeBundle(const CheckpointBundle& bundle) {
  // The exact encoded size, so the string allocates once: growing by
  // doubling would copy a large bundle several times and could leave a
  // buffer up to twice its size resident.
  constexpr std::size_t kU32 = sizeof(std::uint32_t);
  constexpr std::size_t kU64 = sizeof(std::uint64_t);
  std::size_t size = 2 * kU32 + 2 * kU64 + kU32 + kU64 +
                     bundle.fingerprint.size() + kU64 + kU32;
  for (const OperatorState& state : bundle.states) {
    size += kU64 + state.op.size() + sizeof(std::int32_t) + kU64 +
            state.bytes.size() + kU32;
  }
  std::string encoded;
  encoded.reserve(size);
  EmitBundle(bundle, [&encoded](std::string_view piece) {
    encoded.append(piece);
  });
  return encoded;
}

bool DecodeBundle(std::string_view data, CheckpointBundle* out) {
  if (data.size() < sizeof(std::uint32_t)) return false;
  // The footer CRC covers everything before it; verify first so that a
  // torn write fails fast without parsing garbage.
  const std::string_view body = data.substr(0, data.size() - 4);
  BinaryReader footer(data.substr(data.size() - 4));
  const std::uint32_t envelope_crc = footer.ReadU32();
  if (envelope_crc != Crc32(body) || !footer.ok()) return false;
  BinaryReader reader(body);
  if (reader.ReadU32() != kBundleMagic || !reader.ok()) return false;
  if (reader.ReadU32() != kBundleVersion || !reader.ok()) return false;
  CheckpointBundle bundle;
  bundle.id = reader.ReadI64();
  bundle.prev_id = reader.ReadI64();
  bundle.prev_crc = reader.ReadU32();
  bundle.fingerprint = reader.ReadString();
  const std::uint64_t count = reader.ReadU64();
  if (!reader.ok() || count > reader.remaining()) return false;
  bundle.states.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    OperatorState state;
    state.op = reader.ReadString();
    state.subtask = reader.ReadI32();
    state.bytes = reader.ReadString();
    const std::uint32_t crc = reader.ReadU32();
    if (!reader.ok() || crc != Crc32(state.bytes)) return false;
    bundle.states.push_back(std::move(state));
  }
  if (!reader.AtEnd()) return false;
  bundle.crc = envelope_crc;
  *out = std::move(bundle);
  return true;
}

namespace {

/// The envelope CRC of an encoded bundle: its last four bytes.
std::uint32_t EnvelopeCrc(std::string_view encoded) {
  BinaryReader footer(encoded.substr(encoded.size() - 4));
  return footer.ReadU32();
}

}  // namespace

std::string VisitChain(
    const SnapshotStore& store, const CheckpointBundle& latest,
    const std::function<void(const CheckpointBundle&)>& visit) {
  visit(latest);
  std::int64_t id = latest.id;
  std::int64_t prev_id = latest.prev_id;
  std::uint32_t prev_crc = latest.prev_crc;
  while (prev_id != 0) {
    const std::string link = "bundle " + std::to_string(id) +
                             " names predecessor " + std::to_string(prev_id);
    // Ids ascend along a chain, so a chain cannot loop.
    if (prev_id < 0 || prev_id >= id) return link + ", which is not older";
    const std::optional<CheckpointBundle> prev = store.Read(prev_id);
    if (!prev) return link + ", which is missing or corrupt";
    if (prev->crc != prev_crc || prev->id != prev_id) {
      return link + ", but the stored bundle " + std::to_string(prev_id) +
             " is another one";
    }
    if (prev->fingerprint != latest.fingerprint) {
      return link + ", which another pipeline wrote";
    }
    visit(*prev);
    id = prev->id;
    prev_id = prev->prev_id;
    prev_crc = prev->prev_crc;
  }
  return std::string();
}

std::optional<std::uint32_t> MemorySnapshotStore::Write(
    const CheckpointBundle& bundle) {
  std::string encoded = EncodeBundle(bundle);
  const std::uint32_t crc = EnvelopeCrc(encoded);
  std::lock_guard<std::mutex> lock(mu_);
  bundles_[bundle.id] = std::move(encoded);
  return crc;
}

std::optional<CheckpointBundle> MemorySnapshotStore::ReadLatest() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = bundles_.rbegin(); it != bundles_.rend(); ++it) {
    CheckpointBundle bundle;
    if (DecodeBundle(it->second, &bundle)) return bundle;
  }
  return std::nullopt;
}

std::optional<CheckpointBundle> MemorySnapshotStore::Read(
    std::int64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = bundles_.find(id);
  CheckpointBundle bundle;
  if (it == bundles_.end() || !DecodeBundle(it->second, &bundle)) {
    return std::nullopt;
  }
  return bundle;
}

std::size_t MemorySnapshotStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bundles_.size();
}

FileSnapshotStore::FileSnapshotStore(std::string directory)
    : directory_(std::move(directory)) {
  std::error_code ec;
  fs::create_directories(directory_, ec);
}

std::string FileSnapshotStore::CheckpointPath(std::int64_t id) const {
  return (fs::path(directory_) /
          ("checkpoint-" + std::to_string(id) + ".ckpt"))
      .string();
}

std::optional<std::uint32_t> FileSnapshotStore::Write(
    const CheckpointBundle& bundle) {
  // Streamed to a `.tmp` sibling, closed, and renamed over the target,
  // so readers see either no file or the complete one, never a torn
  // write. A failed close fails the write: the file may be incomplete.
  std::lock_guard<std::mutex> lock(mu_);
  const std::string path = CheckpointPath(bundle.id);
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out) return std::nullopt;
  const std::uint32_t crc =
      EmitBundle(bundle, [&out](std::string_view piece) {
        out.write(piece.data(), static_cast<std::streamsize>(piece.size()));
      });
  out.close();
  if (!out || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return std::nullopt;
  }
  return crc;
}

std::vector<std::int64_t> FileSnapshotStore::CompletedIds() const {
  // The directory is the index: a bundle file exists only once renamed
  // into place whole, and ReadFile still verifies both CRCs.
  std::vector<std::int64_t> ids;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(directory_, ec)) {
    const std::string name = entry.path().filename().string();
    constexpr std::string_view kPrefix = "checkpoint-";
    constexpr std::string_view kSuffix = ".ckpt";
    if (name.size() <= kPrefix.size() + kSuffix.size()) continue;
    if (name.compare(0, kPrefix.size(), kPrefix) != 0) continue;
    if (name.compare(name.size() - kSuffix.size(), kSuffix.size(),
                     kSuffix) != 0) {
      continue;
    }
    const std::string digits = name.substr(
        kPrefix.size(), name.size() - kPrefix.size() - kSuffix.size());
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    ids.push_back(std::stoll(digits));
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::optional<CheckpointBundle> FileSnapshotStore::ReadFile(
    std::int64_t id) const {
  std::ifstream in(CheckpointPath(id), std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream contents;
  contents << in.rdbuf();
  CheckpointBundle bundle;
  if (!DecodeBundle(contents.str(), &bundle)) return std::nullopt;
  return bundle;
}

std::optional<CheckpointBundle> FileSnapshotStore::ReadLatest() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::int64_t> ids = CompletedIds();
  for (auto it = ids.rbegin(); it != ids.rend(); ++it) {
    // A corrupt or torn checkpoint falls through to the next-newest id.
    if (std::optional<CheckpointBundle> bundle = ReadFile(*it)) {
      return bundle;
    }
  }
  return std::nullopt;
}

std::optional<CheckpointBundle> FileSnapshotStore::Read(
    std::int64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return ReadFile(id);
}

}  // namespace comove::flow
