#ifndef COMOVE_FLOW_CHECKPOINT_SNAPSHOT_STORE_H_
#define COMOVE_FLOW_CHECKPOINT_SNAPSHOT_STORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

/// \file
/// Durable storage of completed checkpoints. A checkpoint is a bundle of
/// per-operator state blobs taken at one consistent cut; the store keeps
/// the encoded bundle under its checkpoint id so recovery can restore the
/// latest completed one. Bundles form a chain: each names the bundle
/// persisted before it by id and envelope CRC, because the patterns a
/// bundle stages ("epoch" states) cover only the stream since that
/// predecessor, and recovery refolds the staged patterns of the whole
/// chain. Two implementations: in-memory (tests, benches) and file-backed
/// with atomic-rename publication and CRC-32 protection of every state
/// blob plus the bundle envelope - a torn or rotten checkpoint is skipped
/// at recovery, never trusted. The file store streams a bundle's encoding
/// straight to its file, with no encoded copy in memory.

namespace comove::flow {

/// One operator subtask's state inside a checkpoint.
struct OperatorState {
  std::string op;            ///< operator name ("source", "assembler", ...)
  std::int32_t subtask = 0;  ///< parallel subtask index
  std::string bytes;         ///< opaque SaveState payload
};

/// Operator name of staged output: an "epoch" state holds what one
/// subtask emitted since the previous barrier. Its bundle's persistence
/// commits it (CheckpointCoordinator); a failed write carries it into the
/// next bundle, ahead of that bundle's own epochs.
inline constexpr char kEpochOp[] = "epoch";

/// A complete checkpoint: every operator's state at one consistent cut.
struct CheckpointBundle {
  std::int64_t id = 0;       ///< checkpoint number (1-based, ascending)
  /// The chain link: id and envelope CRC of the newest bundle persisted
  /// before this one (0 and 0 for the first of a chain).
  std::int64_t prev_id = 0;
  std::uint32_t prev_crc = 0;
  /// Topology/configuration fingerprint of the producing pipeline; a
  /// restore into a differently-shaped pipeline is rejected up front.
  std::string fingerprint;
  std::vector<OperatorState> states;
  /// Envelope CRC of the encoding this bundle was decoded from, the value
  /// its successor's prev_crc names it by. Set by DecodeBundle; not
  /// encoded (EncodeBundle computes it).
  std::uint32_t crc = 0;

  /// State bytes of (`op`, `subtask`), or nullptr when absent.
  const std::string* Find(std::string_view op, std::int32_t subtask) const;
};

/// Encodes a bundle into the wire format (version 2):
///   u32 magic 'CKPT' | u32 version | i64 id | i64 prev_id |
///   u32 prev_crc | string fingerprint | u64 state_count |
///   { string op | i32 subtask | string bytes | u32 crc32(bytes) } * |
///   u32 crc32(everything before this field)
/// Version 1 had no prev_id/prev_crc, and its enumerate states held the
/// subtask's whole pattern fold; DecodeBundle refuses it.
std::string EncodeBundle(const CheckpointBundle& bundle);

/// Decodes and fully verifies (magic, version, per-state CRC, envelope
/// CRC) an encoded bundle. Returns false - leaving `out` unspecified - on
/// any corruption or another layout version.
[[nodiscard]] bool DecodeBundle(std::string_view data,
                                CheckpointBundle* out);

/// Storage interface. Implementations must be thread-safe: the checkpoint
/// coordinator's committer writes while recovery or a test may read.
class SnapshotStore {
 public:
  virtual ~SnapshotStore() = default;

  /// Persists a completed checkpoint and returns the envelope CRC of what
  /// it wrote, which the next bundle's chain link names it by; nullopt
  /// when the write failed (the checkpoint is then counted as aborted;
  /// the pipeline continues).
  [[nodiscard]] virtual std::optional<std::uint32_t> Write(
      const CheckpointBundle& bundle) = 0;

  /// Latest completed checkpoint that decodes cleanly, or nullopt when
  /// none exists. Corrupt entries are skipped, not reported.
  virtual std::optional<CheckpointBundle> ReadLatest() const = 0;

  /// Checkpoint `id` when it is stored and decodes cleanly; else nullopt.
  virtual std::optional<CheckpointBundle> Read(std::int64_t id) const = 0;
};

/// Visits `latest` and then each predecessor its chain names, newest
/// first, reading them from `store`. Every link must resolve to a stored
/// bundle that decodes cleanly and matches the named id and CRC and
/// `latest`'s fingerprint. Returns an empty string for an intact chain,
/// else a description of the first broken link (visiting stops there).
std::string VisitChain(
    const SnapshotStore& store, const CheckpointBundle& latest,
    const std::function<void(const CheckpointBundle&)>& visit);

/// Keeps encoded bundles in a map; every read round-trips through the
/// wire format, so tests exercise exactly what the file store persists.
class MemorySnapshotStore : public SnapshotStore {
 public:
  [[nodiscard]] std::optional<std::uint32_t> Write(
      const CheckpointBundle& bundle) override;
  std::optional<CheckpointBundle> ReadLatest() const override;
  std::optional<CheckpointBundle> Read(std::int64_t id) const override;

  std::size_t size() const;

 private:
  mutable std::mutex mu_;
  std::map<std::int64_t, std::string> bundles_;  ///< id -> encoded
};

/// File-backed store: one `checkpoint-<id>.ckpt` per checkpoint, streamed
/// to a `.tmp` sibling piece by piece (EncodeBundle's bytes, the envelope
/// CRC chained over the pieces), closed - a failed close fails the write -
/// and published with one std::rename (atomic on POSIX), so the directory
/// itself is the index of completed ids.
/// ReadLatest scans it newest-first and returns the first bundle whose
/// CRCs verify. Other files, such as the `MANIFEST` that earlier builds
/// kept, are ignored.
class FileSnapshotStore : public SnapshotStore {
 public:
  /// Creates `directory` (and parents) when absent.
  explicit FileSnapshotStore(std::string directory);

  [[nodiscard]] std::optional<std::uint32_t> Write(
      const CheckpointBundle& bundle) override;
  std::optional<CheckpointBundle> ReadLatest() const override;
  std::optional<CheckpointBundle> Read(std::int64_t id) const override;

  const std::string& directory() const { return directory_; }

 private:
  std::string CheckpointPath(std::int64_t id) const;
  std::optional<CheckpointBundle> ReadFile(std::int64_t id) const;
  std::vector<std::int64_t> CompletedIds() const;

  std::string directory_;
  mutable std::mutex mu_;
};

}  // namespace comove::flow

#endif  // COMOVE_FLOW_CHECKPOINT_SNAPSHOT_STORE_H_
