#include "flow/snapshot_assembler.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace comove::flow {

namespace {
constexpr Timestamp kMaxTime = std::numeric_limits<Timestamp>::max();
}  // namespace

std::vector<Snapshot> SnapshotAssembler::OnRecord(const GpsRecord& record) {
  COMOVE_CHECK(!finished_);
  COMOVE_CHECK_MSG(record.time > record.last_time,
                   "record time must exceed its last_time link");
  TrajectoryState& state = trajectories_[record.id];
  COMOVE_CHECK_MSG(!state.ended, "record after trajectory end (id=%lld)",
                   static_cast<long long>(record.id));

  if (record.last_time != state.last_seen) {
    // Predecessor missing: buffer until the chain closes. Records strictly
    // older than what we already applied are duplicates/corrupt; drop them.
    if (record.time > state.last_seen) {
      auto [it, inserted] = state.pending.emplace(record.last_time, record);
      if (inserted) ++pending_count_;
    }
    return {};
  }

  // Apply the record and any buffered successors it unblocks.
  const bool newly_seen = state.last_seen == kNoTime;
  if (!newly_seen) {
    live_horizons_.erase(live_horizons_.find(state.last_seen));
  }
  Apply(record, &state);
  auto it = state.pending.find(state.last_seen);
  while (it != state.pending.end()) {
    const GpsRecord next = it->second;
    state.pending.erase(it);
    --pending_count_;
    Apply(next, &state);
    it = state.pending.find(state.last_seen);
  }
  live_horizons_.insert(state.last_seen);
  return Drain();
}

void SnapshotAssembler::Apply(const GpsRecord& record,
                              TrajectoryState* state) {
  state->last_seen = record.time;
  accumulating_[record.time].push_back(
      SnapshotEntry{record.id, record.location});
}

std::vector<Snapshot> SnapshotAssembler::OnTrajectoryEnd(TrajectoryId id) {
  COMOVE_CHECK(!finished_);
  auto it = trajectories_.find(id);
  if (it == trajectories_.end()) {
    // End of a trajectory we never saw: remember so late records fail fast.
    TrajectoryState& state = trajectories_[id];
    state.ended = true;
    return Drain();
  }
  TrajectoryState& state = it->second;
  if (!state.ended && state.last_seen != kNoTime) {
    live_horizons_.erase(live_horizons_.find(state.last_seen));
  }
  state.ended = true;
  COMOVE_CHECK_MSG(state.pending.empty(),
                   "trajectory %lld ended with unresolved out-of-order records",
                   static_cast<long long>(id));
  return Drain();
}

std::vector<Snapshot> SnapshotAssembler::AdvanceBirthBound(Timestamp t) {
  COMOVE_CHECK(!finished_);
  birth_bound_ = std::max(birth_bound_, t);
  return Drain();
}

Timestamp SnapshotAssembler::Horizon() const {
  // Snapshot t is complete when (a) no new trajectory can be born at <= t,
  // and (b) every live trajectory's knowledge frontier has passed t.
  Timestamp horizon = birth_bound_;
  if (!live_horizons_.empty()) {
    horizon = std::min(horizon, *live_horizons_.begin());
  }
  return horizon;
}

std::vector<Snapshot> SnapshotAssembler::Drain() {
  std::vector<Snapshot> out;
  const Timestamp horizon = finished_ ? kMaxTime : Horizon();
  while (!accumulating_.empty() &&
         accumulating_.begin()->first <= horizon) {
    Snapshot snap;
    snap.time = accumulating_.begin()->first;
    snap.entries = std::move(accumulating_.begin()->second);
    std::sort(snap.entries.begin(), snap.entries.end(),
              [](const SnapshotEntry& a, const SnapshotEntry& b) {
                return a.id < b.id;
              });
    accumulating_.erase(accumulating_.begin());
    emitted_through_ = snap.time;
    out.push_back(std::move(snap));
  }
  return out;
}

std::vector<Snapshot> SnapshotAssembler::Finish() {
  COMOVE_CHECK(!finished_);
  // Best-effort recovery: apply surviving out-of-order records in time
  // order even though their chains never closed (data loss upstream).
  std::vector<GpsRecord> leftovers;
  for (auto& [id, state] : trajectories_) {
    for (auto& [last, rec] : state.pending) leftovers.push_back(rec);
    state.pending.clear();
  }
  pending_count_ = 0;
  std::sort(leftovers.begin(), leftovers.end(),
            [](const GpsRecord& a, const GpsRecord& b) {
              return a.time < b.time;
            });
  for (const GpsRecord& rec : leftovers) {
    TrajectoryState& state = trajectories_[rec.id];
    if (rec.time > state.last_seen) {
      state.last_seen = rec.time;
      accumulating_[rec.time].push_back(SnapshotEntry{rec.id, rec.location});
    }
  }
  finished_ = true;
  return Drain();
}

}  // namespace comove::flow

namespace comove::flow {

bool SnapshotAssembler::SitsAtBoundary(Timestamp t) const {
  if (birth_bound_ != t - 1) return false;
  for (const auto& [id, state] : trajectories_) {
    if (state.last_seen >= t) return false;
    for (const auto& [last, record] : state.pending) {
      if (record.time >= t) return false;
    }
  }
  return accumulating_.empty() || accumulating_.rbegin()->first < t;
}

void SnapshotAssembler::SaveState(BinaryWriter* writer) const {
  writer->WriteI32(birth_bound_);
  writer->WriteI32(emitted_through_);
  writer->WriteBool(finished_);
  writer->WriteU64(trajectories_.size());
  for (const auto* entry : InKeyOrder(trajectories_)) {
    const auto& [id, state] = *entry;
    writer->WriteI64(id);
    writer->WriteI32(state.last_seen);
    writer->WriteBool(state.ended);
    writer->WriteU64(state.pending.size());
    for (const auto& [last, record] : state.pending) {
      writer->WriteI64(record.id);
      writer->WriteDouble(record.location.x);
      writer->WriteDouble(record.location.y);
      writer->WriteI32(record.time);
      writer->WriteI32(record.last_time);
    }
  }
  writer->WriteU64(accumulating_.size());
  for (const auto& [time, entries] : accumulating_) {
    writer->WriteI32(time);
    writer->WriteU64(entries.size());
    for (const SnapshotEntry& e : entries) {
      writer->WriteI64(e.id);
      writer->WriteDouble(e.location.x);
      writer->WriteDouble(e.location.y);
    }
  }
}

bool SnapshotAssembler::RestoreState(BinaryReader* reader) {
  *this = SnapshotAssembler();
  const auto reject = [this] {
    *this = SnapshotAssembler();
    return false;
  };
  birth_bound_ = reader->ReadI32();
  emitted_through_ = reader->ReadI32();
  finished_ = reader->ReadBool();
  // No barrier follows Finish, so no checkpoint holds a finished state.
  if (finished_) return reject();
  const std::uint64_t trajectory_count = reader->ReadU64();
  for (std::uint64_t i = 0; i < trajectory_count && reader->ok(); ++i) {
    const TrajectoryId id = reader->ReadI64();
    TrajectoryState state;
    state.last_seen = reader->ReadI32();
    state.ended = reader->ReadBool();
    const std::uint64_t pending_count = reader->ReadU64();
    // Ending a trajectory requires its chain to be closed.
    if (state.ended && pending_count > 0) return reject();
    for (std::uint64_t pi = 0; pi < pending_count && reader->ok(); ++pi) {
      GpsRecord record;
      record.id = reader->ReadI64();
      record.location.x = reader->ReadDouble();
      record.location.y = reader->ReadDouble();
      record.time = reader->ReadI32();
      record.last_time = reader->ReadI32();
      // OnRecord buffers only this trajectory's records newer than its
      // frontier, one per last_time link.
      if (record.id != id || record.time <= state.last_seen ||
          !state.pending.emplace(record.last_time, record).second) {
        return reject();
      }
      ++pending_count_;
    }
    if (!state.ended && state.last_seen != kNoTime) {
      live_horizons_.insert(state.last_seen);
    }
    if (!trajectories_.emplace(id, std::move(state)).second) return reject();
  }
  const std::uint64_t snapshot_count = reader->ReadU64();
  for (std::uint64_t i = 0; i < snapshot_count && reader->ok(); ++i) {
    const Timestamp time = reader->ReadI32();
    const std::uint64_t entry_count = reader->ReadU64();
    std::vector<SnapshotEntry> entries;
    for (std::uint64_t e = 0; e < entry_count && reader->ok(); ++e) {
      SnapshotEntry entry;
      entry.id = reader->ReadI64();
      entry.location.x = reader->ReadDouble();
      entry.location.y = reader->ReadDouble();
      entries.push_back(entry);
    }
    // Drain emits in time order, so nothing at or before emitted_through
    // still accumulates.
    if (time <= emitted_through_ ||
        !accumulating_.emplace(time, std::move(entries)).second) {
      return reject();
    }
  }
  if (!reader->ok()) return reject();
  return true;
}

}  // namespace comove::flow
