#include "pattern/streaming_enumerator.h"

#include "common/check.h"

namespace comove::pattern {

StreamingEnumerator::StreamingEnumerator(
    const PatternConstraints& constraints, PatternSink sink)
    : constraints_(constraints), sink_(std::move(sink)) {
  COMOVE_CHECK(constraints.IsValid());
}

void StreamingEnumerator::OnClusterSnapshot(const ClusterSnapshot& snapshot) {
  OnPartitions(snapshot.time, MakePartitions(snapshot, constraints_));
}

void StreamingEnumerator::CatchUpTo(Timestamp time) {
  COMOVE_CHECK(!finished_);
  COMOVE_CHECK_MSG(next_time_ == kNoTime || time >= next_time_,
                   "ticks must be fed in ascending time order");
  if (next_time_ == kNoTime) next_time_ = time;
  while (next_time_ < time) {
    ProcessTime(next_time_, {});
    ++next_time_;
  }
}

void StreamingEnumerator::OnPartitions(Timestamp time,
                                       std::vector<Partition> partitions) {
  CatchUpTo(time);
  PartitionsByOwner by_owner;
  by_owner.reserve(partitions.size());
  for (Partition& p : partitions) {
    COMOVE_CHECK_MSG(p.time == time, "partition time mismatch");
    const TrajectoryId owner = p.owner;
    by_owner.emplace(owner, std::move(p));
  }
  ProcessTime(time, std::move(by_owner));
  ++next_time_;
}

void StreamingEnumerator::AdvanceTime(Timestamp time) {
  if (next_time_ == kNoTime) return;  // nothing buffered; nothing to age
  if (time < next_time_) return;
  CatchUpTo(time);
  ProcessTime(time, {});
  ++next_time_;
}

namespace {
// Checkpoint format version; bump on layout changes.
constexpr std::uint32_t kCheckpointMagic = 0xC0110E01u;
}  // namespace

void StreamingEnumerator::SaveState(BinaryWriter* writer) const {
  writer->WriteU32(kCheckpointMagic);
  writer->WriteI32(constraints_.m);
  writer->WriteI32(constraints_.k);
  writer->WriteI32(constraints_.l);
  writer->WriteI32(constraints_.g);
  writer->WriteI32(next_time_);
  writer->WriteBool(finished_);
  SaveDerived(writer);
}

bool StreamingEnumerator::RestoreState(BinaryReader* reader) {
  // Restoring over already-processed ticks would silently merge two
  // incompatible histories; only a freshly-constructed enumerator may
  // load a checkpoint.
  if (next_time_ != kNoTime || finished_) return false;
  if (reader->ReadU32() != kCheckpointMagic) return false;
  const PatternConstraints saved{reader->ReadI32(), reader->ReadI32(),
                                 reader->ReadI32(), reader->ReadI32()};
  if (!reader->ok() || !(saved == constraints_)) return false;
  const Timestamp next = reader->ReadI32();
  const bool finished = reader->ReadBool();
  if (!reader->ok() || !RestoreDerived(reader, next)) return false;
  next_time_ = next;
  finished_ = finished;
  return true;
}

void StreamingEnumerator::Finish() {
  COMOVE_CHECK(!finished_);
  FlushAtEnd(next_time_);
  finished_ = true;
}

}  // namespace comove::pattern
