#ifndef COMOVE_FLOW_WATERMARK_ALIGNER_H_
#define COMOVE_FLOW_WATERMARK_ALIGNER_H_

#include <algorithm>
#include <limits>
#include <optional>
#include <vector>

#include "common/check.h"
#include "common/serde.h"
#include "common/types.h"

/// \file
/// Watermark alignment across multiple producers feeding one subtask. The
/// aligned watermark is the minimum of the per-producer watermarks; it only
/// advances when the slowest producer advances.

namespace comove::flow {

/// Tracks per-producer watermarks and reports advances of their minimum.
class WatermarkAligner {
 public:
  explicit WatermarkAligner(std::int32_t producer_count)
      : marks_(static_cast<std::size_t>(producer_count),
               std::numeric_limits<Timestamp>::min()) {
    COMOVE_CHECK(producer_count > 0);
  }

  /// Records watermark `t` from `producer`. Returns the new aligned
  /// watermark when the alignment advanced, nullopt otherwise.
  std::optional<Timestamp> Update(std::int32_t producer, Timestamp t) {
    COMOVE_CHECK_MSG(
        producer >= 0 &&
            static_cast<std::size_t>(producer) < marks_.size(),
        "watermark from producer %d but aligner tracks only [0, %d)",
        producer, static_cast<int>(marks_.size()));
    auto& mark = marks_[static_cast<std::size_t>(producer)];
    mark = std::max(mark, t);
    const Timestamp aligned = *std::min_element(marks_.begin(), marks_.end());
    if (aligned > aligned_) {
      aligned_ = aligned;
      return aligned_;
    }
    return std::nullopt;
  }

  /// Current aligned watermark (min over producers); Timestamp::min until
  /// every producer has reported at least once.
  Timestamp aligned() const { return aligned_; }

  /// Serialises the per-producer marks and the aligned watermark.
  void SaveState(BinaryWriter* writer) const {
    writer->WriteIntVector(marks_);
    writer->WriteI64(aligned_);
  }

  /// Restores a SaveState image. Returns false - leaving this aligner
  /// unchanged - on corrupt input, a producer-count mismatch, or an
  /// aligned watermark that is not the minimum of the producer marks
  /// (Update keeps them equal: marks only rise, and so does their min).
  [[nodiscard]] bool RestoreState(BinaryReader* reader) {
    auto marks = reader->ReadIntVector<Timestamp>();
    const auto aligned = static_cast<Timestamp>(reader->ReadI64());
    if (!reader->ok() || marks.size() != marks_.size() ||
        aligned != *std::min_element(marks.begin(), marks.end())) {
      return false;
    }
    marks_ = std::move(marks);
    aligned_ = aligned;
    return true;
  }

 private:
  std::vector<Timestamp> marks_;
  Timestamp aligned_ = std::numeric_limits<Timestamp>::min();
};

}  // namespace comove::flow

#endif  // COMOVE_FLOW_WATERMARK_ALIGNER_H_
