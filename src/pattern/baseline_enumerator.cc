#include "pattern/baseline_enumerator.h"

#include <algorithm>
#include <bit>

#include "common/check.h"

namespace comove::pattern {

namespace {

/// Hard cap on |P_t(o)| before subset materialisation; exceeding it
/// aborts (the algorithm is exponential by design - the paper could not
/// run BA on its larger workloads either, see Fig. 12).
constexpr std::int32_t kMaxPartitionSize = 24;

/// True when `needle` (sorted) is a subset of `haystack` (sorted).
bool IsSubset(const std::vector<TrajectoryId>& needle,
              const std::vector<TrajectoryId>& haystack) {
  return std::includes(haystack.begin(), haystack.end(), needle.begin(),
                       needle.end());
}

/// Length of the final consecutive segment of `times`.
std::int32_t LastSegmentLength(const std::vector<Timestamp>& times) {
  std::int32_t len = 1;
  for (std::size_t i = times.size() - 1; i > 0; --i) {
    if (times[i] != times[i - 1] + 1) break;
    ++len;
  }
  return len;
}

}  // namespace

BaselineEnumerator::BaselineEnumerator(const PatternConstraints& constraints,
                                       PatternSink sink)
    : StreamingEnumerator(constraints, std::move(sink)),
      eta_(constraints.Eta()) {}

void BaselineEnumerator::ProcessTime(Timestamp time,
                                     PartitionsByOwner&& by_owner) {
  // Advance open windows of owners present at this tick.
  for (const auto& [owner, partition] : by_owner) {
    auto it = owners_.find(owner);
    if (it != owners_.end()) {
      AdvanceCandidates(&it->second, partition, owner);
    }
  }
  // Open a fresh window per present owner (candidates start with T = {t}).
  for (const auto& [owner, partition] : by_owner) {
    OpenWindow(&owners_[owner], partition);
  }
  CloseExpiredWindows(time);
}

void BaselineEnumerator::AdvanceCandidates(OwnerState* state,
                                           const Partition& partition,
                                           TrajectoryId owner) {
  for (Window& window : state->windows) {
    if (window.start == partition.time) continue;  // opened this tick
    auto& candidates = window.candidates;
    for (std::size_t i = 0; i < candidates.size();) {
      Candidate& cand = candidates[i];
      if (cand.done || !IsSubset(cand.objects, partition.members)) {
        ++i;
        continue;
      }
      const Timestamp gap = partition.time - cand.times.back();
      const std::int32_t last_segment = LastSegmentLength(cand.times);
      bool drop = false;
      if (gap == 1) {
        cand.times.push_back(partition.time);
      } else if (gap <= constraints().g && last_segment >= constraints().l) {
        cand.times.push_back(partition.time);
      } else {
        // Lemma 5 (gap with an unfinished segment) or Lemma 6 (gap > G):
        // this candidate can never be completed from this start time.
        drop = true;
      }
      if (drop) {
        candidates[i] = std::move(candidates.back());
        candidates.pop_back();
        --live_candidates_;
        ++stats_.strings_closed;
        continue;
      }
      if (static_cast<std::int32_t>(cand.times.size()) >= constraints().k &&
          LastSegmentLength(cand.times) >= constraints().l) {
        CoMovementPattern pattern;
        pattern.objects = cand.objects;
        pattern.objects.push_back(owner);
        std::sort(pattern.objects.begin(), pattern.objects.end());
        pattern.times = cand.times;
        sink()(pattern);
        cand.done = true;
      }
      ++i;
    }
  }
}

void BaselineEnumerator::OpenWindow(OwnerState* state,
                                    const Partition& partition) {
  const auto n = static_cast<std::int32_t>(partition.members.size());
  COMOVE_CHECK_MSG(n <= kMaxPartitionSize,
                   "BA cannot materialise 2^%d candidates (partition of %d "
                   "members); use FBA/VBA for workloads of this size",
                   n, n);
  Window window;
  window.start = partition.time;
  // Enumerate every subset with >= M-1 members (the owner is implicit).
  const std::uint32_t subsets = 1u << n;
  for (std::uint32_t mask = 1; mask < subsets; ++mask) {
    if (std::popcount(mask) < constraints().m - 1) continue;
    Candidate cand;
    cand.objects.reserve(static_cast<std::size_t>(std::popcount(mask)));
    for (std::int32_t b = 0; b < n; ++b) {
      if (mask & (1u << b)) {
        cand.objects.push_back(
            partition.members[static_cast<std::size_t>(b)]);
      }
    }
    cand.times.push_back(partition.time);
    window.candidates.push_back(std::move(cand));
  }
  live_candidates_ += window.candidates.size();
  stats_.strings_opened += static_cast<std::int64_t>(window.candidates.size());
  stats_.candidates_peak =
      std::max(stats_.candidates_peak,
               static_cast<std::int64_t>(live_candidates_));
  // Degenerate K = 1: patterns are already complete at their start time.
  if (constraints().k <= 1) {
    for (Candidate& cand : window.candidates) {
      CoMovementPattern pattern;
      pattern.objects = cand.objects;
      pattern.objects.push_back(partition.owner);
      std::sort(pattern.objects.begin(), pattern.objects.end());
      pattern.times = cand.times;
      sink()(pattern);
      cand.done = true;
    }
  }
  state->windows.push_back(std::move(window));
}

void BaselineEnumerator::CloseExpiredWindows(Timestamp now) {
  for (auto it = owners_.begin(); it != owners_.end();) {
    auto& windows = it->second.windows;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < windows.size(); ++i) {
      if (windows[i].start + eta_ - 1 > now) {
        if (kept != i) windows[kept] = std::move(windows[i]);
        ++kept;
      } else {
        live_candidates_ -= windows[i].candidates.size();
        stats_.strings_closed +=
            static_cast<std::int64_t>(windows[i].candidates.size());
      }
    }
    windows.resize(kept);
    if (windows.empty()) {
      it = owners_.erase(it);
    } else {
      ++it;
    }
  }
}

void BaselineEnumerator::FlushAtEnd(Timestamp next_time) {
  // All emissions are online; open windows can only contain incomplete
  // candidates, which a longer stream could not complete any better than
  // the empty suffix does. Processing eta empty ticks closes everything.
  if (next_time == kNoTime) return;
  for (std::int32_t i = 0; i < eta_; ++i) {
    ProcessTime(next_time + i, {});
  }
  COMOVE_CHECK(owners_.empty());
}

}  // namespace comove::pattern

namespace comove::pattern {

void BaselineEnumerator::SaveDerived(BinaryWriter* writer) const {
  writer->WriteU64(owners_.size());
  for (const auto& [owner, state] : owners_) {
    writer->WriteI64(owner);
    writer->WriteU64(state.windows.size());
    for (const Window& window : state.windows) {
      writer->WriteI32(window.start);
      writer->WriteU64(window.candidates.size());
      for (const Candidate& cand : window.candidates) {
        writer->WriteIntVector(cand.objects);
        writer->WriteIntVector(cand.times);
        writer->WriteBool(cand.done);
      }
    }
  }
}

bool BaselineEnumerator::RestoreDerived(BinaryReader* reader,
                                        Timestamp /*next_time*/) {
  owners_.clear();
  live_candidates_ = 0;
  const std::uint64_t owner_count = reader->ReadU64();
  for (std::uint64_t i = 0; i < owner_count && reader->ok(); ++i) {
    const TrajectoryId owner = reader->ReadI64();
    OwnerState state;
    const std::uint64_t window_count = reader->ReadU64();
    for (std::uint64_t w = 0; w < window_count && reader->ok(); ++w) {
      Window window;
      window.start = reader->ReadI32();
      const std::uint64_t cand_count = reader->ReadU64();
      for (std::uint64_t c = 0; c < cand_count && reader->ok(); ++c) {
        Candidate cand;
        cand.objects = reader->ReadIntVector<TrajectoryId>();
        cand.times = reader->ReadIntVector<Timestamp>();
        cand.done = reader->ReadBool();
        window.candidates.push_back(std::move(cand));
      }
      live_candidates_ += window.candidates.size();
      state.windows.push_back(std::move(window));
    }
    owners_.emplace(owner, std::move(state));
  }
  return reader->ok();
}

}  // namespace comove::pattern
