#ifndef COMOVE_PATTERN_BASELINE_ENUMERATOR_H_
#define COMOVE_PATTERN_BASELINE_ENUMERATOR_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "pattern/streaming_enumerator.h"

/// \file
/// BA - the baseline enumerator (Algorithm 3), an adaptation of SPARE [10]
/// to streams via id-based partitioning. For every partition P_t(o) it
/// materialises ALL subsets with >= M-1 members as candidates (O(2^|P|)
/// time and storage - the cost the bit-compression methods remove) and
/// verifies each against the next eta snapshots using Lemmas 5 and 6.

namespace comove::pattern {

/// Tuning of the baseline.
struct BaselineOptions {
  /// Hard cap on |P_t(o)| before subset materialisation; exceeding it
  /// aborts (the algorithm is exponential by design - the paper could not
  /// run BA on its larger workloads either, see Fig. 12).
  std::int32_t max_partition_size = 24;
};

/// Streaming BA enumerator covering all owners routed to this instance.
class BaselineEnumerator : public StreamingEnumerator {
 public:
  BaselineEnumerator(const PatternConstraints& constraints,
                     PatternSink sink, BaselineOptions options = {});

  /// Number of live candidates across all verification windows (the
  /// O(2^|P|) storage the paper talks about; exposed for tests/benches).
  std::size_t live_candidates() const { return live_candidates_; }

  /// Time t is decided once the window anchored at t has been verified
  /// against its eta snapshots, i.e. after tick t + eta - 1.
  Timestamp FinalizedThrough() const override {
    return last_fed() == kNoTime ? kNoTime : last_fed() - (eta_ - 1);
  }

  EnumerationStats enumeration_stats() const override { return stats_; }

 protected:
  void ProcessTime(Timestamp time, PartitionsByOwner&& by_owner) override;
  void FlushAtEnd(Timestamp next_time) override;
  void SaveDerived(BinaryWriter* writer) const override;
  bool RestoreDerived(BinaryReader* reader, Timestamp next_time) override;

 private:
  /// One candidate pattern O within a verification window.
  struct Candidate {
    std::vector<TrajectoryId> objects;  ///< excludes the owner, sorted
    std::vector<Timestamp> times;       ///< accumulated time sequence T
    bool done = false;                  ///< emitted; kept to avoid re-emit
  };

  /// A verification window anchored at one start partition.
  struct Window {
    Timestamp start = 0;
    std::vector<Candidate> candidates;
  };

  struct OwnerState {
    std::vector<Window> windows;  ///< open windows, ascending start
  };

  void AdvanceCandidates(OwnerState* state, const Partition& partition,
                         TrajectoryId owner);
  void OpenWindow(OwnerState* state, const Partition& partition);
  void CloseExpiredWindows(Timestamp now);

  BaselineOptions options_;
  std::int32_t eta_;
  std::unordered_map<TrajectoryId, OwnerState> owners_;
  std::size_t live_candidates_ = 0;
  EnumerationStats stats_;
};

}  // namespace comove::pattern

#endif  // COMOVE_PATTERN_BASELINE_ENUMERATOR_H_
