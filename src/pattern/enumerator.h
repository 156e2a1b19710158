#ifndef COMOVE_PATTERN_ENUMERATOR_H_
#define COMOVE_PATTERN_ENUMERATOR_H_

#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "common/types.h"

/// \file
/// The output side of the three pattern-enumeration algorithms (§6): BA
/// (baseline), FBA (fixed-length bit compression) and VBA
/// (variable-length bit compression) emit co-movement patterns to a sink
/// callback as soon as they can prove them (their shared streaming base
/// is pattern/streaming_enumerator.h); PatternCollector folds such a
/// stream into the deduplicated result set.

namespace comove::pattern {

/// Receives detected patterns. May be called multiple times for the same
/// object set (different start times can re-discover a pattern); use
/// PatternCollector when a deduplicated result set is wanted.
using PatternSink = std::function<void(const CoMovementPattern&)>;

/// Convenience sink that deduplicates by object set, keeping the longest
/// witness time sequence seen for each set (the first one seen, among
/// equally long ones).
class PatternCollector {
 public:
  PatternSink AsSink() {
    return [this](const CoMovementPattern& p) { Add(p); };
  }

  void Add(const CoMovementPattern& p) { Fold(p, /*earlier=*/false); }
  void Add(CoMovementPattern&& p) { Fold(std::move(p), /*earlier=*/false); }

  /// Adds a pattern seen before every pattern held so far: on equal
  /// lengths it replaces the held one. Folding logs newest first with
  /// AddEarlier keeps what folding them oldest first with Add keeps.
  void AddEarlier(CoMovementPattern&& p) {
    Fold(std::move(p), /*earlier=*/true);
  }

  /// Folds in `other`'s patterns, keeping what Add-ing them one by one
  /// keeps: the longer of two patterns of one set, the held one on a tie.
  /// Moves `other`'s map nodes over instead of copying patterns, so it
  /// allocates nothing; `other` is left empty.
  void Merge(PatternCollector&& other) {
    patterns_.merge(other.patterns_);
    // What stayed behind are the sets held by both.
    for (auto& [objects, p] : other.patterns_) {
      CoMovementPattern& held = patterns_.find(objects)->second;
      if (p.times.size() > held.times.size()) held = std::move(p);
    }
    other.patterns_.clear();
  }

  /// Deduplicated patterns ordered by object set.
  std::vector<CoMovementPattern> Patterns() const& {
    std::vector<CoMovementPattern> out;
    out.reserve(patterns_.size());
    for (const auto& [objects, p] : patterns_) out.push_back(p);
    return out;
  }

  /// The same, moved out of an expiring collector instead of copied.
  std::vector<CoMovementPattern> Patterns() && {
    std::vector<CoMovementPattern> out;
    out.reserve(patterns_.size());
    for (auto& [objects, p] : patterns_) out.push_back(std::move(p));
    patterns_.clear();
    return out;
  }

  /// In-place view of the deduplicated patterns, ordered by object set —
  /// for callers (checkpoint serialisation) that must not pay Patterns()'s
  /// deep copy.
  const std::map<std::vector<TrajectoryId>, CoMovementPattern>& entries()
      const {
    return patterns_;
  }

  std::size_t size() const { return patterns_.size(); }

 private:
  template <typename P>
  void Fold(P&& p, bool earlier) {
    // The node's key is copied from `p` before its value is built from
    // it, and try_emplace leaves `p` untouched when the set is held.
    auto [it, inserted] =
        patterns_.try_emplace(p.objects, std::forward<P>(p));
    if (!inserted && (p.times.size() > it->second.times.size() ||
                      (earlier &&
                       p.times.size() == it->second.times.size()))) {
      it->second = std::forward<P>(p);
    }
  }

  std::map<std::vector<TrajectoryId>, CoMovementPattern> patterns_;
};

}  // namespace comove::pattern

#endif  // COMOVE_PATTERN_ENUMERATOR_H_
