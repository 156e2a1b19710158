#ifndef COMOVE_E2EBENCH_DIGEST_H_
#define COMOVE_E2EBENCH_DIGEST_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "common/types.h"

namespace comove::e2ebench {

/// Digest of a pattern multiset that does not depend on the order the
/// patterns arrive in: they are sorted by (objects, times) and fed to
/// 64-bit FNV-1a, count and lengths included so no two multisets share an
/// encoding. Every deployment must agree on it for the same stream.
inline std::string PatternDigest(std::vector<CoMovementPattern> patterns) {
  std::sort(patterns.begin(), patterns.end(),
            [](const CoMovementPattern& a, const CoMovementPattern& b) {
              return std::tie(a.objects, a.times) <
                     std::tie(b.objects, b.times);
            });
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  mix(patterns.size());
  for (const CoMovementPattern& p : patterns) {
    mix(p.objects.size());
    for (const TrajectoryId id : p.objects) mix(static_cast<std::uint64_t>(id));
    mix(p.times.size());
    for (const Timestamp t : p.times) mix(static_cast<std::uint64_t>(t));
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

}  // namespace comove::e2ebench

#endif  // COMOVE_E2EBENCH_DIGEST_H_
