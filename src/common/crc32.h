#ifndef COMOVE_COMMON_CRC32_H_
#define COMOVE_COMMON_CRC32_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

/// \file
/// CRC-32 (IEEE 802.3 polynomial, the zlib/gzip variant) for checkpoint
/// integrity: every operator-state blob and the bundle envelope carry a
/// checksum, so a torn write or bit rot in the snapshot store is detected
/// and the checkpoint skipped instead of restored into a corrupt pipeline.
/// Slicing-by-8 implementation: checkpoint encoding checksums every state
/// blob plus the whole envelope, so the CRC runs twice over each snapshot
/// byte on the store write's path.

namespace comove {

namespace internal {

/// table[0] is the classic byte-at-a-time table; table[k][b] extends it to
/// the CRC contribution of byte b seen k positions earlier, letting the
/// main loop fold 8 input bytes per iteration with independent lookups.
inline const std::array<std::array<std::uint32_t, 256>, 8>& Crc32Tables() {
  static const std::array<std::array<std::uint32_t, 256>, 8> tables = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = t[0][i];
      for (std::size_t k = 1; k < 8; ++k) {
        c = t[0][c & 0xFFu] ^ (c >> 8);
        t[k][i] = c;
      }
    }
    return t;
  }();
  return tables;
}

}  // namespace internal

/// CRC-32 of `data` (initial value and final XOR per the standard).
/// `crc` chains: passing the CRC of the bytes before `data` returns the
/// CRC of both, so a writer can checksum what it writes piece by piece.
inline std::uint32_t Crc32(std::string_view data, std::uint32_t crc = 0) {
  const auto& t = internal::Crc32Tables();
  const unsigned char* p =
      reinterpret_cast<const unsigned char*>(data.data());
  std::size_t len = data.size();
  crc ^= 0xFFFFFFFFu;
  while (len >= 8) {
    // Compose the two words from bytes so the load is endian-neutral;
    // compilers lower this to a plain load on little-endian targets.
    const std::uint32_t lo =
        static_cast<std::uint32_t>(p[0]) |
        (static_cast<std::uint32_t>(p[1]) << 8) |
        (static_cast<std::uint32_t>(p[2]) << 16) |
        (static_cast<std::uint32_t>(p[3]) << 24);
    const std::uint32_t hi =
        static_cast<std::uint32_t>(p[4]) |
        (static_cast<std::uint32_t>(p[5]) << 8) |
        (static_cast<std::uint32_t>(p[6]) << 16) |
        (static_cast<std::uint32_t>(p[7]) << 24);
    crc ^= lo;
    crc = t[7][crc & 0xFFu] ^ t[6][(crc >> 8) & 0xFFu] ^
          t[5][(crc >> 16) & 0xFFu] ^ t[4][crc >> 24] ^
          t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
          t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    p += 8;
    len -= 8;
  }
  for (; len > 0; ++p, --len) {
    crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace comove

#endif  // COMOVE_COMMON_CRC32_H_
