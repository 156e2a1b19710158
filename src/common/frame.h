#ifndef COMOVE_COMMON_FRAME_H_
#define COMOVE_COMMON_FRAME_H_

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>

#include "common/crc32.h"

/// \file
/// The wire frame of the socket transport: a length prefix plus a CRC-32
/// guard over the payload,
///
///   [u32 payload_bytes][u32 crc32(payload)][payload]
///
/// both integers little-endian (the serde convention). The length bound
/// rejects absurd prefixes from a corrupt or misaligned stream before any
/// allocation; the CRC rejects payload bit flips. This codec is pure (no
/// fds), so the same functions back the socket reader and the wire-format
/// property tests.

namespace comove {

/// Bytes of the [len][crc] prefix.
inline constexpr std::size_t kFrameHeaderBytes = 8;

/// Upper bound on a single frame's payload. Generously above any element
/// the pipeline ships (a snapshot or a partition group is a few hundred
/// KiB), small enough that a corrupt length prefix cannot drive a
/// multi-gigabyte allocation.
inline constexpr std::uint32_t kMaxFramePayloadBytes = 256u << 20;

struct FrameHeader {
  std::uint32_t payload_bytes = 0;
  std::uint32_t crc = 0;
};

/// Appends one complete frame (header + payload) to `out`.
inline void AppendFrame(std::string* out, std::string_view payload) {
  const auto len = static_cast<std::uint32_t>(payload.size());
  const std::uint32_t crc = Crc32(payload);
  char header[kFrameHeaderBytes];
  std::memcpy(header, &len, sizeof(len));
  std::memcpy(header + sizeof(len), &crc, sizeof(crc));
  out->append(header, kFrameHeaderBytes);
  out->append(payload.data(), payload.size());
}

/// Decodes a header from exactly kFrameHeaderBytes. Returns nullopt when
/// the advertised length exceeds the frame bound (a corrupt or
/// misaligned stream).
inline std::optional<FrameHeader> DecodeFrameHeader(
    const char* bytes) {
  FrameHeader header;
  std::memcpy(&header.payload_bytes, bytes, sizeof(header.payload_bytes));
  std::memcpy(&header.crc, bytes + sizeof(header.payload_bytes),
              sizeof(header.crc));
  if (header.payload_bytes > kMaxFramePayloadBytes) return std::nullopt;
  return header;
}

/// True when `payload` matches the header's CRC guard.
inline bool ValidateFramePayload(const FrameHeader& header,
                                 std::string_view payload) {
  return payload.size() == header.payload_bytes &&
         Crc32(payload) == header.crc;
}

/// Convenience for tests and small control paths: decodes the first
/// complete, CRC-valid frame of `bytes` into `payload` and returns the
/// total frame size consumed; returns 0 when `bytes` is truncated or
/// corrupt.
inline std::size_t DecodeFrame(std::string_view bytes,
                               std::string_view* payload) {
  if (bytes.size() < kFrameHeaderBytes) return 0;
  const auto header = DecodeFrameHeader(bytes.data());
  if (!header) return 0;
  const std::size_t total = kFrameHeaderBytes + header->payload_bytes;
  if (bytes.size() < total) return 0;
  const std::string_view body =
      bytes.substr(kFrameHeaderBytes, header->payload_bytes);
  if (!ValidateFramePayload(*header, body)) return 0;
  *payload = body;
  return total;
}

}  // namespace comove

#endif  // COMOVE_COMMON_FRAME_H_
