// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320): the one checksum
// every artifact family pins its bytes with — snapshots (store/), the
// checkpoint and delta journal (core/), and MDP1 frames (ingest/).
//
// A leaf module so that each of those layers can depend on it without a
// layering cycle. Slicing-by-8: eight table lookups per 8 input bytes
// instead of one per byte, same values as the bytewise algorithm.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace mapit::net {

/// CRC-32 of `size` bytes at `data`. `seed` chains incremental updates:
/// crc32(b, crc32(a)) == crc32(a + b).
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t size,
                                  std::uint32_t seed = 0);

[[nodiscard]] inline std::uint32_t crc32(std::string_view bytes,
                                         std::uint32_t seed = 0) {
  return crc32(bytes.data(), bytes.size(), seed);
}

}  // namespace mapit::net
