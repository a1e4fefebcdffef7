#include "net/crc32.h"

#include <array>
#include <bit>
#include <cstring>

namespace mapit::net {

namespace {

/// tables[0] is the bytewise table; tables[k][i] is the CRC of byte i
/// followed by k zero bytes, so eight lookups advance the CRC 8 bytes.
using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

Tables make_tables() {
  Tables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
    tables[0][i] = crc;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    for (std::size_t k = 1; k < 8; ++k) {
      const std::uint32_t previous = tables[k - 1][i];
      tables[k][i] = (previous >> 8) ^ tables[0][previous & 0xFFu];
    }
  }
  return tables;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  static const Tables tables = make_tables();
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t crc = seed ^ 0xFFFFFFFFu;
  // The 8-byte step reads two little-endian words; on a big-endian host
  // only the bytewise loop runs.
  if constexpr (std::endian::native == std::endian::little) {
    for (; size >= 8; size -= 8, bytes += 8) {
      std::uint32_t low;
      std::uint32_t high;
      std::memcpy(&low, bytes, 4);
      std::memcpy(&high, bytes + 4, 4);
      low ^= crc;
      crc = tables[7][low & 0xFFu] ^ tables[6][(low >> 8) & 0xFFu] ^
            tables[5][(low >> 16) & 0xFFu] ^ tables[4][low >> 24] ^
            tables[3][high & 0xFFu] ^ tables[2][(high >> 8) & 0xFFu] ^
            tables[1][(high >> 16) & 0xFFu] ^ tables[0][high >> 24];
    }
  }
  for (; size > 0; --size, ++bytes) {
    crc = (crc >> 8) ^ tables[0][(crc ^ *bytes) & 0xFFu];
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace mapit::net
