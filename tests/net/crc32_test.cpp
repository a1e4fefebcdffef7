// net::crc32 (slicing-by-8) against the IEEE check value and against a
// bytewise reference at every length around the 8-byte step and every
// start alignment.
#include "net/crc32.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <random>
#include <string_view>
#include <vector>

namespace mapit::net {
namespace {

/// The textbook bytewise reflected CRC-32, bit by bit: no table to share a
/// mistake with the implementation under test.
std::uint32_t reference_crc32(const unsigned char* data, std::size_t size) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32, IeeeCheckValue) {
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32(std::string_view("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
}

TEST(Crc32, SeededChainEqualsOneCall) {
  std::mt19937 rng(5);
  std::vector<unsigned char> bytes(1000);
  for (unsigned char& byte : bytes) byte = static_cast<unsigned char>(rng());
  const std::uint32_t whole = crc32(bytes.data(), bytes.size());
  // Uneven pieces, so pieces start off the 8-byte grid.
  for (const std::size_t piece : {1u, 3u, 7u, 8u, 13u, 64u, 999u}) {
    std::uint32_t chained = 0;
    for (std::size_t at = 0; at < bytes.size(); at += piece) {
      const std::size_t size = std::min(piece, bytes.size() - at);
      chained = crc32(bytes.data() + at, size, chained);
    }
    EXPECT_EQ(chained, whole) << "piece " << piece;
  }
}

TEST(Crc32, MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  std::mt19937 rng(11);
  std::array<unsigned char, 70 + 8> buffer{};
  for (int round = 0; round < 4; ++round) {
    for (unsigned char& byte : buffer) byte = static_cast<unsigned char>(rng());
    for (std::size_t offset = 0; offset < 8; ++offset) {
      for (std::size_t length = 0; length <= 70; ++length) {
        const unsigned char* data = buffer.data() + offset;
        ASSERT_EQ(crc32(data, length), reference_crc32(data, length))
            << "offset " << offset << " length " << length;
      }
    }
  }
}

}  // namespace
}  // namespace mapit::net
