// The flat open-addressing containers: FlatSet64 (the cold path's distinct
// address and pair sets) and AddressIndex (the dense layout's address to
// interface-index table).
#include "net/flat_set.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <set>
#include <vector>

namespace mapit::net {
namespace {

constexpr std::uint32_t kLowest = 0x00000000u;   // 0.0.0.0
constexpr std::uint32_t kHighest = 0xFFFFFFFFu;  // 255.255.255.255

TEST(FlatSet64, ExtremeAddressesAreKeys) {
  FlatSet64 set;
  EXPECT_FALSE(set.contains(kLowest));
  EXPECT_TRUE(set.insert(kLowest));
  EXPECT_TRUE(set.insert(kHighest));
  EXPECT_FALSE(set.insert(kLowest));
  EXPECT_FALSE(set.insert(kHighest));
  EXPECT_TRUE(set.contains(kLowest));
  EXPECT_TRUE(set.contains(kHighest));
  EXPECT_EQ(set.size(), 2u);
}

TEST(FlatSet64, GrowsAcrossTheHalfFullBoundary) {
  // The first table has 64 slots and holds 32 keys; the 33rd grows it.
  FlatSet64 set;
  for (std::uint64_t key = 0; key < 33; ++key) {
    EXPECT_TRUE(set.insert(key * 4));
    for (std::uint64_t earlier = 0; earlier <= key; ++earlier) {
      ASSERT_TRUE(set.contains(earlier * 4)) << earlier << " after " << key;
    }
    EXPECT_FALSE(set.contains(key * 4 + 1));
  }
  for (std::uint64_t key = 33; key < 1000; ++key) set.insert(key * 4);
  EXPECT_EQ(set.size(), 1000u);
  for (std::uint64_t key = 0; key < 1000; ++key) {
    EXPECT_TRUE(set.contains(key * 4));
    EXPECT_FALSE(set.contains(key * 4 + 2));
  }
}

TEST(FlatSet64, KeysDifferingInOneWordStayDistinct) {
  FlatSet64 set;
  const std::uint64_t high = std::uint64_t{0x0B000001} << 32;
  for (std::uint64_t low = 0; low < 200; ++low) {
    EXPECT_TRUE(set.insert(high | low));  // only the low word differs
  }
  for (std::uint64_t word = 1; word <= 200; ++word) {
    EXPECT_TRUE(set.insert(word << 32 | 0x0B000001));  // only the high word
  }
  EXPECT_EQ(set.size(), 400u);
  for (std::uint64_t low = 0; low < 200; ++low) {
    EXPECT_TRUE(set.contains(high | low));
  }
  for (std::uint64_t word = 1; word <= 200; ++word) {
    EXPECT_TRUE(set.contains(word << 32 | 0x0B000001));
  }
  EXPECT_FALSE(set.contains(high | 200));
  EXPECT_FALSE(set.contains(std::uint64_t{201} << 32 | 0x0B000001));
  EXPECT_FALSE(set.contains(0x0B000001));
}

TEST(FlatSet64, AbsentKeysAreAbsent) {
  FlatSet64 set;
  EXPECT_FALSE(set.contains(7));  // empty table
  std::mt19937_64 rng(3);
  std::set<std::uint64_t> keys;
  while (keys.size() < 500) keys.insert(rng() >> 1);
  for (std::uint64_t key : keys) set.insert(key);
  for (int probe = 0; probe < 2000; ++probe) {
    const std::uint64_t key = rng() >> 1;
    EXPECT_EQ(set.contains(key), keys.contains(key));
  }
}

TEST(FlatSet64, ForEachVisitsEachKeyOnce) {
  FlatSet64 set;
  std::mt19937 rng(9);
  std::multiset<std::uint64_t> inserted;
  for (int i = 0; i < 3000; ++i) {
    const std::uint64_t key = rng() % 1500;  // many repeats
    set.insert(key);
    inserted.insert(key);
  }
  std::multiset<std::uint64_t> visited;
  set.for_each([&](std::uint64_t key) { visited.insert(key); });
  const std::set<std::uint64_t> distinct(inserted.begin(), inserted.end());
  EXPECT_EQ(visited.size(), distinct.size());
  EXPECT_EQ(std::set<std::uint64_t>(visited.begin(), visited.end()), distinct);
  EXPECT_EQ(set.size(), distinct.size());
}

TEST(FlatSet64, SortedAddressesAscend) {
  FlatSet64 set;
  for (std::uint32_t value : {kHighest, 0x0B000002u, kLowest, 0x0A000001u,
                              0x0B000001u, 0x0B000002u}) {
    set.insert(value);
  }
  const std::vector<Ipv4Address> sorted = sorted_addresses(set);
  const std::vector<Ipv4Address> expected = {
      Ipv4Address(kLowest), Ipv4Address(0x0A000001u),
      Ipv4Address(0x0B000001u), Ipv4Address(0x0B000002u),
      Ipv4Address(kHighest)};
  EXPECT_EQ(sorted, expected);
  EXPECT_TRUE(sorted_addresses(FlatSet64{}).empty());
}

TEST(FlatSet64, ReservedSetHoldsTheSameKeys) {
  FlatSet64 reserved;
  reserved.reserve(1000);
  for (std::uint64_t key = 0; key < 1000; ++key) reserved.insert(key * 3);
  EXPECT_EQ(reserved.size(), 1000u);
  std::set<std::uint64_t> visited;
  reserved.for_each([&](std::uint64_t key) { visited.insert(key); });
  EXPECT_EQ(visited.size(), 1000u);
  for (std::uint64_t key = 0; key < 1000; ++key) {
    EXPECT_TRUE(reserved.contains(key * 3));
    EXPECT_FALSE(reserved.contains(key * 3 + 1));
  }
}

TEST(AddressIndex, ExtremeAddressesAreKeys) {
  AddressIndex index;
  EXPECT_EQ(index.find(Ipv4Address(kLowest)), AddressIndex::kAbsent);
  EXPECT_TRUE(index.insert(Ipv4Address(kLowest), 0));
  EXPECT_TRUE(index.insert(Ipv4Address(kHighest), 1));
  EXPECT_EQ(index.find(Ipv4Address(kLowest)), 0u);
  EXPECT_EQ(index.find(Ipv4Address(kHighest)), 1u);
  // The largest index next to the largest address still reads back.
  AddressIndex edge;
  EXPECT_TRUE(edge.insert(Ipv4Address(kHighest), AddressIndex::kAbsent - 1));
  EXPECT_EQ(edge.find(Ipv4Address(kHighest)), AddressIndex::kAbsent - 1);
  EXPECT_EQ(edge.find(Ipv4Address(kHighest - 1)), AddressIndex::kAbsent);
}

TEST(AddressIndex, FirstInsertWins) {
  AddressIndex index;
  EXPECT_TRUE(index.insert(Ipv4Address(0x0B000001u), 5));
  EXPECT_FALSE(index.insert(Ipv4Address(0x0B000001u), 9));
  EXPECT_EQ(index.find(Ipv4Address(0x0B000001u)), 5u);
  EXPECT_EQ(index.size(), 1u);
}

TEST(AddressIndex, GrowsAcrossTheHalfFullBoundary) {
  AddressIndex index;
  for (std::uint32_t i = 0; i < 33; ++i) {
    EXPECT_TRUE(index.insert(Ipv4Address(0x0B000000u + i), i));
    for (std::uint32_t earlier = 0; earlier <= i; ++earlier) {
      ASSERT_EQ(index.find(Ipv4Address(0x0B000000u + earlier)), earlier)
          << earlier << " after " << i;
    }
  }
  for (std::uint32_t i = 33; i < 5000; ++i) {
    index.insert(Ipv4Address(0x0B000000u + i), i);
  }
  EXPECT_EQ(index.size(), 5000u);
  for (std::uint32_t i = 0; i < 5000; ++i) {
    EXPECT_EQ(index.find(Ipv4Address(0x0B000000u + i)), i);
  }
}

TEST(AddressIndex, ReservedTableHoldsItsCountAndMissesAbsentKeys) {
  std::mt19937 rng(17);
  std::vector<std::uint32_t> keys;
  std::set<std::uint32_t> present;
  while (keys.size() < 2000) {
    const std::uint32_t key = static_cast<std::uint32_t>(rng());
    if (present.insert(key).second) keys.push_back(key);
  }
  AddressIndex index;
  index.reserve(keys.size());
  for (std::uint32_t i = 0; i < keys.size(); ++i) {
    EXPECT_TRUE(index.insert(Ipv4Address(keys[i]), i));
  }
  for (std::uint32_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(index.find(Ipv4Address(keys[i])), i);
  }
  for (int probe = 0; probe < 5000; ++probe) {
    const std::uint32_t key = static_cast<std::uint32_t>(rng());
    if (!present.contains(key)) {
      EXPECT_EQ(index.find(Ipv4Address(key)), AddressIndex::kAbsent);
    }
  }
  EXPECT_EQ(AddressIndex{}.find(Ipv4Address(kLowest)), AddressIndex::kAbsent);
}

}  // namespace
}  // namespace mapit::net
