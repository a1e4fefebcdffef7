#include "net/ipv4.h"

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <unordered_set>

#include "net/error.h"

namespace mapit::net {
namespace {

TEST(Ipv4Address, DefaultIsZero) {
  EXPECT_EQ(Ipv4Address().value(), 0u);
  EXPECT_EQ(Ipv4Address().to_string(), "0.0.0.0");
}

TEST(Ipv4Address, OctetConstruction) {
  const Ipv4Address a(198, 71, 46, 180);
  EXPECT_EQ(a.value(), 0xC6472EB4u);
  EXPECT_EQ(a.octet(0), 198);
  EXPECT_EQ(a.octet(1), 71);
  EXPECT_EQ(a.octet(2), 46);
  EXPECT_EQ(a.octet(3), 180);
}

TEST(Ipv4Address, ParseValid) {
  const auto a = Ipv4Address::parse("109.105.98.10");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->to_string(), "109.105.98.10");
  EXPECT_EQ(Ipv4Address::parse("0.0.0.0")->value(), 0u);
  EXPECT_EQ(Ipv4Address::parse("255.255.255.255")->value(), 0xFFFFFFFFu);
}

TEST(Ipv4Address, ParseRejectsMalformed) {
  EXPECT_FALSE(Ipv4Address::parse(""));
  EXPECT_FALSE(Ipv4Address::parse("1.2.3"));
  EXPECT_FALSE(Ipv4Address::parse("1.2.3.4.5"));
  EXPECT_FALSE(Ipv4Address::parse("1.2.3.256"));
  EXPECT_FALSE(Ipv4Address::parse("1.2.3.4 "));
  EXPECT_FALSE(Ipv4Address::parse(" 1.2.3.4"));
  EXPECT_FALSE(Ipv4Address::parse("1.2.3.x"));
  EXPECT_FALSE(Ipv4Address::parse("1..3.4"));
  EXPECT_FALSE(Ipv4Address::parse("1.2.3.0004"));
  EXPECT_FALSE(Ipv4Address::parse("-1.2.3.4"));
  EXPECT_FALSE(Ipv4Address::parse("1.2.3.4/8"));
}

TEST(Ipv4Address, ParseOrThrowReportsInput) {
  try {
    (void)Ipv4Address::parse_or_throw("not-an-address");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("not-an-address"), std::string::npos);
  }
}

TEST(Ipv4Address, OrderingFollowsNumericValue) {
  EXPECT_LT(Ipv4Address(1, 2, 3, 4), Ipv4Address(1, 2, 3, 5));
  EXPECT_LT(Ipv4Address(9, 255, 255, 255), Ipv4Address(10, 0, 0, 0));
  EXPECT_EQ(Ipv4Address(1, 2, 3, 4), Ipv4Address(0x01020304u));
}

TEST(Ipv4Address, HashSpreadsSequentialAddresses) {
  std::unordered_set<std::size_t> buckets;
  const std::hash<Ipv4Address> hasher;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    buckets.insert(hasher(Ipv4Address(0x0A000000u + i)) % 1024);
  }
  // A weak avalanche bound: sequential inputs should hit many buckets.
  EXPECT_GT(buckets.size(), 550u);
}

class Ipv4RoundTripTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(Ipv4RoundTripTest, FormatThenParseIsIdentity) {
  const Ipv4Address original(GetParam());
  const auto reparsed = Ipv4Address::parse(original.to_string());
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(*reparsed, original);
}

TEST_P(Ipv4RoundTripTest, TextIsStdToStringPerOctet) {
  const Ipv4Address address(GetParam());
  std::string expected;
  for (int i = 0; i < 4; ++i) {
    if (i > 0) expected += '.';
    expected += std::to_string(address.octet(i));
  }
  char text[Ipv4Address::kMaxTextBytes];
  EXPECT_EQ(std::string(text, address.to_chars(text)), expected);
  EXPECT_EQ(address.to_string(), expected);
}

INSTANTIATE_TEST_SUITE_P(
    Corners, Ipv4RoundTripTest,
    ::testing::Values(0u, 1u, 0xFFu, 0x100u, 0x01020304u, 0x7F000001u,
                      0x80000000u, 0xC0A80101u, 0xC6472EB4u, 0xFFFFFFFEu,
                      0xFFFFFFFFu));

// Pseudo-random sweep: xorshift over a fixed seed keeps it deterministic.
std::vector<std::uint32_t> random_addresses() {
  std::vector<std::uint32_t> out;
  std::uint32_t x = 0x12345678u;
  for (int i = 0; i < 64; ++i) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    out.push_back(x);
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Random, Ipv4RoundTripTest,
                         ::testing::ValuesIn(random_addresses()));

}  // namespace
}  // namespace mapit::net
