#include "asdata/ixp.h"

#include <gtest/gtest.h>

#include <sstream>

#include "failing_stream.h"
#include "net/error.h"

namespace mapit::asdata {
namespace {

net::Prefix P(const char* text) { return net::Prefix::parse_or_throw(text); }
net::Ipv4Address A(const char* text) {
  return net::Ipv4Address::parse_or_throw(text);
}

TEST(IxpRegistry, PrefixMembership) {
  IxpRegistry registry;
  registry.add_prefix(P("195.1.0.0/24"), 1);
  registry.add_prefix(P("80.249.208.0/21"), 2);  // AMS-IX style
  EXPECT_TRUE(registry.is_ixp_address(A("195.1.0.55")));
  EXPECT_TRUE(registry.is_ixp_address(A("80.249.210.1")));
  EXPECT_FALSE(registry.is_ixp_address(A("195.1.1.55")));
  ASSERT_NE(registry.lookup(A("195.1.0.55")), nullptr);
  EXPECT_EQ(*registry.lookup(A("195.1.0.55")), 1u);
  EXPECT_EQ(registry.lookup(A("9.9.9.9")), nullptr);
}

TEST(IxpRegistry, IxpAsns) {
  IxpRegistry registry;
  registry.add_ixp_asn(64500);
  EXPECT_TRUE(registry.is_ixp_asn(64500));
  EXPECT_FALSE(registry.is_ixp_asn(64501));
  EXPECT_THROW(registry.add_ixp_asn(kUnknownAsn), mapit::InvariantError);
}

TEST(IxpRegistry, TextRoundTrip) {
  IxpRegistry registry;
  registry.add_prefix(P("195.1.0.0/24"), 1);
  registry.add_prefix(P("195.1.1.0/24"), 2);
  registry.add_ixp_asn(64500);
  std::stringstream stream;
  registry.write(stream);
  const IxpRegistry reread = IxpRegistry::read(stream);
  EXPECT_EQ(reread.prefix_count(), 2u);
  EXPECT_TRUE(reread.is_ixp_address(A("195.1.1.9")));
  EXPECT_TRUE(reread.is_ixp_asn(64500));
}

TEST(IxpRegistry, ReadRejectsGarbage) {
  {
    std::stringstream stream("nonsense\n");
    EXPECT_THROW(IxpRegistry::read(stream), mapit::ParseError);
  }
  {
    std::stringstream stream("195.1.0.0/24|x\n");
    EXPECT_THROW(IxpRegistry::read(stream), mapit::ParseError);
  }
}

TEST(IxpRegistry, ReadErrorMidFileThrowsInsteadOfTruncating) {
  testutil::expect_read_error(
      "195.1.0.0/24|1\n80.249.208.0/21|2\n1200|", "ixps",
      [](std::istream& in) { return IxpRegistry::read(in); });
}

}  // namespace
}  // namespace mapit::asdata
