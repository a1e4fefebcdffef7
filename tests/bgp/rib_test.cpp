#include "bgp/rib.h"

#include <gtest/gtest.h>

#include <sstream>

#include "failing_stream.h"
#include "net/error.h"

namespace mapit::bgp {
namespace {

net::Prefix P(const char* text) { return net::Prefix::parse_or_throw(text); }

TEST(Rib, CollectorRegistrationIsIdempotent) {
  Rib rib;
  const CollectorId a = rib.add_collector("rv-east");
  const CollectorId b = rib.add_collector("ris-eu");
  EXPECT_EQ(rib.add_collector("rv-east"), a);
  EXPECT_NE(a, b);
  EXPECT_EQ(rib.collector_names().size(), 2u);
}

TEST(Rib, DuplicateAnnouncementsAreIdempotent) {
  Rib rib;
  const CollectorId c = rib.add_collector("rc");
  rib.add_announcement(c, P("10.0.0.0/8"), 100);
  rib.add_announcement(c, P("10.0.0.0/8"), 100);
  EXPECT_EQ(rib.announcement_count(), 1u);
  EXPECT_EQ(rib.prefix_count(), 1u);
}

TEST(Rib, AnnouncementRejectsUnregisteredCollector) {
  Rib rib;
  EXPECT_THROW(rib.add_announcement(5, P("10.0.0.0/8"), 100),
               mapit::InvariantError);
}

TEST(Rib, ConsolidateSingleOrigin) {
  Rib rib;
  const CollectorId c = rib.add_collector("rc");
  rib.add_announcement(c, P("20.0.0.0/16"), 1000);
  const auto table = rib.consolidate();
  const auto* asn = table.longest_match(net::Ipv4Address(20, 0, 1, 2));
  ASSERT_NE(asn, nullptr);
  EXPECT_EQ(*asn, 1000u);
}

TEST(Rib, ConsolidateMoasByMajority) {
  Rib rib;
  const CollectorId c1 = rib.add_collector("rc1");
  const CollectorId c2 = rib.add_collector("rc2");
  const CollectorId c3 = rib.add_collector("rc3");
  rib.add_announcement(c1, P("30.0.0.0/16"), 777);
  rib.add_announcement(c2, P("30.0.0.0/16"), 777);
  rib.add_announcement(c3, P("30.0.0.0/16"), 888);
  const auto table = rib.consolidate();
  EXPECT_EQ(*table.longest_match(net::Ipv4Address(30, 0, 0, 1)), 777u);
  ASSERT_EQ(rib.moas_prefixes().size(), 1u);
  EXPECT_EQ(rib.moas_prefixes()[0], P("30.0.0.0/16"));
}

TEST(Rib, ConsolidateMoasTieBreaksToLowestAsn) {
  Rib rib;
  const CollectorId c1 = rib.add_collector("rc1");
  const CollectorId c2 = rib.add_collector("rc2");
  rib.add_announcement(c1, P("30.0.0.0/16"), 999);
  rib.add_announcement(c2, P("30.0.0.0/16"), 111);
  const auto table = rib.consolidate();
  EXPECT_EQ(*table.longest_match(net::Ipv4Address(30, 0, 0, 1)), 111u);
}

TEST(Rib, MorespecificWinsAfterConsolidation) {
  Rib rib;
  const CollectorId c = rib.add_collector("rc");
  rib.add_announcement(c, P("40.0.0.0/8"), 100);
  rib.add_announcement(c, P("40.5.0.0/16"), 200);
  const auto table = rib.consolidate();
  EXPECT_EQ(*table.longest_match(net::Ipv4Address(40, 5, 1, 1)), 200u);
  EXPECT_EQ(*table.longest_match(net::Ipv4Address(40, 6, 1, 1)), 100u);
}

TEST(Rib, TextRoundTrip) {
  Rib rib;
  const CollectorId c1 = rib.add_collector("rv");
  const CollectorId c2 = rib.add_collector("ris");
  rib.add_announcement(c1, P("10.0.0.0/8"), 100);
  rib.add_announcement(c2, P("10.0.0.0/8"), 100);
  rib.add_announcement(c2, P("20.0.0.0/16"), 200);

  std::stringstream stream;
  rib.write(stream);
  const Rib reread = Rib::read(stream);
  EXPECT_EQ(reread.announcement_count(), rib.announcement_count());
  EXPECT_EQ(reread.prefix_count(), rib.prefix_count());
  EXPECT_EQ(reread.announcements(), rib.announcements());
}

TEST(Rib, ReadRejectsMalformedLines) {
  {
    std::stringstream stream("rc|10.0.0.0/8");  // missing origin
    EXPECT_THROW(Rib::read(stream), mapit::ParseError);
  }
  {
    std::stringstream stream("rc|not-a-prefix|100");
    EXPECT_THROW(Rib::read(stream), mapit::ParseError);
  }
  {
    std::stringstream stream("rc|10.0.0.0/8|abc");
    EXPECT_THROW(Rib::read(stream), mapit::ParseError);
  }
}

// Every malformed variant, once strict (throws, names the line) and once
// lenient (skipped, counted, neighbors survive).
class RibLenientTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RibLenientTest, StrictThrowsWithLineNumber) {
  std::stringstream stream("# header\nrv|10.0.0.0/8|100\n" +
                           std::string(GetParam()) + "\nris|20.0.0.0/16|200\n");
  try {
    (void)Rib::read(stream);
    FAIL() << "expected ParseError for '" << GetParam() << "'";
  } catch (const mapit::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

TEST_P(RibLenientTest, LenientSkipsCountsAndKeepsTheRest) {
  std::stringstream stream("# header\nrv|10.0.0.0/8|100\n" +
                           std::string(GetParam()) + "\nris|20.0.0.0/16|200\n");
  mapit::LoadReport report;
  const Rib rib = Rib::read(stream, &report);
  EXPECT_EQ(rib.announcement_count(), 2u);
  EXPECT_EQ(rib.prefix_count(), 2u);
  EXPECT_EQ(report.skipped(), 1u);
  EXPECT_EQ(report.loaded(), 2u);
  ASSERT_EQ(report.offenders().size(), 1u);
  EXPECT_EQ(report.offenders()[0].line_no, 3u);
  // "# header\n" + "rv|10.0.0.0/8|100\n" = 27 bytes before line 3.
  EXPECT_EQ(report.offenders()[0].byte_offset, 27u);
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, RibLenientTest,
    ::testing::Values("rc|10.0.0.0/8",        // missing origin field
                      "rc|not-a-prefix|100",  // bad prefix
                      "rc|10.0.0.0/99|100",   // bad prefix length
                      "rc|10.0.0.0/8|abc",    // junk origin
                      "rc|10.0.0.0/8|0"       // reserved unknown-ASN origin
                      ));

TEST(Rib, LenientDoesNotLeakCollectorsFromSkippedLines) {
  // The quarantined line names a collector nobody else uses; a rejected
  // line must leave the Rib completely untouched.
  std::stringstream stream(
      "rv|10.0.0.0/8|100\nghost|not-a-prefix|100\nrv|20.0.0.0/16|200\n");
  mapit::LoadReport report;
  const Rib rib = Rib::read(stream, &report);
  EXPECT_EQ(report.skipped(), 1u);
  ASSERT_EQ(rib.collector_names().size(), 1u);
  EXPECT_EQ(rib.collector_names()[0], "rv");
}

TEST(Rib, ReadSkipsCommentsAndBlankLines) {
  std::stringstream stream("# header\n\nrc|10.0.0.0/8|100\n");
  const Rib rib = Rib::read(stream);
  EXPECT_EQ(rib.announcement_count(), 1u);
}

TEST(Rib, ReadErrorMidFileThrowsInsteadOfTruncating) {
  const std::string prefix =
      "rc0|11.1.0.0/16|100\nrc0|11.2.0.0/16|200\nrc0|11.3";
  testutil::expect_read_error(prefix, "rib", [](std::istream& in) {
    return Rib::read(in);
  });
  testutil::expect_read_error(prefix, "rib", [](std::istream& in) {
    LoadReport report;
    return Rib::read(in, &report);
  });
}

}  // namespace
}  // namespace mapit::bgp
