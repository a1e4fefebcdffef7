#include "asdata/relationships.h"

#include <gtest/gtest.h>

#include <sstream>

#include "failing_stream.h"
#include "net/error.h"

namespace mapit::asdata {
namespace {

class RelationshipsTest : public ::testing::Test {
 protected:
  RelationshipsTest() {
    // 100 -> 1000 -> 10000 transit chain; 100 -- 101 peering.
    rels_.add_transit(100, 1000);
    rels_.add_transit(1000, 10000);
    rels_.add_peering(100, 101);
  }
  AsRelationships rels_;
  As2Org orgs_;
};

TEST_F(RelationshipsTest, RelationshipDirections) {
  EXPECT_EQ(rels_.relationship(100, 1000), Relationship::kProvider);
  EXPECT_EQ(rels_.relationship(1000, 100), Relationship::kCustomer);
  EXPECT_EQ(rels_.relationship(100, 101), Relationship::kPeer);
  EXPECT_EQ(rels_.relationship(101, 100), Relationship::kPeer);
  EXPECT_EQ(rels_.relationship(100, 10000), Relationship::kNone);
}

TEST_F(RelationshipsTest, KnownAndStub) {
  EXPECT_TRUE(rels_.known(100));
  EXPECT_TRUE(rels_.known(10000));
  EXPECT_FALSE(rels_.known(55));
  EXPECT_FALSE(rels_.is_stub(100));
  EXPECT_FALSE(rels_.is_stub(1000));
  EXPECT_TRUE(rels_.is_stub(10000));  // no customers
  EXPECT_TRUE(rels_.is_stub(55));     // absent entirely
  EXPECT_TRUE(rels_.is_stub(101));    // peer with no customers
}

TEST_F(RelationshipsTest, IspRequiresNonSiblingCustomer) {
  EXPECT_TRUE(rels_.is_isp(100, orgs_));
  EXPECT_TRUE(rels_.is_isp(1000, orgs_));
  EXPECT_FALSE(rels_.is_isp(10000, orgs_));
  // When 1000's only customer is a sibling, it stops being an ISP.
  orgs_.add_sibling_pair(1000, 10000);
  EXPECT_FALSE(rels_.is_isp(1000, orgs_));
}

TEST_F(RelationshipsTest, ClassifyLinks) {
  // transit link to an ISP customer
  EXPECT_EQ(rels_.classify_link(100, 1000, orgs_), LinkClass::kIspTransit);
  EXPECT_EQ(rels_.classify_link(1000, 100, orgs_), LinkClass::kIspTransit);
  // transit link to a stub customer
  EXPECT_EQ(rels_.classify_link(1000, 10000, orgs_), LinkClass::kStubTransit);
  // peering
  EXPECT_EQ(rels_.classify_link(100, 101, orgs_), LinkClass::kPeer);
  // no transit link on record -> peer (paper §5.4)
  EXPECT_EQ(rels_.classify_link(100, 10000, orgs_), LinkClass::kPeer);
  // AS absent from the dataset -> stub transit (paper §5.4)
  EXPECT_EQ(rels_.classify_link(100, 55, orgs_), LinkClass::kStubTransit);
}

TEST_F(RelationshipsTest, NeighborSets) {
  EXPECT_TRUE(rels_.customers_of(100).contains(1000));
  EXPECT_TRUE(rels_.providers_of(1000).contains(100));
  EXPECT_TRUE(rels_.peers_of(101).contains(100));
  EXPECT_TRUE(rels_.customers_of(999).empty());
}

TEST_F(RelationshipsTest, AllAsesSorted) {
  const std::vector<Asn> all = rels_.all_ases();
  ASSERT_EQ(all.size(), 4u);
  EXPECT_TRUE(std::is_sorted(all.begin(), all.end()));
  EXPECT_EQ(all.front(), 100u);
  EXPECT_EQ(all.back(), 10000u);
}

TEST_F(RelationshipsTest, Counters) {
  EXPECT_EQ(rels_.transit_count(), 2u);
  EXPECT_EQ(rels_.peering_count(), 1u);
  rels_.add_transit(100, 1000);  // duplicate: no double count
  EXPECT_EQ(rels_.transit_count(), 2u);
}

TEST_F(RelationshipsTest, RejectsDegenerateEdges) {
  EXPECT_THROW(rels_.add_transit(100, 100), mapit::InvariantError);
  EXPECT_THROW(rels_.add_peering(5, 5), mapit::InvariantError);
  EXPECT_THROW(rels_.add_transit(kUnknownAsn, 5), mapit::InvariantError);
}

TEST_F(RelationshipsTest, Serial1RoundTrip) {
  std::stringstream stream;
  rels_.write(stream);
  const AsRelationships reread = AsRelationships::read(stream);
  EXPECT_EQ(reread.relationship(100, 1000), Relationship::kProvider);
  EXPECT_EQ(reread.relationship(100, 101), Relationship::kPeer);
  EXPECT_EQ(reread.transit_count(), rels_.transit_count());
  EXPECT_EQ(reread.peering_count(), rels_.peering_count());
}

TEST(RelationshipsIo, ParsesCaidaSerial1Syntax) {
  std::stringstream stream(
      "# comment\n"
      "1|2|-1\n"
      "3|4|0\n");
  const AsRelationships rels = AsRelationships::read(stream);
  EXPECT_EQ(rels.relationship(1, 2), Relationship::kProvider);
  EXPECT_EQ(rels.relationship(3, 4), Relationship::kPeer);
}

TEST(RelationshipsIo, RejectsUnknownTypeAndGarbage) {
  {
    std::stringstream stream("1|2|7\n");
    EXPECT_THROW(AsRelationships::read(stream), mapit::ParseError);
  }
  {
    std::stringstream stream("1|2\n");
    EXPECT_THROW(AsRelationships::read(stream), mapit::ParseError);
  }
  {
    std::stringstream stream("a|b|-1\n");
    EXPECT_THROW(AsRelationships::read(stream), mapit::ParseError);
  }
}

TEST(Relationships, ReadErrorMidFileThrowsInsteadOfTruncating) {
  testutil::expect_read_error(
      "100|1000|-1\n100|101|0\n1000|10", "relationships",
      [](std::istream& in) { return AsRelationships::read(in); });
}

}  // namespace
}  // namespace mapit::asdata
