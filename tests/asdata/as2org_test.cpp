#include "asdata/as2org.h"

#include <gtest/gtest.h>

#include <sstream>

#include "failing_stream.h"
#include "net/error.h"

namespace mapit::asdata {
namespace {

TEST(As2Org, UnknownAsesAreSingletons) {
  As2Org orgs;
  EXPECT_EQ(orgs.org_of(100), kNoOrg);
  EXPECT_FALSE(orgs.are_siblings(100, 200));
  EXPECT_TRUE(orgs.are_siblings(100, 100));  // self-sibling
  EXPECT_NE(orgs.group_key(100), orgs.group_key(200));
}

TEST(As2Org, AssignGroupsSiblings) {
  As2Org orgs;
  orgs.assign(3356, 1);  // Level3
  orgs.assign(3549, 1);  // Global Crossing (acquired)
  orgs.assign(1299, 2);  // TeliaSonera
  EXPECT_TRUE(orgs.are_siblings(3356, 3549));
  EXPECT_FALSE(orgs.are_siblings(3356, 1299));
  EXPECT_EQ(orgs.group_key(3356), orgs.group_key(3549));
  EXPECT_NE(orgs.group_key(3356), orgs.group_key(1299));
}

TEST(As2Org, GroupKeysNeverCollideBetweenOrgAndSingleton) {
  As2Org orgs;
  orgs.assign(7, 100);
  // The singleton key of ASN 100 must differ from org id 100's key.
  EXPECT_NE(orgs.group_key(7), orgs.group_key(100));
}

TEST(As2Org, SiblingPairWithoutOrgsAllocatesFresh) {
  As2Org orgs;
  orgs.add_sibling_pair(100, 200);
  EXPECT_TRUE(orgs.are_siblings(100, 200));
  EXPECT_NE(orgs.org_of(100), kNoOrg);
}

TEST(As2Org, SiblingPairExtendsExistingOrg) {
  As2Org orgs;
  orgs.assign(100, 7);
  orgs.add_sibling_pair(100, 200);  // 200 joins org 7
  EXPECT_EQ(orgs.org_of(200), 7u);
  orgs.add_sibling_pair(300, 200);  // 300 joins too
  EXPECT_TRUE(orgs.are_siblings(100, 300));
}

TEST(As2Org, SiblingPairMergesTwoOrgs) {
  As2Org orgs;
  orgs.assign(100, 7);
  orgs.assign(101, 7);
  orgs.assign(200, 9);
  orgs.assign(201, 9);
  orgs.add_sibling_pair(100, 200);
  EXPECT_TRUE(orgs.are_siblings(101, 201));  // whole orgs merged
  EXPECT_EQ(orgs.org_of(101), orgs.org_of(201));
}

TEST(As2Org, MembersAreSorted) {
  As2Org orgs;
  orgs.assign(300, 7);
  orgs.assign(100, 7);
  orgs.assign(200, 7);
  orgs.assign(400, 8);
  const std::vector<Asn> members = orgs.members(7);
  ASSERT_EQ(members.size(), 3u);
  EXPECT_EQ(members[0], 100u);
  EXPECT_EQ(members[2], 300u);
}

TEST(As2Org, AssignRejectsSentinels) {
  As2Org orgs;
  EXPECT_THROW(orgs.assign(kUnknownAsn, 1), mapit::InvariantError);
  EXPECT_THROW(orgs.assign(100, kNoOrg), mapit::InvariantError);
  EXPECT_THROW(orgs.add_sibling_pair(kUnknownAsn, 5), mapit::InvariantError);
}

TEST(As2Org, TextRoundTrip) {
  As2Org orgs;
  orgs.assign(3356, 1);
  orgs.assign(3549, 1);
  orgs.assign(1299, 2);
  std::stringstream stream;
  orgs.write(stream);
  const As2Org reread = As2Org::read(stream);
  EXPECT_TRUE(reread.are_siblings(3356, 3549));
  EXPECT_FALSE(reread.are_siblings(3356, 1299));
  EXPECT_EQ(reread.size(), 3u);
}

TEST(As2Org, ReadRejectsMalformed) {
  {
    std::stringstream stream("3356");  // no separator
    EXPECT_THROW(As2Org::read(stream), mapit::ParseError);
  }
  {
    std::stringstream stream("x|1");
    EXPECT_THROW(As2Org::read(stream), mapit::ParseError);
  }
}

TEST(As2Org, ReadErrorMidFileThrowsInsteadOfTruncating) {
  testutil::expect_read_error("100|1\n200|1\n30", "as2org",
                              [](std::istream& in) { return As2Org::read(in); });
}

}  // namespace
}  // namespace mapit::asdata
