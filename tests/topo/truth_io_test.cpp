#include "topo/truth_io.h"

#include <gtest/gtest.h>

#include <sstream>

#include "failing_stream.h"
#include "net/error.h"
#include "topo/generator.h"

namespace mapit::topo {
namespace {

TEST(TruthIo, RoundTrip) {
  GeneratorConfig config;
  config.seed = 3;
  config.tier1_count = 3;
  config.transit_count = 10;
  config.stub_count = 30;
  config.rne_customer_count = 5;
  const Internet net = Generator(config).generate();

  std::stringstream stream;
  write_true_links(stream, net.true_links());
  const std::vector<TrueLink> reread = read_true_links(stream);
  ASSERT_EQ(reread.size(), net.true_links().size());
  for (std::size_t i = 0; i < reread.size(); ++i) {
    EXPECT_EQ(reread[i].addr_a, net.true_links()[i].addr_a);
    EXPECT_EQ(reread[i].addr_b, net.true_links()[i].addr_b);
    EXPECT_EQ(reread[i].as_a, net.true_links()[i].as_a);
    EXPECT_EQ(reread[i].as_b, net.true_links()[i].as_b);
    EXPECT_EQ(reread[i].via_ixp, net.true_links()[i].via_ixp);
  }
}

TEST(TruthIo, ParsesIxpFlag) {
  std::stringstream stream(
      "# header\n"
      "1.0.0.1|1.0.0.2|100|200\n"
      "195.1.0.1|195.1.0.2|100|300|ixp\n");
  const auto links = read_true_links(stream);
  ASSERT_EQ(links.size(), 2u);
  EXPECT_FALSE(links[0].via_ixp);
  EXPECT_TRUE(links[1].via_ixp);
  EXPECT_EQ(links[1].as_b, 300u);
}

TEST(TruthIo, RejectsMalformed) {
  {
    std::stringstream stream("1.0.0.1|1.0.0.2|100\n");  // missing as_b
    EXPECT_THROW((void)read_true_links(stream), mapit::ParseError);
  }
  {
    std::stringstream stream("1.0.0.1|1.0.0.2|100|200|wat\n");
    EXPECT_THROW((void)read_true_links(stream), mapit::ParseError);
  }
  {
    std::stringstream stream("bogus|1.0.0.2|100|200\n");
    EXPECT_THROW((void)read_true_links(stream), mapit::ParseError);
  }
  {
    std::stringstream stream("1.0.0.1|1.0.0.2|x|200\n");
    EXPECT_THROW((void)read_true_links(stream), mapit::ParseError);
  }
}

TEST(TruthIo, ReadErrorMidFileThrowsInsteadOfTruncating) {
  testutil::expect_read_error(
      "11.0.0.1|11.0.0.2|100|200\n11.0.0.5|11.0.0.6|100|300\n11.0.0", "truth",
      [](std::istream& in) { return read_true_links(in); });
}

}  // namespace
}  // namespace mapit::topo
