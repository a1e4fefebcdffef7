#include "core/result_io.h"

#include <gtest/gtest.h>

#include <sstream>

#include "failing_stream.h"
#include "net/error.h"
#include "test_util.h"

namespace mapit::core {
namespace {

using testutil::addr;

std::vector<Inference> sample() {
  return {
      Inference{graph::forward_half(addr("109.105.98.10")), 11537, 2603,
                InferenceKind::kDirect, false, 3, 3},
      Inference{graph::backward_half(addr("199.109.5.1")), 11537, 3754,
                InferenceKind::kDirect, false, 2, 3},
      Inference{graph::backward_half(addr("109.105.98.9")), 2603, 11537,
                InferenceKind::kIndirect, false, 3, 3},
      Inference{graph::forward_half(addr("12.0.0.9")), 1300, 1200,
                InferenceKind::kStub, false, 1, 1},
  };
}

TEST(ResultIo, RoundTrip) {
  const std::vector<Inference> original = sample();
  std::stringstream stream;
  write_inferences(stream, original);
  const std::vector<Inference> reread = read_inferences(stream);
  ASSERT_EQ(reread.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(reread[i].half, original[i].half) << i;
    EXPECT_EQ(reread[i].router_as, original[i].router_as) << i;
    EXPECT_EQ(reread[i].other_as, original[i].other_as) << i;
    EXPECT_EQ(reread[i].kind, original[i].kind) << i;
    EXPECT_EQ(reread[i].votes, original[i].votes) << i;
    EXPECT_EQ(reread[i].neighbor_count, original[i].neighbor_count) << i;
  }
}

TEST(ResultIo, LineFormatIsStable) {
  std::stringstream stream;
  write_inferences(stream, {sample()[0]});
  std::string header, line;
  std::getline(stream, header);
  std::getline(stream, line);
  EXPECT_EQ(line, "109.105.98.10|f|11537|2603|direct|3/3");
}

TEST(ResultIo, EmptyList) {
  std::stringstream stream;
  write_inferences(stream, {});
  EXPECT_TRUE(read_inferences(stream).empty());
}

class ResultIoBadInputTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ResultIoBadInputTest, Rejected) {
  std::stringstream stream(GetParam());
  EXPECT_THROW((void)read_inferences(stream), mapit::ParseError);
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, ResultIoBadInputTest,
    ::testing::Values("1.2.3.4|f|1|2|direct",            // missing evidence
                      "1.2.3.4|f|1|2|direct|3/3|extra",  // extra field
                      "1.2.3.4|x|1|2|direct|3/3",        // bad direction
                      "1.2.3.4|f|1|2|maybe|3/3",         // bad kind
                      "1.2.3.4|f|1|2|direct|33",         // bad evidence
                      "1.2.3.4|f|one|2|direct|3/3",      // bad asn
                      "nonsense|f|1|2|direct|3/3",       // bad address
                      "1.2.3.4|f|123abc|2|direct|3/3",   // trailing garbage
                      "1.2.3.4|f| 123|2|direct|3/3",     // leading whitespace
                      "1.2.3.4|f|-1|2|direct|3/3",       // negative asn
                      "1.2.3.4|f|1|2|direct|-1/3",       // negative votes
                      "1.2.3.4|f|1|2|direct|3/3 ",       // trailing whitespace
                      "1.2.3.4|f|1|2|direct|3/",         // empty count
                      "1.2.3.4|f|99999999999999999999|2|direct|3/3",  // overflow
                      "1.2.3.4|f|1|2|direct|4/3"));      // votes > neighbors

TEST(ResultIo, AcceptsCrlfLineEndings) {
  // Files that passed through Windows tooling arrive with \r\n endings;
  // the parser must strip the \r rather than fold it into the last field.
  std::stringstream stream(
      "# comment\r\n"
      "1.2.3.4|f|5|6|direct|2/3\r\n"
      "5.6.7.8|b|7|8|indirect|1/4\r\n");
  const auto inferences = read_inferences(stream);
  ASSERT_EQ(inferences.size(), 2u);
  EXPECT_EQ(inferences[0].neighbor_count, 3u);
  EXPECT_EQ(inferences[1].kind, InferenceKind::kIndirect);
  EXPECT_EQ(inferences[1].neighbor_count, 4u);
}

TEST(ResultIo, AcceptsTrailingBlankLines) {
  std::stringstream stream("1.2.3.4|f|5|6|direct|2/3\n\n\n\r\n");
  const auto inferences = read_inferences(stream);
  ASSERT_EQ(inferences.size(), 1u);
  EXPECT_EQ(inferences[0].router_as, 5u);
}

TEST(ResultIo, WriteReadWriteIsBitIdentical) {
  const std::vector<Inference> original = sample();
  std::stringstream first;
  write_inferences(first, original);
  std::stringstream reread_stream(first.str());
  const std::vector<Inference> reread = read_inferences(reread_stream);
  std::stringstream second;
  write_inferences(second, reread);
  EXPECT_EQ(first.str(), second.str());
}

TEST(ResultIo, SkipsComments) {
  std::stringstream stream("# comment\n\n1.2.3.4|b|5|6|stub|1/1\n");
  const auto inferences = read_inferences(stream);
  ASSERT_EQ(inferences.size(), 1u);
  EXPECT_EQ(inferences[0].kind, InferenceKind::kStub);
  EXPECT_EQ(inferences[0].half.direction, graph::Direction::kBackward);
}

TEST(ResultIo, ReadErrorMidFileThrowsInsteadOfTruncating) {
  std::ostringstream out;
  write_inferences(out, sample());
  const std::string text = out.str();
  testutil::expect_read_error(
      text.substr(0, text.size() - 5), "inferences",
      [](std::istream& in) { return read_inferences(in); });
}

}  // namespace
}  // namespace mapit::core
