#include "trace/trace_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <sstream>
#include <streambuf>
#include <string>
#include <utility>

#include "failing_stream.h"
#include "net/error.h"
#include "test_util.h"

namespace mapit::trace {
namespace {

TEST(TraceIo, ParsesFullSyntax) {
  const Trace t =
      parse_trace("3|9.9.9.9|1.0.0.1 * 1.0.0.2@0 1.0.0.3@255");
  EXPECT_EQ(t.monitor, 3u);
  EXPECT_EQ(t.destination, testutil::addr("9.9.9.9"));
  ASSERT_EQ(t.hops.size(), 4u);
  EXPECT_EQ(t.hops[0].probe_ttl, 1);
  EXPECT_EQ(*t.hops[0].address, testutil::addr("1.0.0.1"));
  EXPECT_FALSE(t.hops[0].quoted_ttl.has_value());
  EXPECT_FALSE(t.hops[1].address.has_value());
  EXPECT_EQ(t.hops[1].probe_ttl, 2);
  EXPECT_EQ(*t.hops[2].quoted_ttl, 0);
  EXPECT_EQ(*t.hops[3].quoted_ttl, 255);
}

TEST(TraceIo, EmptyHopList) {
  const Trace t = parse_trace("0|9.9.9.9|");
  EXPECT_TRUE(t.hops.empty());
}

TEST(TraceIo, FormatRoundTrip) {
  const char* line = "7|9.9.9.9|1.0.0.1 * 1.0.0.2@0 1.0.0.3@17";
  EXPECT_EQ(format_trace(parse_trace(line)), line);
}

class TraceIoBadInputTest : public ::testing::TestWithParam<const char*> {};

TEST_P(TraceIoBadInputTest, Rejected) {
  EXPECT_THROW((void)parse_trace(GetParam()), mapit::ParseError);
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, TraceIoBadInputTest,
    ::testing::Values("",                       // empty line
                      "3|9.9.9.9",              // missing hops field
                      "3|9.9.9.9|a|b",          // too many fields
                      "x|9.9.9.9|1.0.0.1",      // bad monitor
                      "3|nine|1.0.0.1",         // bad destination
                      "3|9.9.9.9|1.0.0",        // bad hop address
                      "3|9.9.9.9|1.0.0.1@",     // empty quoted TTL
                      "3|9.9.9.9|1.0.0.1@999",  // quoted TTL too big
                      "3|9.9.9.9|1.0.0.1@1x",   // junk quoted TTL
                      "3|9.9.9.9|1.0.0.1@1234"  // too many digits
                      ));

TEST(TraceIo, CorpusRoundTrip) {
  const TraceCorpus corpus = testutil::corpus_from({
      "0|9.9.9.9|1.0.0.1 1.0.0.2",
      "1|8.8.8.8|* * 2.0.0.1@0",
      "2|7.7.7.7|",
  });
  std::stringstream stream;
  write_corpus(stream, corpus);
  const TraceCorpus reread = read_corpus(stream);
  ASSERT_EQ(reread.size(), corpus.size());
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    EXPECT_EQ(reread.traces()[i], corpus.traces()[i]) << "trace " << i;
  }
}

TEST(TraceIo, ReadNamesOffendingLine) {
  std::stringstream stream("# ok\n0|9.9.9.9|1.0.0.1\ngarbage\n");
  try {
    (void)read_corpus(stream);
    FAIL() << "expected ParseError";
  } catch (const mapit::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

// Every malformed variant from the Rejected suite above, embedded in a
// corpus: strict mode throws naming the right line; lenient mode skips it,
// counts it, and keeps the good neighbors.
class TraceIoLenientTest : public ::testing::TestWithParam<const char*> {};

TEST_P(TraceIoLenientTest, StrictThrowsWithLineNumber) {
  std::stringstream stream("# header\n0|9.9.9.9|1.0.0.1\n" +
                           std::string(GetParam()) + "\n1|8.8.8.8|*\n");
  try {
    (void)read_corpus(stream);
    FAIL() << "expected ParseError for '" << GetParam() << "'";
  } catch (const mapit::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

TEST_P(TraceIoLenientTest, LenientSkipsCountsAndKeepsTheRest) {
  std::stringstream stream("# header\n0|9.9.9.9|1.0.0.1\n" +
                           std::string(GetParam()) + "\n1|8.8.8.8|*\n");
  LoadReport report;
  const TraceCorpus corpus = read_corpus(stream, /*threads=*/1, &report);
  ASSERT_EQ(corpus.size(), 2u);
  EXPECT_EQ(corpus.traces()[0].monitor, 0u);
  EXPECT_EQ(corpus.traces()[1].monitor, 1u);
  EXPECT_EQ(report.skipped(), 1u);
  EXPECT_EQ(report.loaded(), 2u);
  ASSERT_EQ(report.offenders().size(), 1u);
  EXPECT_EQ(report.offenders()[0].line_no, 3u);
  // "# header\n" + "0|9.9.9.9|1.0.0.1\n" = 27 bytes before line 3.
  EXPECT_EQ(report.offenders()[0].byte_offset, 27u);
  EXPECT_NE(report.offenders()[0].error.find("line 3"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, TraceIoLenientTest,
    ::testing::Values("3|9.9.9.9",              // missing hops field
                      "3|9.9.9.9|a|b",          // too many fields
                      "x|9.9.9.9|1.0.0.1",      // bad monitor
                      "3|nine|1.0.0.1",         // bad destination
                      "3|9.9.9.9|1.0.0",        // bad hop address
                      "3|9.9.9.9|1.0.0.1@",     // empty quoted TTL
                      "3|9.9.9.9|1.0.0.1@999",  // quoted TTL too big
                      "3|9.9.9.9|1.0.0.1@1x",   // junk quoted TTL
                      "3|9.9.9.9|1.0.0.1@1234"  // too many digits
                      ));

TEST(TraceIo, LenientAllBadYieldsEmptyCorpus) {
  std::stringstream stream("junk\nmore junk\n");
  LoadReport report;
  const TraceCorpus corpus = read_corpus(stream, 1, &report);
  EXPECT_EQ(corpus.size(), 0u);
  EXPECT_EQ(report.skipped(), 2u);
  EXPECT_EQ(report.loaded(), 0u);
}

TEST(TraceIo, LenientCleanCorpusReportsNothing) {
  std::stringstream stream("0|9.9.9.9|1.0.0.1\n1|8.8.8.8|*\n");
  LoadReport report;
  const TraceCorpus corpus = read_corpus(stream, 1, &report);
  EXPECT_EQ(corpus.size(), 2u);
  EXPECT_EQ(report.skipped(), 0u);
  EXPECT_EQ(report.loaded(), 2u);
  EXPECT_EQ(report.summary("traces"), "");
}

TEST(TraceIo, ReadErrorMidFileThrowsInsteadOfTruncating) {
  // Two complete traces, then the read fails inside the third.
  const std::string prefix =
      "0|9.9.9.9|1.0.0.1\n1|9.9.9.9|1.0.0.2\n2|9.9.9.9|1.0";
  for (const unsigned threads : {1u, 2u}) {
    testutil::expect_read_error(prefix, "trace corpus",
                                [threads](std::istream& in) {
                                  return read_corpus(in, threads);
                                });
    testutil::expect_read_error(prefix, "trace corpus",
                                [threads](std::istream& in) {
                                  LoadReport report;
                                  return read_corpus(in, threads, &report);
                                });
  }
}

TEST(TraceIo, ReadsNonSeekableStreams) {
  // A pipe-like streambuf: no seeking, data arrives in small pieces.
  class Trickle : public std::streambuf {
   public:
    explicit Trickle(std::string data) : data_(std::move(data)) {}

   protected:
    int_type underflow() override {
      if (at_ == data_.size()) return traits_type::eof();
      const std::size_t n = std::min<std::size_t>(7, data_.size() - at_);
      setg(data_.data() + at_, data_.data() + at_, data_.data() + at_ + n);
      at_ += n;
      return traits_type::to_int_type(*gptr());
    }

   private:
    std::string data_;
    std::size_t at_ = 0;
  };
  std::string text;
  for (int i = 0; i < 2000; ++i) {
    text += std::to_string(i) + "|9.9.9.9|1.0.0." + std::to_string(i % 250) +
            " *\n";
  }
  Trickle buffer(text);
  std::istream in(&buffer);
  const TraceCorpus corpus = read_corpus(in, 2);
  ASSERT_EQ(corpus.size(), 2000u);
  EXPECT_EQ(format_trace(corpus.traces()[1999]), "1999|9.9.9.9|1.0.0.249 *");
}

TEST(TraceIo, RandomTraceRoundTrip) {
  std::mt19937_64 rng(99);
  std::uniform_int_distribution<std::uint32_t> addr_dist(0x01000000,
                                                         0xDFFFFFFF);
  std::uniform_int_distribution<int> len_dist(0, 20);
  std::uniform_int_distribution<int> kind(0, 5);
  for (int i = 0; i < 50; ++i) {
    Trace t;
    t.monitor = static_cast<MonitorId>(i);
    t.destination = net::Ipv4Address(addr_dist(rng));
    const int hops = len_dist(rng);
    for (int h = 0; h < hops; ++h) {
      TraceHop hop;
      hop.probe_ttl = static_cast<std::uint8_t>(h + 1);
      const int k = kind(rng);
      if (k > 0) {
        hop.address = net::Ipv4Address(addr_dist(rng));
        if (k == 1) hop.quoted_ttl = 0;
        if (k == 2) hop.quoted_ttl = 1;
      }
      t.hops.push_back(hop);
    }
    EXPECT_EQ(parse_trace(format_trace(t)), t);
  }
}

}  // namespace
}  // namespace mapit::trace
