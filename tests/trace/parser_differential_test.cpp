// Differential test of the trace parser against the reference parser
// (reference_parser.h). On seeded random lines and byte-level
// mutations of them, parse_trace must return the same Trace or throw the
// same message, and read_corpus must report the same first error (strict)
// or the same LoadReport (lenient) at every thread count.
#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "net/error.h"
#include "trace/reference_parser.h"
#include "trace/trace_io.h"

namespace mapit::trace {
namespace {

/// A parse outcome: the trace, or the exception message.
using Outcome = std::variant<Trace, std::string>;

template <typename Parse>
Outcome outcome_of(Parse&& parse) {
  try {
    return parse();
  } catch (const ParseError& e) {
    return std::string(e.what());
  }
}

class LineGenerator {
 public:
  explicit LineGenerator(std::uint64_t seed) : rng_(seed) {}

  int pick(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng_);
  }

  std::string number(unsigned value) {
    std::string text = std::to_string(value);
    if (pick(0, 9) == 0) text.insert(0, static_cast<std::size_t>(pick(1, 2)), '0');
    return text;
  }

  std::string address() {
    std::string text;
    for (int i = 0; i < 4; ++i) {
      if (i > 0) text += '.';
      const int octet = pick(0, 9) == 0 ? 255 : pick(0, 255);
      text += std::to_string(octet);
      if (pick(0, 29) == 0 && text.size() < 14) text.insert(text.size() - 1, "0");
    }
    return text;
  }

  std::string hop() {
    switch (pick(0, 5)) {
      case 0:
        return "*";
      case 1:
      case 2:
        return address();
      default:
        return address() + "@" + number(static_cast<unsigned>(pick(0, 255)));
    }
  }

  /// A well-formed line (possibly with leading zeros and extra spaces).
  std::string valid_line(int hops) {
    std::string line = number(static_cast<unsigned>(pick(0, 1 << 20))) + "|" +
                       address() + "|";
    if (pick(0, 9) == 0) line += ' ';
    for (int i = 0; i < hops; ++i) {
      if (i > 0) line += pick(0, 19) == 0 ? "  " : " ";
      line += hop();
    }
    if (pick(0, 9) == 0) line += ' ';
    return line;
  }

  /// One byte-level mutation of `line`.
  std::string mutate(std::string line) {
    const auto at = [&] {
      return static_cast<std::size_t>(
          pick(0, static_cast<int>(line.size())));
    };
    static const std::vector<std::string> kInserts = {
        "|", "@", "\r", "\t", "  ", "0", "256", "@", ".", "*", "x", "@0255",
        "@", "9999999999"};
    switch (pick(0, 4)) {
      case 0:
        line.resize(at());  // truncation
        break;
      case 1:
        line.insert(at(),
                    kInserts[static_cast<std::size_t>(
                        pick(0, static_cast<int>(kInserts.size()) - 1))]);
        break;
      case 2:
        if (!line.empty()) line.erase(at() % line.size(), 1);
        break;
      case 3:
        if (!line.empty()) {
          line[at() % line.size()] = static_cast<char>(pick(32, 126));
        }
        break;
      default:
        line += "\r";  // CRLF line ending
        break;
    }
    return line;
  }

 private:
  std::mt19937_64 rng_;
};

void expect_same_parse(const std::string& line) {
  const Outcome expected =
      outcome_of([&] { return reference::parse_trace(line, "ctx"); });
  const Outcome actual = outcome_of([&] { return parse_trace(line, "ctx"); });
  EXPECT_EQ(actual, expected) << "line '" << line << "'";
}

TEST(ParserDifferential, HandPickedEdges) {
  std::string hops255 = "11.0.0.1@5";
  for (int i = 1; i < 255; ++i) hops255 += i % 2 == 0 ? " 11.0.0.1@5" : " *";
  const std::string hops256 = hops255 + " *";
  const std::vector<std::string> lines = {
      "",
      "|",
      "||",
      "|||",
      "0|1.2.3.4|",
      "0|1.2.3.4| ",
      "0|1.2.3.4|*",
      "0|1.2.3.4|*@5",
      "0|1.2.3.4|**",
      "4294967295|1.2.3.4|*",
      "4294967296|1.2.3.4|*",
      "-1|1.2.3.4|*",
      "+1|1.2.3.4|*",
      " 1|1.2.3.4|*",
      "007|001.002.003.004|010.0.0.1@007",
      "0|0001.2.3.4|*",
      "0|1.2.3.256|*",
      "0|1.2.3.4|1.2.3.256",
      "0|1.2.3.4|1.2.3.4@",
      "0|1.2.3.4|1.2.3.4@0255",
      "0|1.2.3.4|1.2.3.4@256",
      "0|1.2.3.4|1.2.3@256",
      "0|1.2.3.4|1.2.3.4@1@2",
      "0|1.2.3.4|1.2.3.4@-1",
      "0|1.2.3.4|1.2.3.4\r",
      "0|1.2.3.4|1.2.3.4\t1.2.3.5",
      "0|1.2.3.4|  1.2.3.4   1.2.3.5  ",
      "0|1.2.3.4\r|*",
      "0|1.2.3.4|0.0.0.0 255.255.255.255",
      "x|y|z|w",
      "0|1.2.3.4|bad|*",
      "0|1.2.3.4|" + hops255,
      "0|1.2.3.4|" + hops256,
      "0|1.2.3.4|" + hops256 + "|",
      "0|1.2.3.4|" + hops255 + " 1.2.3",
  };
  for (const std::string& line : lines) expect_same_parse(line);
}

TEST(ParserDifferential, RandomLinesAndMutations) {
  LineGenerator gen(20261016);
  for (int i = 0; i < 4000; ++i) {
    std::string line = gen.valid_line(gen.pick(0, 40));
    expect_same_parse(line);
    for (int m = gen.pick(1, 3); m > 0; --m) line = gen.mutate(line);
    expect_same_parse(line);
  }
}

/// A corpus text mixing valid lines, mutated lines, comments, blank lines
/// and CRLF endings; some whole-text mutations merge or split lines.
std::string corpus_text(LineGenerator& gen, int lines, bool mutate) {
  std::string text;
  for (int i = 0; i < lines; ++i) {
    switch (gen.pick(0, 19)) {
      case 0:
        text += "# comment | with @ noise\n";
        continue;
      case 1:
        text += "\n";
        continue;
      default:
        break;
    }
    std::string line = gen.valid_line(gen.pick(0, 12));
    if (mutate && gen.pick(0, 7) == 0) line = gen.mutate(line);
    text += line;
    text += gen.pick(0, 29) == 0 ? "\r\n" : "\n";
  }
  if (mutate && !text.empty()) {
    for (int k = gen.pick(0, 3); k > 0; --k) {
      const auto at = static_cast<std::size_t>(
          gen.pick(0, static_cast<int>(text.size()) - 1));
      if (gen.pick(0, 1) == 0) {
        text.insert(at, "\n");
      } else {
        text.erase(at, 1);
      }
    }
  }
  if (!text.empty() && gen.pick(0, 4) == 0) text.pop_back();  // no final \n
  return text;
}

void expect_same_corpus(const std::string& text, const std::string& label) {
  // Strict: the same corpus, or the same first error.
  std::istringstream reference_in(text);
  std::string expected_error;
  TraceCorpus expected_corpus;
  try {
    expected_corpus = reference::read_corpus(reference_in);
  } catch (const ParseError& e) {
    expected_error = e.what();
  }
  std::istringstream lenient_reference_in(text);
  LoadReport expected_report;
  const TraceCorpus expected_lenient =
      reference::read_corpus(lenient_reference_in, &expected_report);

  for (const unsigned threads : {1u, 2u, 8u}) {
    const std::string where = label + " threads=" + std::to_string(threads);
    std::istringstream in(text);
    std::string error;
    TraceCorpus corpus;
    try {
      corpus = read_corpus(in, threads);
    } catch (const ParseError& e) {
      error = e.what();
    }
    EXPECT_EQ(error, expected_error) << where;
    EXPECT_EQ(corpus.traces(), expected_corpus.traces()) << where;

    std::istringstream lenient_in(text);
    LoadReport report;
    const TraceCorpus lenient = read_corpus(lenient_in, threads, &report);
    EXPECT_EQ(lenient.traces(), expected_lenient.traces()) << where;
    EXPECT_EQ(report.skipped(), expected_report.skipped()) << where;
    EXPECT_EQ(report.loaded(), expected_report.loaded()) << where;
    ASSERT_EQ(report.offenders().size(), expected_report.offenders().size())
        << where;
    for (std::size_t i = 0; i < report.offenders().size(); ++i) {
      const LoadReport::Offender& got = report.offenders()[i];
      const LoadReport::Offender& want = expected_report.offenders()[i];
      EXPECT_EQ(got.line_no, want.line_no) << where;
      EXPECT_EQ(got.byte_offset, want.byte_offset) << where;
      EXPECT_EQ(got.error, want.error) << where;
    }
  }
}

TEST(ParserDifferential, ReadCorpusMatchesReferenceAtEveryThreadCount) {
  LineGenerator gen(7);
  expect_same_corpus("", "empty");
  expect_same_corpus("\n\n\n", "blank lines");
  expect_same_corpus("# only a comment", "comment without newline");
  expect_same_corpus("0|1.2.3.4|*", "one line without newline");
  for (int i = 0; i < 60; ++i) {
    expect_same_corpus(corpus_text(gen, gen.pick(0, 120), false),
                       "clean corpus " + std::to_string(i));
    expect_same_corpus(corpus_text(gen, gen.pick(0, 120), true),
                       "mutated corpus " + std::to_string(i));
  }
}

}  // namespace
}  // namespace mapit::trace
