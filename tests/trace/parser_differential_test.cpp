// Differential test of the trace parser against the reference parser
// (reference_parser.h). On seeded random lines and byte-level
// mutations of them, parse_trace must return the same Trace or throw the
// same message, and read_corpus must report the same first error (strict)
// or the same LoadReport (lenient) at every thread count. Texts whose
// lines share leading hops check the scanner's reuse of its previous
// line: wherever consecutive lines diverge, the result is the reference's.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
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

  /// A hop field that keeps a random number of the hop tokens of
  /// `previous` (a hop field) and then diverges: inside the next token, at
  /// its quoted TTL, after a run of spaces or at any byte, or not at all,
  /// as the same field, a strict prefix of it, or an extension of it.
  std::string sharing_field(const std::string& previous) {
    std::vector<std::pair<std::size_t, std::size_t>> tokens;
    for (std::size_t at = 0; at < previous.size();) {
      if (previous[at] == ' ') {
        ++at;
        continue;
      }
      const std::size_t end = std::min(previous.find(' ', at), previous.size());
      tokens.emplace_back(at, end);
      at = end;
    }
    std::string field;
    if (tokens.size() > 40) return field;  // start over with fresh hops
    const auto kept =
        static_cast<std::size_t>(pick(0, static_cast<int>(tokens.size())));
    field = previous.substr(0, kept == 0 ? 0 : tokens[kept - 1].second);
    std::string next;  // the next token, with the spaces before it
    if (kept < tokens.size()) {
      next = previous.substr(field.size(), tokens[kept].second - field.size());
    }
    switch (pick(0, 8)) {
      case 0:
        return previous;  // identical
      case 1:
        return field;  // a strict prefix ending at a token end
      case 2:
        field = previous;  // previous is a strict prefix
        break;
      case 3:  // 1.2.3.4 -> 1.2.3.45, A@1 -> A@12, * -> *5
        field += next + std::to_string(pick(0, 9));
        break;
      case 4:  // 1.2.3.45 -> 1.2.3.4
        if (next.size() > 1) field += next.substr(0, next.size() - 1);
        break;
      case 5:  // 1.2.3.4 -> 1.2.3.4@5
        field += next + "@" + number(static_cast<unsigned>(pick(0, 255)));
        break;
      case 6:
        field += next + "   ";  // a run of spaces
        break;
      default:
        field = previous.substr(0, static_cast<std::size_t>(pick(
                                       0, static_cast<int>(previous.size()))));
        break;
    }
    for (int i = pick(0, 4); i > 0; --i) {
      if (!field.empty()) field += ' ';
      field += hop();
    }
    return field;
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

/// `count` hop tokens, the same at every call.
std::string numbered_hops(int count) {
  std::string field;
  for (int i = 1; i <= count; ++i) {
    if (i > 1) field += ' ';
    field += i % 7 == 0 ? "*" : "11.0." + std::to_string(i) + ".1@" +
                                    std::to_string(i % 3);
  }
  return field;
}

/// Runs of hop fields, each after the one before it, for which the reuse
/// of the previous line has an edge.
std::vector<std::vector<std::string>> sharing_runs() {
  const std::string hops250 = numbered_hops(250);
  return {
      // Divergence inside a token, at its quoted TTL, after '*' and after
      // a run of spaces.
      {"1.2.3.4 5.6.7.8", "1.2.3.45 5.6.7.8", "1.2.3.4 5.6.7.8"},
      {"11.0.0.1@1 11.0.0.2", "11.0.0.1@12 11.0.0.2"},
      {"9.9.9.9 11.0.0.1@1 11.0.0.2", "9.9.9.9 11.0.0.1@12 11.0.0.2"},
      {"1.2.3.4 5.6.7.8", "1.2.3.4@5 5.6.7.8", "1.2.3.4@5 5.6.7.9"},
      {"* 1.2.3.4", "* 1.2.3.5", "*  1.2.3.5", "** 1.2.3.5"},
      {"1.2.3.4   5.6.7.8", "1.2.3.4   9.9.9.9", "1.2.3.4  9.9.9.9"},
      // Identical lines, and a line that is a strict prefix of the one
      // before it, or the reverse; trailing and leading spaces.
      {"1.2.3.4 5.6.7.8", "1.2.3.4 5.6.7.8", "1.2.3.4 5.6.7.8"},
      {"1.2.3.4 5.6.7.8", "1.2.3.4", "1.2.3.4 5.6.7.8", "", "1.2.3.4"},
      {"1.2.3.4 ", "1.2.3.4", "1.2.3.4 ", " 1.2.3.4", " 1.2.3.4 5.6.7.8"},
      // 255 and 256 hops, 250 of them shared.
      {hops250 + " 1.0.0.1 1.0.0.2 1.0.0.3 1.0.0.4 1.0.0.5",
       hops250 + " 2.0.0.1 2.0.0.2 2.0.0.3 2.0.0.4 2.0.0.5",
       hops250 + " 2.0.0.1 2.0.0.2 2.0.0.3 2.0.0.4 2.0.0.5 2.0.0.6",
       hops250 + " 2.0.0.1 2.0.0.2 2.0.0.3 2.0.0.4 *"},
      // A bad token in the suffix, and a bad line between two lines that
      // share a prefix.
      {"1.2.3.4 5.6.7.8", "1.2.3.4 5.6.7.8 1.2.3.999", "1.2.3.4 5.6.7.8 *"},
      {"1.2.3.4 5.6.7.8", "1.2.3.4 5.6.7.8@", "1.2.3.4 5.6.7.8@1",
       "1.2.3.4 5.6.7.8\r", "1.2.3.4 5.6.7.8"},
  };
}

/// The hops each line of `text` reused, in file order, as one scan worker
/// reports them.
std::vector<std::size_t> shared_counts(const std::string& text) {
  std::istringstream in(text);
  LoadReport report;
  std::vector<std::size_t> counts;
  scan_traces(in, 1, &report, [&](unsigned, Trace&, std::size_t shared) {
    counts.push_back(shared);
  });
  return counts;
}

TEST(ParserDifferential, ReusedHopsEndAtTokenEndsOfBothLines) {
  // (previous hop field, hop field, hops the second line reuses)
  const std::vector<std::tuple<std::string, std::string, std::size_t>>
      cases = {
          {"1.2.3.4 5.6.7.8", "1.2.3.45 5.6.7.8", 0},
          {"1.2.3.45 5.6.7.8", "1.2.3.4 5.6.7.8", 0},
          {"11.0.0.1@1 11.0.0.2", "11.0.0.1@12 11.0.0.2", 0},
          {"9.9.9.9 11.0.0.1@1", "9.9.9.9 11.0.0.1@12", 1},
          {"1.2.3.4 5.6.7.8", "1.2.3.4@5 5.6.7.8", 0},
          {"* 1.2.3.4", "* 1.2.3.5", 1},
          {"* 1.2.3.4", "*  1.2.3.4", 1},
          {"1.2.3.4   5.6.7.8", "1.2.3.4   9.9.9.9", 1},
          {"1.2.3.4   5.6.7.8", "1.2.3.4 5.6.7.8", 1},
          {"1.2.3.4 5.6.7.8", "1.2.3.4 5.6.7.8", 2},
          {"1.2.3.4 5.6.7.8", "1.2.3.4", 1},
          {"1.2.3.4", "1.2.3.4 5.6.7.8", 1},
          {"1.2.3.4 ", "1.2.3.4", 1},
          {"1.2.3.4", "1.2.3.4 ", 1},
          {"1.2.3.4 5.6.7.8", "", 0},
          {"", "1.2.3.4", 0},
          {" 1.2.3.4", "1.2.3.4", 0},
      };
  for (const auto& [previous, field, shared] : cases) {
    const std::string text = "1|9.9.9.9|" + previous + "\n2|8.8.8.8|" + field;
    EXPECT_EQ(shared_counts(text),
              (std::vector<std::size_t>{0, shared}))
        << "'" << previous << "' then '" << field << "'";
  }
  // A bad line clears what the worker keeps; comments and blank lines
  // keep it.
  EXPECT_EQ(shared_counts("1|9.9.9.9|1.2.3.4 5.6.7.8\n"
                          "1|9.9.9.9|1.2.3.4 5.6.7.999\n"
                          "1|9.9.9.9|1.2.3.4 5.6.7.8\n"
                          "# 1.2.3.4\n\n"
                          "bad|9.9.9.9|1.2.3.4\n"
                          "1|9.9.9.9|1.2.3.4 5.6.7.8\n"
                          "# comment\n"
                          "\n"
                          "1|9.9.9.9|1.2.3.4 5.6.7.8\n"),
            (std::vector<std::size_t>{0, 0, 0, 2}));
}

TEST(ParserDifferential, HandPickedSharingRunsMatchReference) {
  std::string all;
  for (const std::vector<std::string>& run : sharing_runs()) {
    std::string text;
    for (const std::string& field : run) text += "3|9.9.9.9|" + field + "\n";
    expect_same_corpus(text, "run starting '" + run.front().substr(0, 30) + "'");
    all += text;
  }
  expect_same_corpus(all, "every run");
}

/// A text of at least `bytes` bytes whose lines keep a random number of
/// the previous line's hop tokens and then diverge, with the hand-picked
/// runs among them. Without `bad`, every line is well formed.
std::string sharing_text(LineGenerator& gen, std::size_t bytes, bool bad) {
  const std::vector<std::vector<std::string>> runs = sharing_runs();
  const auto keep = [&](const std::string& line) {
    return bad ||
           outcome_of([&] { return reference::parse_trace(line); }).index() ==
               0;
  };
  std::string text;
  std::string field;
  while (text.size() < bytes) {
    const std::string head = std::to_string(gen.pick(0, 3)) + "|9.9.9." +
                             std::to_string(gen.pick(0, 255)) + "|";
    if (gen.pick(0, 199) == 0) {
      for (const std::string& run_field :
           runs[static_cast<std::size_t>(
               gen.pick(0, static_cast<int>(runs.size()) - 1))]) {
        if (keep(head + run_field)) text += head + run_field + "\n";
      }
      continue;
    }
    field = gen.sharing_field(field);
    std::string line = head + field;
    if (bad && gen.pick(0, 49) == 0) line = gen.mutate(line);
    if (keep(line)) text += line + (gen.pick(0, 99) == 0 ? "\n#\n" : "\n");
  }
  return text;
}

TEST(ParserDifferential, SharingLinesMatchReferenceAcrossBlocks) {
  // Runs of lines sharing leading hops span every block edge and every
  // worker's range edge; the scanner keeps each worker's previous line
  // across blocks.
  LineGenerator gen(24);
  for (const bool bad : {false, true}) {
    const std::string text = sharing_text(gen, 2 * kScanBlockBytes + 4321, bad);
    expect_same_corpus(text, bad ? "sharing lines, some bad" : "sharing lines");
    // The reuse fires: a good share of all hops comes from previous lines.
    std::istringstream in(text);
    LoadReport report;
    const TraceCorpus corpus = reference::read_corpus(in, &report);
    std::size_t hops = 0;
    for (const Trace& trace : corpus.traces()) hops += trace.hops.size();
    std::size_t reused = 0;
    for (const std::size_t shared : shared_counts(text)) reused += shared;
    EXPECT_GT(reused, hops / 4) << "of " << hops << " hops";
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
