// Differential tests for the streaming cold path. graph::read_graph must
// equal the corpus path (read_corpus -> sanitize -> InterfaceGraph) in
// every observable: records, neighbour lists, other sides, every HalfId,
// SanitizeStats and the address population. trace::scan_traces, which both
// paths share, is checked against the getline reference reader on texts
// whose block edges fall on every kind of byte, so errors keep their line
// numbers and byte offsets across blocks. Texts whose lines share leading
// hops check the inserts the streaming path skips for the hops a worker
// reuses from its previous line.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "eval/experiment.h"
#include "failing_stream.h"
#include "graph/interface_graph.h"
#include "net/error.h"
#include "net/load_report.h"
#include "trace/reference_parser.h"
#include "trace/sanitize.h"
#include "trace/trace_io.h"

namespace mapit::graph {
namespace {

using trace::kScanBlockBytes;

constexpr unsigned kThreadCounts[] = {1, 2, 8};

std::string corpus_text(const eval::ExperimentConfig& config) {
  const auto experiment = eval::Experiment::build(config);
  std::ostringstream out;
  trace::write_corpus(out, experiment->raw_corpus());
  return out.str();
}

const std::string& small_text() {
  static const std::string text =
      corpus_text(eval::ExperimentConfig::small());
  return text;
}

void expect_same_graph(const InterfaceGraph& got, const InterfaceGraph& want,
                       const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const InterfaceRecord& a = got.interfaces()[i];
    const InterfaceRecord& b = want.interfaces()[i];
    ASSERT_EQ(a.address, b.address) << label << " record " << i;
    EXPECT_EQ(a.forward, b.forward) << label << " " << a.address;
    EXPECT_EQ(a.backward, b.backward) << label << " " << a.address;
    EXPECT_EQ(a.other_side.address, b.other_side.address) << label;
    EXPECT_EQ(a.other_side.inference, b.other_side.inference) << label;
  }
  ASSERT_EQ(got.phantom_count(), want.phantom_count()) << label;
  ASSERT_EQ(got.half_count(), want.half_count()) << label;
  for (HalfId id = 0; id < got.half_count(); ++id) {
    ASSERT_EQ(got.address_at(id), want.address_at(id)) << label << " " << id;
    const auto ids = got.neighbor_ids(id);
    const auto want_ids = want.neighbor_ids(id);
    EXPECT_TRUE(std::equal(ids.begin(), ids.end(), want_ids.begin(),
                           want_ids.end()))
        << label << " id " << id;
    const auto rev = got.reverse_neighbor_ids(id);
    const auto want_rev = want.reverse_neighbor_ids(id);
    EXPECT_TRUE(std::equal(rev.begin(), rev.end(), want_rev.begin(),
                           want_rev.end()))
        << label << " id " << id;
    EXPECT_EQ(got.other_side_id(id), want.other_side_id(id))
        << label << " id " << id;
  }
}

void expect_same_stats(const trace::SanitizeStats& got,
                       const trace::SanitizeStats& want,
                       const std::string& label) {
  EXPECT_EQ(got.input_traces, want.input_traces) << label;
  EXPECT_EQ(got.discarded_traces, want.discarded_traces) << label;
  EXPECT_EQ(got.removed_ttl0_hops, want.removed_ttl0_hops) << label;
  EXPECT_EQ(got.input_addresses, want.input_addresses) << label;
  EXPECT_EQ(got.retained_addresses, want.retained_addresses) << label;
}

void expect_same_report(const LoadReport& got, const LoadReport& want,
                        const std::string& label) {
  EXPECT_EQ(got.skipped(), want.skipped()) << label;
  EXPECT_EQ(got.loaded(), want.loaded()) << label;
  ASSERT_EQ(got.offenders().size(), want.offenders().size()) << label;
  for (std::size_t i = 0; i < got.offenders().size(); ++i) {
    EXPECT_EQ(got.offenders()[i].line_no, want.offenders()[i].line_no)
        << label << " offender " << i;
    EXPECT_EQ(got.offenders()[i].byte_offset, want.offenders()[i].byte_offset)
        << label << " offender " << i;
    EXPECT_EQ(got.offenders()[i].error, want.offenders()[i].error)
        << label << " offender " << i;
  }
}

/// Loads `text` leniently through the reference reader, read_corpus and
/// read_graph at every thread count, and requires one answer: the same
/// traces, LoadReport, graph, stats and population.
void expect_all_paths_agree(const std::string& text,
                            const std::string& label) {
  std::istringstream reference_in(text);
  LoadReport reference_report;
  const trace::TraceCorpus reference =
      trace::reference::read_corpus(reference_in, &reference_report);
  const trace::SanitizeResult sanitized = trace::sanitize(reference);
  const InterfaceGraph want(sanitized.clean, sanitized.addresses);

  for (const unsigned threads : kThreadCounts) {
    const std::string at = label + ", threads " + std::to_string(threads);
    {
      std::istringstream in(text);
      LoadReport report;
      const trace::TraceCorpus corpus = trace::read_corpus(in, threads, &report);
      EXPECT_EQ(corpus.traces(), reference.traces()) << at;
      expect_same_report(report, reference_report, at + " read_corpus");
    }
    std::istringstream in(text);
    LoadReport report;
    const LoadedGraph loaded = read_graph(in, threads, &report);
    expect_same_report(report, reference_report, at + " read_graph");
    expect_same_stats(loaded.stats, sanitized.stats, at);
    EXPECT_EQ(loaded.addresses, sanitized.addresses) << at;
    expect_same_graph(loaded.graph, want, at);
  }
}

/// The strict-mode error of `load` over `text`, or "" when it loads.
template <typename Load>
std::string strict_error(const std::string& text, Load&& load) {
  std::istringstream in(text);
  try {
    (void)load(in);
  } catch (const ParseError& e) {
    return e.what();
  }
  return "";
}

/// Appends a line of `size` bytes, '\n' included, that parses to nothing:
/// a blank line for 1, a comment otherwise.
void append_filler(std::string& text, std::size_t size) {
  if (size == 0) return;
  if (size > 1) text += "#" + std::string(size - 2, 'f');
  text += '\n';
}

/// Appends trace lines of the small corpus until `text` reaches at least
/// `size` bytes less a line's worth, then filler so that it is exactly
/// `size` bytes long.
void fill_to(std::string& text, std::size_t size) {
  static const std::vector<std::string> lines = [] {
    std::vector<std::string> out;
    std::istringstream in(small_text());
    for (std::string line; std::getline(in, line);) {
      if (!line.empty() && line[0] != '#') out.push_back(line);
    }
    return out;
  }();
  std::size_t next = text.size() % lines.size();
  while (text.size() + lines[next].size() + 1 + 8192 < size) {
    text += lines[next] + "\n";
    next = (next + 1) % lines.size();
  }
  ASSERT_LE(text.size(), size);
  append_filler(text, size - text.size());
}

TEST(StreamLoad, ExperimentCorporaMatchTheCorpusPath) {
  for (const bool standard : {false, true}) {
    const std::string text =
        standard ? corpus_text(eval::ExperimentConfig::standard())
                 : small_text();
    if (standard) {
      ASSERT_GT(text.size(), 4 * kScanBlockBytes);
    }
    for (const unsigned threads : kThreadCounts) {
      const std::string label = std::string(standard ? "standard" : "small") +
                                ", threads " + std::to_string(threads);
      std::istringstream corpus_in(text);
      const trace::SanitizeResult sanitized =
          trace::sanitize(trace::read_corpus(corpus_in, threads), threads);
      const InterfaceGraph want(sanitized.clean, sanitized.addresses, threads);
      std::istringstream stream_in(text);
      const LoadedGraph loaded = read_graph(stream_in, threads);
      expect_same_stats(loaded.stats, sanitized.stats, label);
      EXPECT_EQ(loaded.addresses, sanitized.addresses) << label;
      expect_same_graph(loaded.graph, want, label);
    }
  }
}

TEST(StreamLoad, BlockEdgesFallOnEveryKindOfByte) {
  const std::size_t edge = kScanBlockBytes;
  struct Case {
    const char* name;
    std::string text;
  };
  std::vector<Case> cases;
  const auto with_line_at = [&](const char* name, std::size_t at,
                                const std::string& line) {
    std::string text;
    fill_to(text, at);
    text += line;
    fill_to(text, 2 * edge + 4096);
    cases.push_back({name, std::move(text)});
  };
  const std::string line = "7|20.0.0.9|11.0.0.1 11.0.0.2\n";  // 29 bytes
  // The first block ends exactly with a trace line's '\n'.
  with_line_at("edge at newline", edge - line.size(), line);
  // The edge splits a hop's address, then the destination.
  with_line_at("edge mid-token", edge - 15, line);
  with_line_at("edge mid-destination", edge - 6, line);
  // The edge falls inside a comment, and right before a blank line.
  with_line_at("edge inside a comment", edge - 20,
               "# a comment that the block edge cuts in two\n");
  with_line_at("edge before a blank line", edge - line.size(), line + "\n");
  {
    std::string text;
    fill_to(text, edge + 100);
    text += "7|20.0.0.9|11.0.0.1 11.0.0.2";  // no final '\n'
    cases.push_back({"final line without newline", std::move(text)});
  }
  {
    // A well-formed line longer than a block (hops may be separated by runs
    // of spaces) and a garbage one, each growing the buffer.
    std::string text;
    fill_to(text, edge / 2);
    text += "7|20.0.0.9|11.0.0.1" + std::string(edge + 17, ' ') +
            "11.0.0.2 11.0.0.3\n";
    text += std::string(edge + edge / 2, 'x') + "\n";
    fill_to(text, 4 * edge);
    cases.push_back({"lines longer than a block", std::move(text)});
  }
  for (const Case& c : cases) {
    ASSERT_GT(c.text.size(), edge) << c.name;
    expect_all_paths_agree(c.text, c.name);
  }
}

TEST(StreamLoad, BadLinesInFirstMiddleAndLastBlockKeepTheirPositions) {
  const std::size_t edge = kScanBlockBytes;
  const std::string bad[] = {"1|20.0.0.9|1.2.3.999\n", "garbage\n",
                             "2|9.9.9.9|1.0.0.1@999\n"};
  std::string text;
  fill_to(text, edge / 3);
  text += bad[0];  // first block
  fill_to(text, 2 * edge - 11);
  text += bad[1];  // a middle block
  fill_to(text, 3 * edge + edge / 2);
  text += bad[2];  // last block
  fill_to(text, 3 * edge + 3 * edge / 4);

  // Lenient: every offender with its line and byte, and the same graph.
  expect_all_paths_agree(text, "three bad lines");

  // Strict: with the bad lines before it commented out (same length, so
  // every line keeps its number and byte offset), each bad line is the
  // file's first, and every path names it as the reference does.
  const auto reference = [](std::istream& in) {
    return trace::reference::read_corpus(in);
  };
  std::size_t at = 0;
  for (const std::string& line : bad) {
    at = text.find(line, at);
    ASSERT_NE(at, std::string::npos);
    const std::string expected = strict_error(text, reference);
    ASSERT_NE(expected.find("(byte " + std::to_string(at) + ")"),
              std::string::npos)
        << expected;
    for (const unsigned threads : kThreadCounts) {
      EXPECT_EQ(strict_error(text,
                             [&](std::istream& in) {
                               return trace::read_corpus(in, threads);
                             }),
                expected)
          << threads << " threads";
      EXPECT_EQ(strict_error(text,
                             [&](std::istream& in) {
                               return read_graph(in, threads);
                             }),
                expected)
          << threads << " threads";
    }
    text.replace(at, line.size() - 1, "#" + std::string(line.size() - 2, 'c'));
    at += line.size();
  }
}

TEST(StreamLoad, ManyBadLinesAcrossBlocksAndWorkersCountLikeTheReference) {
  // Every 7th line is damaged, so each worker's range of each block holds
  // more bad lines than a LoadReport details.
  std::string text;
  fill_to(text, 2 * kScanBlockBytes + kScanBlockBytes / 2);
  std::string dirty;
  std::istringstream in(text);
  std::size_t line_no = 0;
  for (std::string line; std::getline(in, line);) {
    dirty += (++line_no % 7 == 0 ? "x" + line : line) + "\n";
  }
  expect_all_paths_agree(dirty, "every 7th line bad");
}

/// Fresh public addresses, each handed out once: what a planted run does
/// with them shows in the address population and the graph alone.
class UniqueAddresses {
 public:
  std::string next() {
    ++count_;
    return "30." + std::to_string(count_ >> 16 & 255) + "." +
           std::to_string(count_ >> 8 & 255) + "." +
           std::to_string(count_ & 255);
  }

 private:
  std::uint32_t count_ = 0;
};

/// Runs of lines that share leading hops and on which the streaming
/// path's skipped inserts have an edge, each over addresses of its own.
std::string planted_runs(UniqueAddresses& unique) {
  const std::string a = unique.next();
  const std::string b = unique.next();
  const std::string c = unique.next();
  const std::string d = unique.next();
  const std::string e = unique.next();
  std::string text;
  const auto line = [&](const std::string& hops) {
    text += "5|20.0.0.1|" + hops + "\n";
  };
  // A quoted-TTL-0 hop inside the shared prefix: its address is dropped,
  // and the adjacency across it is not one.
  line(a + " " + b + "@0 " + c + " " + d);
  line(a + " " + b + "@0 " + c + " " + e);
  // A trace discarded for a cycle, then a kept one with the same prefix:
  // the kept trace must still put the prefix into the kept addresses and
  // its adjacencies into the graph.
  const std::string f = unique.next();
  const std::string g = unique.next();
  const std::string h = unique.next();
  const std::string i = unique.next();
  line(f + " " + g + "@0 " + h + " " + f);
  line(f + " " + g + "@0 " + h + " " + i);
  // A kept trace, then a discarded one with the same prefix whose cycle
  // closes only in its suffix, then a kept one again.
  const std::string j = unique.next();
  const std::string k = unique.next();
  const std::string l = unique.next();
  const std::string m = unique.next();
  line(j + " " + k + " " + l);
  line(j + " " + k + " " + l + " " + m + " " + k);
  line(j + " " + k + " " + l + " " + m);
  // Two discarded traces sharing a prefix whose addresses no kept trace
  // has.
  const std::string n = unique.next();
  const std::string o = unique.next();
  line(n + " " + o + " " + n);
  line(n + " " + o + " " + n + " *");
  // A quoted-TTL-0 hop right after the shared prefix.
  const std::string p = unique.next();
  const std::string q = unique.next();
  const std::string r = unique.next();
  line(p + " " + q);
  line(p + " " + q + " " + r + "@0 " + a);
  return text;
}

/// A text of at least `bytes` bytes whose lines keep a random number of
/// the previous line's hops and add new ones, as one monitor's traces
/// share their first hops. Few addresses, frequent quoted TTL 0 hops and
/// '*' put cycles and removed hops into shared prefixes and suffixes
/// alike; the planted runs recur among them.
std::string sharing_trace_text(std::uint64_t seed, std::size_t bytes) {
  std::mt19937_64 rng(seed);
  const auto pick = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  UniqueAddresses unique;
  std::vector<std::string> hops;
  std::string text;
  while (text.size() < bytes) {
    if (pick(0, 99) == 0) {
      text += planted_runs(unique);
      continue;
    }
    hops.resize(static_cast<std::size_t>(
        pick(0, static_cast<int>(std::min<std::size_t>(hops.size(), 25)))));
    for (int added = pick(0, 6); added > 0; --added) {
      std::string hop = "*";
      if (pick(0, 11) != 0) {
        hop = "11.0." + std::to_string(pick(0, 11)) + "." +
              std::to_string(pick(0, 11));
        const int quoted = pick(0, 9);
        if (quoted < 3) hop += quoted == 0 ? "@0" : "@1";
      }
      hops.push_back(hop);
    }
    text += std::to_string(pick(0, 3)) + "|20.0.0." +
            std::to_string(pick(0, 255)) + "|";
    for (std::size_t h = 0; h < hops.size(); ++h) {
      if (h > 0) text += ' ';
      text += hops[h];
    }
    text += '\n';
  }
  return text;
}

TEST(StreamLoad, PlantedSharingRunsMatchTheCorpusPath) {
  UniqueAddresses unique;
  std::string text;
  for (int copy = 0; copy < 3; ++copy) text += planted_runs(unique);
  expect_all_paths_agree(text, "planted runs");
  // Every planted kind happens: four traces of each copy are discarded,
  // five quoted TTL 0 hops go, and five addresses are seen but not
  // retained (three only at quoted TTL 0, two only in discarded traces).
  std::istringstream in(text);
  const trace::SanitizeStats stats = read_graph(in).stats;
  EXPECT_EQ(stats.discarded_traces, 3u * 4u);
  EXPECT_EQ(stats.removed_ttl0_hops, 3u * 5u);
  EXPECT_EQ(stats.input_addresses - stats.retained_addresses, 3u * 5u);
}

TEST(StreamLoad, LinesSharingPrefixesMatchTheCorpusPath) {
  // Runs of sharing lines span every block edge and every worker's range
  // edge, so each worker also reuses a line from an earlier block.
  const std::string text = sharing_trace_text(17, 2 * kScanBlockBytes + 777);
  expect_all_paths_agree(text, "sharing lines");
  std::istringstream in(text);
  const trace::SanitizeStats stats = read_graph(in).stats;
  EXPECT_GT(stats.discarded_traces, stats.input_traces / 20);
  EXPECT_GT(stats.removed_ttl0_hops, stats.input_traces / 20);
}

TEST(StreamLoad, ReadErrorMidBlockThrows) {
  std::string text;
  fill_to(text, kScanBlockBytes + kScanBlockBytes / 2);
  // The read fails inside a line of the second block, and inside the first.
  for (const std::size_t cut : {text.size() - 7, kScanBlockBytes / 3}) {
    const std::string prefix = text.substr(0, cut);
    for (const unsigned threads : {1u, 2u}) {
      testutil::expect_read_error(prefix, "trace corpus",
                                  [threads](std::istream& in) {
                                    return read_graph(in, threads);
                                  });
      testutil::expect_read_error(prefix, "trace corpus",
                                  [threads](std::istream& in) {
                                    LoadReport report;
                                    return read_graph(in, threads, &report);
                                  });
      testutil::expect_read_error(prefix, "trace corpus",
                                  [threads](std::istream& in) {
                                    return trace::read_corpus(in, threads);
                                  });
    }
  }
}

TEST(StreamLoad, ScannerEndsEveryBlockOnceAfterItsVisits) {
  std::string text;
  fill_to(text, 3 * kScanBlockBytes + 100);
  std::istringstream reference_in(text);
  const trace::TraceCorpus reference = trace::reference::read_corpus(
      reference_in);
  for (const unsigned threads : kThreadCounts) {
    std::istringstream in(text);
    std::vector<std::size_t> visits(threads, 0);
    std::size_t blocks = 0;
    std::size_t total = 0;
    trace::scan_traces(
        in, threads, nullptr,
        [&](unsigned worker, trace::Trace&, std::size_t) {
          ++visits[worker];
        },
        [&] {
          ++blocks;
          for (std::size_t& count : visits) {
            total += count;
            count = 0;
          }
        });
    // Four blocks: the text is cut after the last '\n' of each full one.
    EXPECT_EQ(blocks, 4u) << threads << " threads";
    EXPECT_EQ(total, reference.size()) << threads << " threads";
  }
}

}  // namespace
}  // namespace mapit::graph
