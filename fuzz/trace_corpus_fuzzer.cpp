// Fuzz target: the traceroute text parser, in both strict and lenient
// modes, through trace::read_corpus and through the streaming
// graph::read_graph.
//
// Contract under fuzzing: arbitrary bytes either parse or raise
// mapit::Error. Anything else escaping (raw std exceptions, UB caught by
// the sanitizers) is a finding. Lenient mode additionally must never throw
// for line-level damage — it quarantines into the LoadReport instead. The
// streaming load must agree with the corpus path (read_corpus -> sanitize
// -> InterfaceGraph): the same accept/reject outcome and error text, the
// same LoadReport, the same SanitizeStats and the same graph records. Both
// scan with reuse of the previous line, so read_corpus must also agree
// with parse_trace called on each line alone, which reuses nothing. A
// disagreement aborts.
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <istream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/interface_graph.h"
#include "net/error.h"
#include "net/load_report.h"
#include "trace/sanitize.h"
#include "trace/trace_io.h"

namespace {

using namespace mapit;

void require(bool holds) {
  if (!holds) std::abort();
}

/// The strict-mode error of `load` over `text`; nullopt when it loads.
template <typename Load>
std::optional<std::string> strict_error(const std::string& text,
                                        Load&& load) {
  std::istringstream in(text);
  try {
    load(in);
  } catch (const Error& e) {
    return std::string(e.what());
  }
  return std::nullopt;
}

bool same_report(const LoadReport& a, const LoadReport& b) {
  if (a.skipped() != b.skipped() || a.loaded() != b.loaded() ||
      a.offenders().size() != b.offenders().size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.offenders().size(); ++i) {
    const LoadReport::Offender& x = a.offenders()[i];
    const LoadReport::Offender& y = b.offenders()[i];
    if (x.line_no != y.line_no || x.byte_offset != y.byte_offset ||
        x.error != y.error) {
      return false;
    }
  }
  return true;
}

bool same_stats(const trace::SanitizeStats& a, const trace::SanitizeStats& b) {
  return a.input_traces == b.input_traces &&
         a.discarded_traces == b.discarded_traces &&
         a.removed_ttl0_hops == b.removed_ttl0_hops &&
         a.input_addresses == b.input_addresses &&
         a.retained_addresses == b.retained_addresses;
}

/// What read_corpus must return, from parse_trace on each line alone:
/// lines end at '\n', comments and blank lines are skipped, and a bad line
/// throws (strict, `report == nullptr`) or is recorded with its position.
trace::TraceCorpus per_line_corpus(const std::string& text,
                                   LoadReport* report) {
  std::vector<trace::Trace> traces;
  std::size_t line_no = 0;
  for (std::size_t at = 0; at < text.size();) {
    std::size_t end = text.find('\n', at);
    if (end == std::string::npos) end = text.size();
    const std::string_view line(text.data() + at, end - at);
    const std::size_t offset = at;
    at = end + 1;
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    try {
      traces.push_back(trace::parse_trace(
          line, "trace line " + std::to_string(line_no) + " (byte " +
                    std::to_string(offset) + ")"));
    } catch (const ParseError& e) {
      if (report == nullptr) throw;
      report->record(line_no, offset, e.what());
    }
  }
  if (report != nullptr) report->add_loaded(traces.size());
  return trace::TraceCorpus(std::move(traces));
}

bool same_records(const graph::InterfaceGraph& a,
                  const graph::InterfaceGraph& b) {
  if (a.size() != b.size() || a.half_count() != b.half_count()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const graph::InterfaceRecord& x = a.interfaces()[i];
    const graph::InterfaceRecord& y = b.interfaces()[i];
    if (x.address != y.address || x.forward != y.forward ||
        x.backward != y.backward ||
        x.other_side.address != y.other_side.address ||
        x.other_side.inference != y.other_side.inference) {
      return false;
    }
  }
  return true;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  const auto corpus_error = strict_error(text, [](std::istream& in) {
    (void)trace::read_corpus(in, /*threads=*/1);
  });
  const auto graph_error = strict_error(text, [](std::istream& in) {
    (void)graph::read_graph(in, /*threads=*/1);
  });
  require(corpus_error == graph_error);
  std::optional<std::string> per_line_error;
  try {
    (void)per_line_corpus(text, nullptr);
  } catch (const Error& e) {
    per_line_error = e.what();
  }
  require(corpus_error == per_line_error);

  std::istringstream corpus_in(text);
  LoadReport corpus_report;
  trace::TraceCorpus corpus =
      trace::read_corpus(corpus_in, /*threads=*/1, &corpus_report);
  LoadReport per_line_report;
  require(corpus.traces() ==
          per_line_corpus(text, &per_line_report).traces());
  require(same_report(corpus_report, per_line_report));
  const trace::SanitizeResult sanitized = trace::sanitize(std::move(corpus));
  // Exercise the quarantine summary formatting too.
  (void)corpus_report.summary("traces");
  const graph::InterfaceGraph graph(sanitized.clean, sanitized.addresses);

  std::istringstream stream_in(text);
  LoadReport stream_report;
  const graph::LoadedGraph loaded =
      graph::read_graph(stream_in, /*threads=*/1, &stream_report);
  require(same_report(corpus_report, stream_report));
  require(loaded.addresses == sanitized.addresses);
  require(same_stats(loaded.stats, sanitized.stats));
  require(same_records(loaded.graph, graph));
  return 0;
}
