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
// same LoadReport and the same graph records; a disagreement aborts.
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <istream>
#include <optional>
#include <sstream>
#include <string>

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

  std::istringstream corpus_in(text);
  LoadReport corpus_report;
  const trace::SanitizeResult sanitized = trace::sanitize(
      trace::read_corpus(corpus_in, /*threads=*/1, &corpus_report));
  // Exercise the quarantine summary formatting too.
  (void)corpus_report.summary("traces");
  const graph::InterfaceGraph graph(sanitized.clean, sanitized.addresses);

  std::istringstream stream_in(text);
  LoadReport stream_report;
  const graph::LoadedGraph loaded =
      graph::read_graph(stream_in, /*threads=*/1, &stream_report);
  require(same_report(corpus_report, stream_report));
  require(loaded.addresses == sanitized.addresses);
  require(loaded.stats.input_traces == sanitized.stats.input_traces);
  require(same_records(loaded.graph, graph));
  return 0;
}
