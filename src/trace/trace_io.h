// Text serialization for traceroute corpora.
//
// Line format (one trace per line, '#' comments and blank lines allowed):
//
//   <monitor_id>|<destination>|<hop> <hop> ...
//
// where each hop is one of
//   *                unresponsive hop
//   A.B.C.D          response, no quoted TTL recorded
//   A.B.C.D@Q        response with quoted TTL Q (0..255)
//
// Hops are listed in probe-TTL order starting at TTL 1; a '*' keeps the TTL
// counter advancing, matching how traceroute output is read.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "net/load_report.h"
#include "trace/trace.h"

namespace mapit::trace {

/// Serializes one trace to its line representation (no trailing newline).
[[nodiscard]] std::string format_trace(const Trace& trace);

/// Parses one line with the parser read_corpus uses. Throws
/// mapit::ParseError with `context` on failure.
[[nodiscard]] Trace parse_trace(std::string_view line,
                                std::string_view context = "trace");

/// Writes the whole corpus, one trace per line, with a header comment.
void write_corpus(std::ostream& out, const TraceCorpus& corpus);

/// Reads a corpus written by write_corpus (or hand-authored in the same
/// format).
///
/// Strict mode (`report == nullptr`, the default) throws mapit::ParseError
/// naming the first offending line. Lenient mode (`report != nullptr`)
/// quarantines instead: malformed lines are skipped and counted into
/// `*report` (line numbers ascending), and every well-formed line loads.
///
/// The stream (seekable or not) is read into one buffer, and `threads`
/// workers parse ascending byte ranges of it in place (0 = one per hardware
/// thread, 1 = sequential). The result is identical for every thread count:
/// traces keep file order, the strict-mode error is the file's first bad
/// line, and the lenient-mode LoadReport lists every bad line in file order
/// with its line number and byte offset.
///
/// A stream that ends in bad() (a read error mid-input) throws mapit::Error
/// instead of returning a truncated corpus.
[[nodiscard]] TraceCorpus read_corpus(std::istream& in, unsigned threads = 1,
                                      LoadReport* report = nullptr);

}  // namespace mapit::trace
