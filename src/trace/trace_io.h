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

#include <cstddef>
#include <functional>
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

/// Bytes the block scanner reads at a time. A line longer than a block
/// grows the scanner's buffer until the line fits.
inline constexpr std::size_t kScanBlockBytes = std::size_t{1} << 20;

/// Receives one well-formed trace line of a scan. `worker` identifies the
/// scan worker that parsed it and `trace` is that worker's scratch trace:
/// the visitor may edit it, and must copy out whatever it keeps, because
/// the worker parses its next line into the same object.
///
/// `shared` counts the leading hops of `trace` that the worker reused from
/// the trace it visited before instead of parsing them again: as parsed,
/// before any visitor edit, the two traces' first `shared` hops are equal,
/// probe TTLs included. It is 0 for a worker's first trace and for the
/// first trace after a line that failed to parse. A visitor that keeps
/// per-worker state may skip work that its visit of the earlier trace
/// already did for those hops; others ignore it.
using TraceVisitor =
    std::function<void(unsigned worker, Trace& trace, std::size_t shared)>;

/// Streams the trace lines of `in` through `visit` in one pass, holding one
/// block of the input at a time and never the whole file.
///
/// The scanner reads kScanBlockBytes at a time into one reused buffer and
/// cuts each block after its last '\n'; the bytes after it carry over to
/// the next block, and a block without a newline grows the buffer. Within
/// a block, `workers` (>= 1; resolve a thread option with
/// parallel::resolve_threads) parse ascending byte ranges in place, one
/// thread pool serving the whole scan, and call `visit` concurrently, each
/// with its own worker index in [0, workers). Each worker visits the lines
/// of its range in file order, and a block's visits all finish before
/// `end_block` (when set) runs and the next block starts, so collecting
/// per-worker results in worker order after each block yields file order.
///
/// Each worker keeps, across blocks, a copy of its last well-formed line's
/// hop field with that line's parsed hops and token ends. A new line reuses
/// the hops of the longest prefix of its hop field that the two fields
/// share byte for byte and that ends at a token end in both, and parses
/// only the rest; `visit` learns how many hops were reused. The reuse
/// depends on the bytes alone, so traces, errors and reports are those of
/// parsing every line afresh, for any worker count and block edge.
///
/// Errors match read_corpus: strict mode (`report == nullptr`) throws
/// mapit::ParseError naming the file's first bad line, lenient mode
/// records every bad line into `*report` in file order (a block's failures
/// at a time) and adds the visited traces to its loaded count. A stream
/// that ends in bad() throws mapit::Error before the tail of the failed
/// read is parsed, so a truncated line never reaches `visit`.
void scan_traces(std::istream& in, unsigned workers, LoadReport* report,
                 const TraceVisitor& visit,
                 const std::function<void()>& end_block = {});

/// Reads a corpus written by write_corpus (or hand-authored in the same
/// format).
///
/// Strict mode (`report == nullptr`, the default) throws mapit::ParseError
/// naming the first offending line. Lenient mode (`report != nullptr`)
/// quarantines instead: malformed lines are skipped and counted into
/// `*report` (line numbers ascending), and every well-formed line loads.
///
/// The stream (seekable or not) goes through scan_traces with `threads`
/// workers (0 = one per hardware thread, 1 = sequential), each copying its
/// traces out of its scratch. The result is identical for every thread
/// count: traces keep file order, the strict-mode error is the file's first
/// bad line, and the lenient-mode LoadReport lists every bad line in file
/// order with its line number and byte offset.
///
/// A stream that ends in bad() (a read error mid-input) throws mapit::Error
/// instead of returning a truncated corpus.
[[nodiscard]] TraceCorpus read_corpus(std::istream& in, unsigned threads = 1,
                                      LoadReport* report = nullptr);

}  // namespace mapit::trace
