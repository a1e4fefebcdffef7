#include "trace/trace_io.h"

#include <algorithm>
#include <istream>
#include <iterator>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "net/error.h"
#include "net/parse.h"
#include "parallel/thread_pool.h"

namespace mapit::trace {

namespace {

constexpr std::size_t kMaxHops = 255;

/// Parses one hop token into the default-constructed `hop`; on failure sets
/// `error` and returns false.
bool parse_hop(std::string_view token, TraceHop& hop, std::string& error) {
  if (token == "*") return true;
  std::string_view addr_text = token;
  const std::size_t at = token.find('@');
  if (at != std::string_view::npos) {
    addr_text = token.substr(0, at);
    const std::string_view quoted_text = token.substr(at + 1);
    bool digits = !quoted_text.empty() && quoted_text.size() <= 3;
    unsigned value = 0;
    for (std::size_t i = 0; digits && i < quoted_text.size(); ++i) {
      const char c = quoted_text[i];
      digits = c >= '0' && c <= '9';
      value = value * 10 + static_cast<unsigned>(c - '0');
    }
    if (!digits) {
      error = "bad quoted TTL in hop '" + std::string(token) + "'";
      return false;
    }
    if (value > 255) {
      error = "quoted TTL out of range in hop '" + std::string(token) + "'";
      return false;
    }
    hop.quoted_ttl = static_cast<std::uint8_t>(value);
  }
  const auto address = net::Ipv4Address::parse(addr_text);
  if (!address) {
    error = "bad address in hop '" + std::string(token) + "'";
    return false;
  }
  hop.address = *address;
  return true;
}

/// The trace-line grammar, parsed in place from the line's bytes. Fills
/// `trace` (reusing the capacity of its hops) or returns false with the
/// reason in `error`; the caller adds the position.
bool parse_line(std::string_view line, Trace& trace, std::string& error) {
  const std::size_t bar1 = line.find('|');
  const std::size_t bar2 = bar1 == std::string_view::npos
                               ? std::string_view::npos
                               : line.find('|', bar1 + 1);
  if (bar2 == std::string_view::npos ||
      line.find('|', bar2 + 1) != std::string_view::npos) {
    error = "expected 'monitor|destination|hops'";
    return false;
  }
  const std::string_view monitor_text = line.substr(0, bar1);
  const auto monitor = net::parse_uint<MonitorId>(monitor_text);
  if (!monitor) {
    error = "bad monitor id '" + std::string(monitor_text) + "'";
    return false;
  }
  const std::string_view destination_text =
      line.substr(bar1 + 1, bar2 - bar1 - 1);
  const auto destination = net::Ipv4Address::parse(destination_text);
  if (!destination) {
    error = "bad destination '" + std::string(destination_text) + "'";
    return false;
  }
  trace.monitor = *monitor;
  trace.destination = *destination;
  trace.hops.clear();
  // Hops are separated by single spaces; empty tokens (runs of spaces) are
  // skipped. Every other byte, '\t' and '\r' included, belongs to a token.
  const std::string_view hops = line.substr(bar2 + 1);
  std::size_t at = 0;
  while (at < hops.size()) {
    if (hops[at] == ' ') {
      ++at;
      continue;
    }
    std::size_t end = hops.find(' ', at);
    if (end == std::string_view::npos) end = hops.size();
    if (trace.hops.size() == kMaxHops) {
      error = "more than 255 hops";
      return false;
    }
    TraceHop& hop = trace.hops.emplace_back();
    hop.probe_ttl = static_cast<std::uint8_t>(trace.hops.size());
    if (!parse_hop(hops.substr(at, end - at), hop, error)) return false;
    at = end;
  }
  return true;
}

/// A line that failed to parse, positioned within its worker's range.
struct Failure {
  std::size_t line = 0;    ///< 1-based among the lines the range holds
  std::size_t offset = 0;  ///< byte offset of the line in its block
  std::string detail;
};

/// One worker's scratch trace, and what it found in its byte range of the
/// current block. A cache line apart from the other workers' parts: the
/// scratch trace is written on every hop.
struct alignas(64) Part {
  Trace scratch;           ///< its hop capacity is reused line to line
  std::size_t lines = 0;   ///< lines started (comments and blanks included)
  std::size_t traces = 0;  ///< well-formed lines visited
  /// The range's first bad lines: as many as a LoadReport details, so a
  /// block of garbage costs a count, not a failure per line.
  std::vector<Failure> failures;
  std::size_t more_failures = 0;  ///< bad lines after those
};

}  // namespace

std::string format_trace(const Trace& trace) {
  std::string out = std::to_string(trace.monitor);
  out.push_back('|');
  out += trace.destination.to_string();
  out.push_back('|');
  bool first = true;
  for (const TraceHop& hop : trace.hops) {
    if (!first) out.push_back(' ');
    first = false;
    if (!hop.address) {
      out.push_back('*');
      continue;
    }
    out += hop.address->to_string();
    if (hop.quoted_ttl) {
      out.push_back('@');
      out += std::to_string(*hop.quoted_ttl);
    }
  }
  return out;
}

Trace parse_trace(std::string_view line, std::string_view context) {
  Trace trace;
  std::string error;
  if (!parse_line(line, trace, error)) {
    throw ParseError(std::string(context) + ": " + error);
  }
  return trace;
}

void write_corpus(std::ostream& out, const TraceCorpus& corpus) {
  out << "# mapit trace corpus v1: monitor|destination|hop hop ...\n";
  for (const Trace& trace : corpus.traces()) {
    out << format_trace(trace) << '\n';
  }
}

void scan_traces(std::istream& in, unsigned workers, LoadReport* report,
                 const TraceVisitor& visit,
                 const std::function<void()>& end_block) {
  MAPIT_ENSURE(workers > 0, "scan_traces needs at least one worker");
  std::optional<parallel::ThreadPool> pool;
  if (workers > 1) pool.emplace(workers);
  std::vector<Part> parts(workers);

  // Workers own ascending byte ranges of the block; a line belongs to the
  // worker whose range holds its first byte. Line numbers are only known
  // once the earlier ranges have counted their lines, so failures are
  // positioned within their range and numbered below. In strict mode each
  // worker stops at its first bad line, so the lowest failing range holds
  // the block's first bad line.
  std::string_view block;
  const parallel::ThreadPool::RangeFn parse_range =
      [&](unsigned worker, std::size_t begin, std::size_t end) {
        Part& part = parts[worker];
        Trace& trace = part.scratch;
        std::size_t at = begin;
        if (at > 0 && block[at - 1] != '\n') {
          at = block.find('\n', at);
          at = at == std::string_view::npos ? block.size() : at + 1;
        }
        std::size_t lines = 0;
        std::size_t traces = 0;
        std::string error;
        while (at < end) {
          std::size_t line_end = block.find('\n', at);
          if (line_end == std::string_view::npos) line_end = block.size();
          const std::string_view line = block.substr(at, line_end - at);
          const std::size_t offset = at;
          at = line_end + 1;
          ++lines;
          if (line.empty() || line[0] == '#') continue;
          if (parse_line(line, trace, error)) {
            visit(worker, trace);
            ++traces;
            continue;
          }
          if (part.failures.size() < LoadReport::kMaxDetailed) {
            part.failures.push_back({lines, offset, std::move(error)});
          } else {
            ++part.more_failures;
          }
          if (report == nullptr) break;
        }
        part.lines = lines;
        part.traces = traces;
      };

  std::vector<char> buffer(kScanBlockBytes);
  std::size_t filled = 0;     // bytes in buffer: carried-over, then read
  std::size_t position = 0;   // input offset of buffer[0]
  std::size_t line_base = 0;  // lines before buffer[0]
  std::size_t loaded = 0;
  while (true) {
    if (in.good()) {
      in.read(buffer.data() + filled,
              static_cast<std::streamsize>(buffer.size() - filled));
      filled += static_cast<std::size_t>(in.gcount());
    }
    // A short read ends the input; a failed one must throw before any of
    // its tail is parsed.
    check_read(in, "trace corpus");
    const bool last = !in.good();
    std::size_t cut = filled;
    if (!last) {
      const auto newline =
          std::string_view(buffer.data(), filled).rfind('\n');
      if (newline == std::string_view::npos) {
        buffer.resize(2 * buffer.size());  // a line longer than the buffer
        continue;
      }
      cut = newline + 1;
    }
    if (cut > 0) {
      block = std::string_view(buffer.data(), cut);
      for (Part& part : parts) {
        part.lines = 0;
        part.traces = 0;
        part.failures.clear();
        part.more_failures = 0;
      }
      parallel::for_ranges(pool ? &*pool : nullptr, block.size(),
                           parse_range);
      for (Part& part : parts) {
        for (Failure& failure : part.failures) {
          // Line number for humans, byte offset so a fuzzer crash (or any
          // tool holding the raw bytes) maps straight to the input.
          const std::size_t line_no = line_base + failure.line;
          const std::size_t offset = position + failure.offset;
          std::string message = "trace line " + std::to_string(line_no) +
                                " (byte " + std::to_string(offset) +
                                "): " + failure.detail;
          if (report == nullptr) throw ParseError(message);
          report->record(line_no, offset, std::move(message));
        }
        if (part.more_failures > 0) report->add_skipped(part.more_failures);
        line_base += part.lines;
        loaded += part.traces;
      }
      if (end_block) end_block();
    }
    if (last) break;
    std::copy(buffer.begin() + static_cast<std::ptrdiff_t>(cut),
              buffer.begin() + static_cast<std::ptrdiff_t>(filled),
              buffer.begin());
    filled -= cut;
    position += cut;
  }
  if (report != nullptr) report->add_loaded(loaded);
}

TraceCorpus read_corpus(std::istream& in, unsigned threads,
                        LoadReport* report) {
  // Each worker copies its traces out of its scratch (an exact-size hop
  // vector each) into its own vector, a cache line apart from the others;
  // after every block the copies join the corpus in worker order, which is
  // file order.
  struct alignas(64) Copies {
    std::vector<Trace> traces;
  };
  std::vector<Copies> copies(parallel::resolve_threads(threads));
  std::vector<Trace> traces;
  scan_traces(
      in, static_cast<unsigned>(copies.size()), report,
      [&](unsigned worker, Trace& trace) {
        copies[worker].traces.push_back(trace);
      },
      [&] {
        for (Copies& worker : copies) {
          traces.insert(traces.end(),
                        std::make_move_iterator(worker.traces.begin()),
                        std::make_move_iterator(worker.traces.end()));
          worker.traces.clear();
        }
      });
  return TraceCorpus(std::move(traces));
}

}  // namespace mapit::trace
