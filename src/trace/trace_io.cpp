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

/// The rest of `in`, in one buffer. Seekable streams are sized up front;
/// pipes grow the buffer as they go.
std::string read_all(std::istream& in) {
  std::string bytes;
  std::streambuf* buffer = in.rdbuf();
  if (in.good() && buffer != nullptr) {
    const auto here = buffer->pubseekoff(0, std::ios::cur, std::ios::in);
    const auto end = buffer->pubseekoff(0, std::ios::end, std::ios::in);
    if (here != -1 && end != -1) {
      buffer->pubseekpos(here, std::ios::in);
      const std::streamoff remaining = end - here;
      if (remaining > 0) bytes.resize(static_cast<std::size_t>(remaining));
    }
  }
  std::size_t size = 0;
  while (in.good()) {
    if (size == bytes.size()) {
      if (in.peek() == std::char_traits<char>::eof()) break;
      bytes.resize(std::max<std::size_t>(4096, 2 * size));
    }
    in.read(bytes.data() + size,
            static_cast<std::streamsize>(bytes.size() - size));
    size += static_cast<std::size_t>(in.gcount());
  }
  check_read(in, "trace corpus");
  bytes.resize(size);
  return bytes;
}

/// A line that failed to parse, positioned within its worker's range.
struct Failure {
  std::size_t line = 0;    ///< 1-based among the lines the part owns
  std::size_t offset = 0;  ///< absolute byte offset of the line
  std::string detail;
};

/// What one worker parses: the lines that start inside its byte range.
struct Part {
  std::vector<Trace> traces;
  std::size_t lines = 0;  ///< lines started (comments and blanks included)
  std::vector<Failure> failures;
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

TraceCorpus read_corpus(std::istream& in, unsigned threads,
                        LoadReport* report) {
  const std::string bytes = read_all(in);
  const std::string_view text = bytes;

  const unsigned resolved = parallel::resolve_threads(threads);
  std::optional<parallel::ThreadPool> pool;
  if (resolved > 1 && text.size() > 1) pool.emplace(resolved);
  std::vector<Part> parts(pool ? pool->size() : 1);
  // Workers own ascending byte ranges; a line belongs to the worker whose
  // range holds its first byte. Line numbers are only known once the
  // earlier parts have counted their lines, so failures are positioned
  // within their part and numbered below. In strict mode each worker stops
  // at its first bad line, so the lowest failing part holds the first bad
  // line of the file.
  parallel::for_ranges(
      pool ? &*pool : nullptr, text.size(),
      [&](unsigned worker, std::size_t begin, std::size_t end) {
        Part& part = parts[worker];
        std::size_t at = begin;
        if (at > 0 && text[at - 1] != '\n') {
          at = text.find('\n', at);
          at = at == std::string_view::npos ? text.size() : at + 1;
        }
        Trace scratch;  // its hops' capacity is reused line after line
        std::string error;
        while (at < end) {
          std::size_t line_end = text.find('\n', at);
          if (line_end == std::string_view::npos) line_end = text.size();
          const std::string_view line = text.substr(at, line_end - at);
          const std::size_t offset = at;
          at = line_end + 1;
          ++part.lines;
          if (line.empty() || line[0] == '#') continue;
          if (parse_line(line, scratch, error)) {
            part.traces.push_back(Trace{
                scratch.monitor, scratch.destination,
                std::vector<TraceHop>(scratch.hops.begin(),
                                      scratch.hops.end())});
            continue;
          }
          part.failures.push_back({part.lines, offset, std::move(error)});
          if (report == nullptr) return;
        }
      });

  std::size_t line_base = 0;
  std::size_t total = 0;
  for (Part& part : parts) {
    for (Failure& failure : part.failures) {
      // Line number for humans, byte offset so a fuzzer crash (or any tool
      // holding the raw bytes) maps straight to the input.
      const std::size_t line_no = line_base + failure.line;
      std::string message = "trace line " + std::to_string(line_no) +
                            " (byte " + std::to_string(failure.offset) +
                            "): " + failure.detail;
      if (report == nullptr) throw ParseError(message);
      report->record(line_no, failure.offset, std::move(message));
    }
    line_base += part.lines;
    total += part.traces.size();
  }
  std::vector<Trace> traces = std::move(parts[0].traces);
  traces.reserve(total);
  for (std::size_t w = 1; w < parts.size(); ++w) {
    traces.insert(traces.end(),
                  std::make_move_iterator(parts[w].traces.begin()),
                  std::make_move_iterator(parts[w].traces.end()));
  }
  if (report != nullptr) report->add_loaded(traces.size());
  return TraceCorpus(std::move(traces));
}

}  // namespace mapit::trace
