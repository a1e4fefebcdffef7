#include "trace/trace_io.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
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

/// Parses the hop token that starts at `at` in the hop field `field` when
/// it has a common form, A.B.C.D or A.B.C.D@Q: four octets and an optional
/// quoted TTL, each of 1-3 digits and at most 255. One pass parses the
/// token and finds its end, which it returns; for any other token it
/// returns npos and leaves `hop` untouched.
std::size_t parse_address_hop(std::string_view field, std::size_t at,
                              TraceHop& hop) {
  const char* next = field.data() + at;
  const char* const end = field.data() + field.size();
  const auto digit = [&] {
    return next != end && static_cast<unsigned char>(*next - '0') <= 9;
  };
  const auto number = [&](unsigned& value) {
    if (!digit()) return false;
    value = static_cast<unsigned>(*next++ - '0');
    for (int more = 0; more < 2 && digit(); ++more) {
      value = value * 10 + static_cast<unsigned>(*next++ - '0');
    }
    return value <= 255;
  };
  std::uint32_t address = 0;
  for (int i = 0; i < 4; ++i) {
    unsigned octet = 0;
    if (!number(octet)) return std::string_view::npos;
    address = address << 8 | octet;
    if (i < 3 && (next == end || *next++ != '.')) {
      return std::string_view::npos;
    }
  }
  unsigned quoted = 0;
  const bool has_quoted = next != end && *next == '@';
  if (has_quoted) {
    ++next;
    if (!number(quoted)) return std::string_view::npos;
  }
  if (next != end && *next != ' ') return std::string_view::npos;
  hop.address = net::Ipv4Address(address);
  if (has_quoted) hop.quoted_ttl = static_cast<std::uint8_t>(quoted);
  return static_cast<std::size_t>(next - field.data());
}

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

/// The length of the longest common prefix of `a` and `b`, compared 8
/// bytes at a time.
std::size_t common_prefix(std::string_view a, std::string_view b) {
  const std::size_t size = std::min(a.size(), b.size());
  std::size_t at = 0;
  for (; at + 8 <= size; at += 8) {
    std::uint64_t x = 0;
    std::uint64_t y = 0;
    std::memcpy(&x, a.data() + at, 8);
    std::memcpy(&y, b.data() + at, 8);
    if (x != y) {
      const int bits = std::endian::native == std::endian::little
                           ? std::countr_zero(x ^ y)
                           : std::countl_zero(x ^ y);
      return at + static_cast<std::size_t>(bits / 8);
    }
  }
  while (at < size && a[at] == b[at]) ++at;
  return at;
}

/// A scan worker's previous well-formed line: its hop field, copied
/// because the block buffer shifts between blocks; the hops parsed from
/// it, before the visitor could edit them; and the end offset of each hop
/// token in the field.
struct PreviousLine {
  std::string field;
  std::vector<TraceHop> hops;
  std::vector<std::size_t> ends;

  void clear() {
    field.clear();
    hops.clear();
    ends.clear();
  }
};

/// The trace-line grammar, parsed in place from the line's bytes. Fills
/// `trace` (reusing the capacity of its hops) or returns false with the
/// reason in `error`; the caller adds the position.
///
/// With a `previous` line, the line reuses the hops of the longest prefix
/// of its hop field that both fields share byte for byte and that ends at
/// a token end in both, parses only the rest, and sets `shared` to the
/// number of hops reused. A line that parses becomes the previous line;
/// after one that fails, the caller clears `previous`.
bool parse_line(std::string_view line, Trace& trace, std::string& error,
                PreviousLine* previous, std::size_t& shared) {
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
  shared = 0;
  if (previous != nullptr) {
    // The previous line's tokens that end inside the common prefix recur
    // here; so does the one ending exactly where the prefix does when this
    // line's token ends there too. Their hops keep their probe TTLs, which
    // are their positions.
    const std::size_t common = common_prefix(hops, previous->field);
    const std::vector<std::size_t>& ends = previous->ends;
    shared = static_cast<std::size_t>(
        std::lower_bound(ends.begin(), ends.end(), common) - ends.begin());
    if (shared < ends.size() && ends[shared] == common &&
        (common == hops.size() || hops[common] == ' ')) {
      ++shared;
    }
    if (shared > 0) at = ends[shared - 1];
    trace.hops.assign(previous->hops.begin(),
                      previous->hops.begin() +
                          static_cast<std::ptrdiff_t>(shared));
    previous->field.resize(common);
    previous->field.append(hops.substr(common));
    previous->hops.resize(shared);
    previous->ends.resize(shared);
  }
  while (at < hops.size()) {
    if (hops[at] == ' ') {
      ++at;
      continue;
    }
    if (trace.hops.size() == kMaxHops) {
      error = "more than 255 hops";
      return false;
    }
    TraceHop& hop = trace.hops.emplace_back();
    hop.probe_ttl = static_cast<std::uint8_t>(trace.hops.size());
    std::size_t end = parse_address_hop(hops, at, hop);
    if (end == std::string_view::npos) {
      end = std::min(hops.find(' ', at), hops.size());
      if (!parse_hop(hops.substr(at, end - at), hop, error)) return false;
    }
    if (previous != nullptr) previous->ends.push_back(end);
    at = end;
  }
  if (previous != nullptr) {
    previous->hops.insert(previous->hops.end(),
                          trace.hops.begin() +
                              static_cast<std::ptrdiff_t>(shared),
                          trace.hops.end());
  }
  return true;
}

/// A line that failed to parse, positioned within its worker's range.
struct Failure {
  std::size_t line = 0;    ///< 1-based among the lines the range holds
  std::size_t offset = 0;  ///< byte offset of the line in its block
  std::string detail;
};

/// One worker's scratch trace and previous line, and what it found in its
/// byte range of the current block. A cache line apart from the other
/// workers' parts: the scratch trace is written on every hop.
struct alignas(64) Part {
  Trace scratch;           ///< its hop capacity is reused line to line
  /// The worker's last well-formed line, from this block or an earlier
  /// one; empty at the start and after a bad line.
  PreviousLine previous;
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
  std::size_t shared = 0;
  if (!parse_line(line, trace, error, nullptr, shared)) {
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
          std::size_t shared = 0;
          if (parse_line(line, trace, error, &part.previous, shared)) {
            visit(worker, trace, shared);
            ++traces;
            continue;
          }
          part.previous.clear();
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
      [&](unsigned worker, Trace& trace, std::size_t) {
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
