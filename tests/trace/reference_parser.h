// Reference trace-corpus parser for differential tests: a straightforward
// split-into-fields line parser and a getline-based sequential reader. The
// library's in-place parser must accept the same language and fail with
// the same messages, because journal replay treats a journaled line that
// no longer parses as corruption.
#pragma once

#include <istream>
#include <string>
#include <string_view>
#include <vector>

#include "net/error.h"
#include "net/load_report.h"
#include "net/parse.h"
#include "trace/trace.h"

namespace mapit::trace::reference {

inline std::vector<std::string_view> split(std::string_view text, char sep) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.push_back(text.substr(start));
      return out;
    }
    out.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

[[noreturn]] inline void fail(std::string_view context,
                              std::string_view detail) {
  throw ParseError(std::string(context) + ": " + std::string(detail));
}

inline TraceHop parse_hop(std::string_view token, std::uint8_t ttl,
                          std::string_view context) {
  TraceHop hop;
  hop.probe_ttl = ttl;
  if (token == "*") return hop;
  std::string_view addr_text = token;
  const std::size_t at = token.find('@');
  if (at != std::string_view::npos) {
    addr_text = token.substr(0, at);
    const std::string_view quoted_text = token.substr(at + 1);
    if (quoted_text.empty() || quoted_text.size() > 3) {
      fail(context, "bad quoted TTL in hop '" + std::string(token) + "'");
    }
    unsigned value = 0;
    for (char c : quoted_text) {
      if (c < '0' || c > '9') {
        fail(context, "bad quoted TTL in hop '" + std::string(token) + "'");
      }
      value = value * 10 + static_cast<unsigned>(c - '0');
    }
    if (value > 255) {
      fail(context,
           "quoted TTL out of range in hop '" + std::string(token) + "'");
    }
    hop.quoted_ttl = static_cast<std::uint8_t>(value);
  }
  const auto address = net::Ipv4Address::parse(addr_text);
  if (!address) {
    fail(context, "bad address in hop '" + std::string(token) + "'");
  }
  hop.address = *address;
  return hop;
}

inline Trace parse_trace(std::string_view line,
                         std::string_view context = "trace") {
  const auto fields = split(line, '|');
  if (fields.size() != 3) {
    fail(context, "expected 'monitor|destination|hops'");
  }
  Trace trace;
  const auto monitor = net::parse_uint<MonitorId>(fields[0]);
  if (!monitor) {
    fail(context, "bad monitor id '" + std::string(fields[0]) + "'");
  }
  trace.monitor = *monitor;
  const auto destination = net::Ipv4Address::parse(fields[1]);
  if (!destination) {
    fail(context, "bad destination '" + std::string(fields[1]) + "'");
  }
  trace.destination = *destination;
  std::uint8_t ttl = 0;
  if (!fields[2].empty()) {
    for (std::string_view token : split(fields[2], ' ')) {
      if (token.empty()) continue;
      if (ttl == 255) fail(context, "more than 255 hops");
      ++ttl;
      trace.hops.push_back(parse_hop(token, ttl, context));
    }
  }
  return trace;
}

/// The sequential reader: strict mode throws at the first bad line,
/// lenient mode records every bad line into `report`.
inline TraceCorpus read_corpus(std::istream& in, LoadReport* report = nullptr) {
  TraceCorpus corpus;
  std::string line;
  std::size_t line_no = 0;
  std::size_t offset = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t line_start = offset;
    offset += line.size() + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::string context = "trace line " + std::to_string(line_no) +
                                " (byte " + std::to_string(line_start) + ")";
    if (report == nullptr) {
      corpus.add(parse_trace(line, context));
      continue;
    }
    try {
      corpus.add(parse_trace(line, context));
    } catch (const ParseError& e) {
      report->record(line_no, line_start, e.what());
    }
  }
  if (report != nullptr) report->add_loaded(corpus.size());
  return corpus;
}

}  // namespace mapit::trace::reference
