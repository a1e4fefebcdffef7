#include "core/result_io.h"

#include <charconv>
#include <cstdint>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <system_error>
#include <vector>

#include "fault/atomic_file.h"
#include "net/error.h"

namespace mapit::core {

namespace {

/// Strict decimal parse of the whole string: rejects empty input, leading
/// whitespace, signs, trailing garbage, and out-of-range values — all of
/// which std::stoul silently accepts or mangles (e.g. "-1" wraps, "12abc"
/// stops at the 'a').
template <typename UInt>
[[nodiscard]] UInt parse_uint(const std::string& text, const char* what) {
  UInt value{};
  const char* first = text.data();
  const char* last = first + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc{} || ptr != last || text.empty()) {
    throw ParseError(std::string("bad ") + what + " '" + text + "'");
  }
  return value;
}

[[nodiscard]] InferenceKind kind_from(const std::string& text) {
  if (text == "direct") return InferenceKind::kDirect;
  if (text == "indirect") return InferenceKind::kIndirect;
  if (text == "stub") return InferenceKind::kStub;
  // Positional context (line + byte offset) is added by the caller.
  throw ParseError("unknown kind '" + text + "'");
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(sep, start);
    if (pos == std::string::npos) {
      out.push_back(text.substr(start));
      return out;
    }
    out.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

}  // namespace

void write_inferences(std::ostream& out,
                      const std::vector<Inference>& inferences) {
  out << "# address|direction|router_asn|other_asn|kind|votes/neighbors\n";
  for (const Inference& inference : inferences) {
    out << inference.half.address.to_string() << '|'
        << graph::suffix(inference.half.direction) << '|'
        << inference.router_as << '|' << inference.other_as << '|'
        << to_string(inference.kind) << '|' << inference.votes << '/'
        << inference.neighbor_count << '\n';
  }
}

void write_inferences_file(const std::string& path,
                           const std::vector<Inference>& inferences,
                           fault::Io& io) {
  std::ostringstream buffer;
  write_inferences(buffer, inferences);
  fault::write_file_atomic(path, buffer.view(), io);
}

std::vector<Inference> read_inferences(std::istream& in) {
  std::vector<Inference> out;
  std::string line;
  std::size_t line_no = 0;
  std::size_t line_offset = 0;
  // Line number for humans, byte offset (of the line start, CR included)
  // so a fuzzer crash or corrupt file maps straight to the input bytes.
  const auto where = [&line_no, &line_offset] {
    return "inferences line " + std::to_string(line_no) + " (byte " +
           std::to_string(line_offset) + ")";
  };
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t next_offset = line_offset + line.size() + 1;
    // Accept files that passed through Windows tooling (CRLF endings) or
    // that gained trailing blank lines in transit.
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') {
      line_offset = next_offset;
      continue;
    }
    const std::vector<std::string> fields = split(line, '|');
    if (fields.size() != 6) {
      throw ParseError(where() + ": expected 6 fields, got " +
                       std::to_string(fields.size()));
    }
    try {
      Inference inference;
      inference.half.address = net::Ipv4Address::parse_or_throw(fields[0]);
      if (fields[1] == "f") {
        inference.half.direction = graph::Direction::kForward;
      } else if (fields[1] == "b") {
        inference.half.direction = graph::Direction::kBackward;
      } else {
        throw ParseError("bad direction '" + fields[1] + "'");
      }
      inference.router_as =
          parse_uint<asdata::Asn>(fields[2], "router ASN");
      inference.other_as = parse_uint<asdata::Asn>(fields[3], "other ASN");
      inference.kind = kind_from(fields[4]);
      const std::size_t slash = fields[5].find('/');
      if (slash == std::string::npos) {
        throw ParseError("bad evidence '" + fields[5] + "'");
      }
      inference.votes =
          parse_uint<std::uint32_t>(fields[5].substr(0, slash), "votes");
      inference.neighbor_count = parse_uint<std::uint32_t>(
          fields[5].substr(slash + 1), "neighbor count");
      if (inference.votes > inference.neighbor_count) {
        throw ParseError("votes " + std::to_string(inference.votes) +
                         " exceed neighbor count " +
                         std::to_string(inference.neighbor_count));
      }
      out.push_back(inference);
    } catch (const ParseError& e) {
      throw ParseError(where() + ": " + e.what());
    } catch (const std::exception&) {
      throw ParseError(where() + ": malformed number in '" + line + "'");
    }
    line_offset = next_offset;
  }
  check_read(in, "inferences");
  return out;
}

}  // namespace mapit::core
