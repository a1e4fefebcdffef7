#include "query/query_engine.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdio>

#include "core/inference.h"

namespace mapit::query {

namespace {

using store::InferenceRecord;
using store::LinkRecord;
using store::MappingRecord;
using store::PrefixRecord;

[[nodiscard]] std::uint64_t lengths_mask(
    std::span<const PrefixRecord> prefixes) {
  std::uint64_t mask = 0;
  for (const PrefixRecord& record : prefixes) {
    mask |= std::uint64_t{1} << record.length;
  }
  return mask;
}

[[nodiscard]] std::uint64_t half_key(std::uint32_t address,
                                     std::uint8_t direction) {
  return (std::uint64_t{address} << 1) | direction;
}

/// A query line's whitespace-separated tokens: at most 4, more than any
/// command takes, so garbage tails are detected, not truncated.
struct Tokens {
  std::array<std::string_view, 4> items;
  std::size_t size = 0;
  [[nodiscard]] std::string_view operator[](std::size_t i) const {
    return items[i];
  }
};

Tokens tokenize(std::string_view line) {
  Tokens tokens;
  std::size_t pos = 0;
  while (pos < line.size() && tokens.size < tokens.items.size()) {
    while (pos < line.size() && (line[pos] == ' ' || line[pos] == '\t')) ++pos;
    if (pos >= line.size()) break;
    std::size_t end = pos;
    while (end < line.size() && line[end] != ' ' && line[end] != '\t') ++end;
    tokens.items[tokens.size++] = line.substr(pos, end - pos);
    pos = end;
  }
  return tokens;
}

[[nodiscard]] std::optional<graph::Direction> parse_direction(
    std::string_view token) {
  if (token == "f") return graph::Direction::kForward;
  if (token == "b") return graph::Direction::kBackward;
  return std::nullopt;
}

[[nodiscard]] std::optional<asdata::Asn> parse_asn(std::string_view token) {
  asdata::Asn value{};
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc{} || ptr != token.data() + token.size() ||
      token.empty()) {
    return std::nullopt;
  }
  return value;
}

[[nodiscard]] std::string_view kind_name(std::uint8_t kind) {
  switch (static_cast<core::InferenceKind>(kind)) {
    case core::InferenceKind::kDirect: return "direct";
    case core::InferenceKind::kIndirect: return "indirect";
    case core::InferenceKind::kStub: return "stub";
  }
  return "?";
}

void append_address(std::string& out, std::uint32_t address) {
  char text[net::Ipv4Address::kMaxTextBytes];
  out.append(text, net::Ipv4Address(address).to_chars(text));
}

/// Longest inference line: "uncertain|", the address, "|f|", two 10-digit
/// ASNs around a '|', "|indirect|" and two 10-digit counts around a '/'.
constexpr std::size_t kMaxInferenceBytes =
    10 + net::Ipv4Address::kMaxTextBytes + 3 + 10 + 1 + 10 + 10 + 10 + 1 + 10;

/// Appends one record as the core/result_io line (identical to
/// core::write_inferences output for the equivalent Inference), prefixed
/// "uncertain|" when the record is uncertain. The line is built in a
/// bounded stack buffer and appended once.
void append_inference(std::string& out, const InferenceRecord& r) {
  char line[kMaxInferenceBytes];
  char* p = line;
  const auto put = [&p](std::string_view text) {
    p = std::copy(text.begin(), text.end(), p);
  };
  const auto put_number = [&p](std::uint32_t value) {
    p = std::to_chars(p, p + 10, value).ptr;  // 2^32 - 1 has 10 digits
  };
  if ((r.flags & store::kInferenceUncertain) != 0) put("uncertain|");
  p = net::Ipv4Address(r.address).to_chars(p);
  put(r.direction == 0 ? "|f|" : "|b|");
  put_number(r.router_as);
  *p++ = '|';
  put_number(r.other_as);
  *p++ = '|';
  put(kind_name(r.kind));
  *p++ = '|';
  put_number(r.votes);
  *p++ = '/';
  put_number(r.neighbor_count);
  out.append(line, p);
}

}  // namespace

QueryEngine::QueryEngine(const store::SnapshotReader& reader)
    : reader_(reader),
      bgp_lengths_(lengths_mask(reader.bgp_prefixes())),
      fallback_lengths_(lengths_mask(reader.fallback_prefixes())) {}

const InferenceRecord* QueryEngine::lookup(net::Ipv4Address address,
                                           graph::Direction direction) const {
  const auto inferences = reader_.inferences();
  const std::uint64_t key = half_key(
      address.value(),
      direction == graph::Direction::kForward ? std::uint8_t{0} : std::uint8_t{1});
  const auto it = std::lower_bound(
      inferences.begin(), inferences.end(), key,
      [](const InferenceRecord& record, std::uint64_t want) {
        return half_key(record.address, record.direction) < want;
      });
  if (it == inferences.end() ||
      half_key(it->address, it->direction) != key) {
    return nullptr;
  }
  return &*it;
}

std::span<const InferenceRecord> QueryEngine::lookup_address(
    net::Ipv4Address address) const {
  const auto inferences = reader_.inferences();
  const auto first = std::lower_bound(
      inferences.begin(), inferences.end(), address.value(),
      [](const InferenceRecord& record, std::uint32_t want) {
        return record.address < want;
      });
  auto last = first;
  while (last != inferences.end() && last->address == address.value()) ++last;
  return inferences.subspan(
      static_cast<std::size_t>(first - inferences.begin()),
      static_cast<std::size_t>(last - first));
}

std::optional<std::pair<net::Prefix, asdata::Asn>> QueryEngine::longest_match(
    std::span<const PrefixRecord> prefixes, std::uint64_t lengths_mask,
    net::Ipv4Address address) {
  // Most-specific first: the first length whose masked probe is stored is
  // the trie's deepest match. Each candidate is one binary search over the
  // (network, length)-sorted span.
  for (int length = 32; length >= 0; --length) {
    if ((lengths_mask & (std::uint64_t{1} << length)) == 0) continue;
    const net::Prefix probe(address, length);
    const auto it = std::lower_bound(
        prefixes.begin(), prefixes.end(),
        std::make_pair(probe.network().value(), length),
        [](const PrefixRecord& record, const std::pair<std::uint32_t, int>& want) {
          return std::make_pair(record.network, int{record.length}) < want;
        });
    if (it != prefixes.end() && it->network == probe.network().value() &&
        int{it->length} == length) {
      return std::make_pair(probe, it->asn);
    }
  }
  return std::nullopt;
}

QueryEngine::Ip2AsAnswer QueryEngine::ip2as(net::Ipv4Address address) const {
  Ip2AsAnswer answer;
  if (auto hit = longest_match(reader_.bgp_prefixes(), bgp_lengths_,
                               address)) {
    answer.asn = hit->second;
    answer.prefix = hit->first;
    return answer;
  }
  if (auto hit = longest_match(reader_.fallback_prefixes(), fallback_lengths_,
                               address)) {
    answer.asn = hit->second;
    answer.prefix = hit->first;
    answer.from_fallback = true;
  }
  return answer;
}

std::pair<asdata::Asn, bool> QueryEngine::final_mapping(
    net::Ipv4Address address, graph::Direction direction) const {
  const auto mappings = reader_.mappings();
  const std::uint64_t key = half_key(
      address.value(),
      direction == graph::Direction::kForward ? std::uint8_t{0} : std::uint8_t{1});
  const auto it = std::lower_bound(
      mappings.begin(), mappings.end(), key,
      [](const MappingRecord& record, std::uint64_t want) {
        return half_key(record.address, record.direction) < want;
      });
  if (it != mappings.end() && half_key(it->address, it->direction) == key) {
    return {it->asn, true};
  }
  return {ip2as(address).asn, false};
}

std::span<const LinkRecord> QueryEngine::links_between(asdata::Asn a,
                                                       asdata::Asn b) const {
  const auto links = reader_.links();
  const auto pair = a <= b ? std::make_pair(a, b) : std::make_pair(b, a);
  const auto pair_of = [](const LinkRecord& record) {
    return std::make_pair(record.as_a, record.as_b);
  };
  const auto first = std::lower_bound(
      links.begin(), links.end(), pair,
      [&](const LinkRecord& record, const auto& want) {
        return pair_of(record) < want;
      });
  auto last = first;
  while (last != links.end() && pair_of(*last) == pair) ++last;
  return links.subspan(static_cast<std::size_t>(first - links.begin()),
                       static_cast<std::size_t>(last - first));
}

void QueryEngine::append_answer(std::string& out,
                                std::string_view query) const {
  const auto reply = [&out](std::string_view text) { out.append(text); };
  const Tokens tokens = tokenize(query);
  if (tokens.size == 0) return reply("ERR empty query");
  const std::string_view command = tokens[0];

  if (command == "lookup") {
    if (tokens.size != 3) return reply("ERR usage: lookup <addr> <f|b>");
    const auto address = net::Ipv4Address::parse(tokens[1]);
    const auto direction = parse_direction(tokens[2]);
    if (!address) return reply("ERR bad address");
    if (!direction) return reply("ERR bad direction (want f or b)");
    const InferenceRecord* record = lookup(*address, *direction);
    if (record == nullptr) return reply("MISS");
    return append_inference(out, *record);
  }

  if (command == "addr") {
    if (tokens.size != 2) return reply("ERR usage: addr <addr>");
    const auto address = net::Ipv4Address::parse(tokens[1]);
    if (!address) return reply("ERR bad address");
    // `out` may already hold earlier answers: only what this answer wrote
    // decides the separator and the MISS.
    const std::size_t start = out.size();
    for (const InferenceRecord& record : lookup_address(*address)) {
      if ((record.flags & store::kInferenceUncertain) != 0) continue;
      if (out.size() != start) out += ';';
      append_inference(out, record);
    }
    if (out.size() == start) reply("MISS");
    return;
  }

  if (command == "ip2as") {
    if (tokens.size != 2 && tokens.size != 3) {
      return reply("ERR usage: ip2as <addr> [f|b]");
    }
    const auto address = net::Ipv4Address::parse(tokens[1]);
    if (!address) return reply("ERR bad address");
    if (tokens.size == 3) {
      const auto direction = parse_direction(tokens[2]);
      if (!direction) return reply("ERR bad direction (want f or b)");
      const auto [asn, overridden] = final_mapping(*address, *direction);
      append_decimal(out, asn);
      return reply(overridden ? "|final" : "|base");
    }
    const Ip2AsAnswer hit = ip2as(*address);
    if (!hit.announced()) return reply("unannounced");
    append_address(out, hit.prefix->network().value());
    out += '/';
    append_decimal(out, hit.prefix->length());
    out += '|';
    append_decimal(out, hit.asn);
    return reply(hit.from_fallback ? "|fallback" : "|bgp");
  }

  if (command == "links") {
    if (tokens.size != 3) return reply("ERR usage: links <asn> <asn>");
    const auto as_a = parse_asn(tokens[1]);
    const auto as_b = parse_asn(tokens[2]);
    if (!as_a || !as_b) return reply("ERR bad ASN");
    const auto links = links_between(*as_a, *as_b);
    append_decimal(out, links.size());
    for (const LinkRecord& link : links) {
      out += ' ';
      append_address(out, link.low);
      out += '-';
      append_address(out, link.high);
    }
    return;
  }

  if (command == "stats") {
    if (tokens.size != 1) return reply("ERR usage: stats");
    std::size_t confident = 0;
    std::size_t uncertain = 0;
    for (const InferenceRecord& record : reader_.inferences()) {
      ((record.flags & store::kInferenceUncertain) != 0 ? uncertain
                                                        : confident)++;
    }
    char crc_hex[9];
    std::snprintf(crc_hex, sizeof(crc_hex), "%08x", reader_.payload_crc32());
    out += "inferences=";
    append_decimal(out, confident);
    out += " uncertain=";
    append_decimal(out, uncertain);
    out += " links=";
    append_decimal(out, reader_.links().size());
    out += " bgp_prefixes=";
    append_decimal(out, reader_.bgp_prefixes().size());
    out += " fallback_prefixes=";
    append_decimal(out, reader_.fallback_prefixes().size());
    out += " mappings=";
    append_decimal(out, reader_.mappings().size());
    out += " version=";
    append_decimal(out, reader_.version());
    out += " crc32=";
    out += crc_hex;
    out += " bytes=";
    append_decimal(out, reader_.size_bytes());
    return;
  }

  out += "ERR unknown command '";
  out += command;
  out += '\'';
}

std::string QueryEngine::answer(std::string_view query) const {
  std::string out;
  append_answer(out, query);
  return out;
}

}  // namespace mapit::query
