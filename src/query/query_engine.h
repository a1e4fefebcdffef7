// Read side of the snapshot store: typed lookups plus the line protocol
// shared by `mapit query` (batch over stdin) and `mapit serve` (TCP).
//
// A QueryEngine wraps a SnapshotReader and answers everything with binary
// searches over the mmap'd sections — it owns no per-record state, so
// construction is O(prefix records) (one pass to collect the set of prefix
// lengths present) and any number of threads may query one engine
// concurrently with no locking: all reads go to the immutable mapping.
//
// Longest-prefix match over the flat prefix sections reproduces
// net::PrefixTrie::longest_match_entry answer-for-answer (asserted on a
// randomized corpus by tests/query/query_engine_test.cpp): for each stored
// prefix length, most-specific first, the masked probe address is binary
// searched in the (network, length)-sorted span; the first hit wins.
//
// Line protocol (one query per line, exactly one answer line per query):
//
//   lookup <addr> <f|b>     inference on that half, result_io line format
//                           ("<addr>|<dir>|<router>|<other>|<kind>|<v>/<n>");
//                           uncertain inferences get an "uncertain|" prefix;
//                           "MISS" when the half has no inference
//   addr <addr>             all confident inferences on the address,
//                           ';'-joined result_io lines, or "MISS"
//   ip2as <addr>            base LPM: "<prefix>|<asn>|<bgp|fallback>",
//                           or "unannounced"
//   ip2as <addr> <f|b>      the run's final refined mapping for that half:
//                           "<asn>|final" when the engine overrode the base
//                           mapping, else "<asn>|base"
//   links <asn> <asn>       inter-AS links of the (unordered) pair:
//                           "<count>[ <low>-<high>]..."
//   stats                   one-line "key=value ..." summary of the artifact
//
// Malformed queries answer "ERR <reason>" — the connection/batch keeps
// going, so one bad line cannot poison a pipelined stream.
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>

#include "asdata/asn.h"
#include "graph/halves.h"
#include "net/ipv4.h"
#include "net/prefix.h"
#include "store/reader.h"

namespace mapit::query {

class QueryEngine {
 public:
  /// `reader` must outlive the engine (the engine reads through its spans).
  explicit QueryEngine(const store::SnapshotReader& reader);

  /// Exact interface-half lookup; nullptr when absent.
  [[nodiscard]] const store::InferenceRecord* lookup(
      net::Ipv4Address address, graph::Direction direction) const;

  /// Both halves of an address: the (possibly empty) contiguous run of
  /// inference records with that address.
  [[nodiscard]] std::span<const store::InferenceRecord> lookup_address(
      net::Ipv4Address address) const;

  /// Longest-prefix match over one prefix layer, trie-equivalent.
  [[nodiscard]] static std::optional<std::pair<net::Prefix, asdata::Asn>>
  longest_match(std::span<const store::PrefixRecord> prefixes,
                std::uint64_t lengths_mask, net::Ipv4Address address);

  struct Ip2AsAnswer {
    asdata::Asn asn = asdata::kUnknownAsn;
    std::optional<net::Prefix> prefix;
    bool from_fallback = false;
    [[nodiscard]] bool announced() const { return prefix.has_value(); }
  };
  /// Base mapping: BGP layer first, then fallback (Ip2As layering).
  [[nodiscard]] Ip2AsAnswer ip2as(net::Ipv4Address address) const;

  /// Final refined per-half mapping: the engine's convergence override when
  /// one exists, else the base LPM origin. `.second` is true on override.
  [[nodiscard]] std::pair<asdata::Asn, bool> final_mapping(
      net::Ipv4Address address, graph::Direction direction) const;

  /// All links connecting the unordered AS pair {a, b}.
  [[nodiscard]] std::span<const store::LinkRecord> links_between(
      asdata::Asn a, asdata::Asn b) const;

  /// Appends the answer to one protocol line (without trailing newline) to
  /// `out`. The bytes already in `out` are neither read nor altered, so a
  /// server appends straight into a connection's output buffer; once that
  /// buffer has grown, answering allocates nothing.
  void append_answer(std::string& out, std::string_view query) const;

  /// The same answer as a string of its own.
  [[nodiscard]] std::string answer(std::string_view query) const;

  [[nodiscard]] const store::SnapshotReader& reader() const { return reader_; }

 private:
  const store::SnapshotReader& reader_;
  /// Bit L set when any prefix of length L exists in the section (bits
  /// 0..32); bounds the LPM probe to lengths actually present.
  std::uint64_t bgp_lengths_ = 0;
  std::uint64_t fallback_lengths_ = 0;
};

/// Appends the decimal text of `value` to `out`: what std::to_string
/// prints, without a temporary string.
template <std::integral Int>
void append_decimal(std::string& out, Int value) {
  char digits[20];  // "-9223372036854775808" and 2^64 - 1 both fit
  out.append(digits, std::to_chars(digits, digits + sizeof(digits), value).ptr);
}

}  // namespace mapit::query
