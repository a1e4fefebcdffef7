// Trace sanitization (paper §4.1).
//
// Two defenses against traceroute artifacts before any inference is drawn:
//   1. Hops whose ICMP reply quotes TTL 0 are removed (a buggy upstream
//      router forwarded the probe with TTL=1 instead of answering); the
//      rest of the trace is retained.
//   2. Traces containing an interface cycle — the same address twice,
//      separated by at least one different address — are discarded wholesale
//      (per-packet load balancing / transient route changes).
//
// The paper reports discarding 2.7% of Ark traces while retaining 89.1% of
// distinct addresses; SanitizeStats exposes the same ratios.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "net/flat_set.h"
#include "net/ipv4.h"
#include "trace/trace.h"

namespace mapit::trace {

struct SanitizeStats {
  std::size_t input_traces = 0;
  std::size_t discarded_traces = 0;     ///< dropped for interface cycles
  std::size_t removed_ttl0_hops = 0;    ///< hops stripped for quoted TTL 0
  std::size_t input_addresses = 0;      ///< distinct addresses before
  std::size_t retained_addresses = 0;   ///< distinct addresses after

  [[nodiscard]] double discard_fraction() const {
    return input_traces == 0 ? 0.0
                             : static_cast<double>(discarded_traces) /
                                   static_cast<double>(input_traces);
  }
  [[nodiscard]] double address_retention() const {
    return input_addresses == 0 ? 1.0
                                : static_cast<double>(retained_addresses) /
                                      static_cast<double>(input_addresses);
  }
};

struct SanitizeResult {
  TraceCorpus clean;
  SanitizeStats stats;
  /// Every distinct responding address of the *input* corpus, sorted:
  /// exactly input.distinct_addresses(), gathered in the same pass. This
  /// is the §4.2 other-side population, which deliberately includes the
  /// traces and hops the sanitizer drops.
  std::vector<net::Ipv4Address> addresses;
};

/// Returns the TTL-0-stripped, cycle-free traces plus statistics. TTL-0 hop
/// removal happens *before* the cycle check, mirroring the paper's step
/// order ("After sanitizing a trace, we attempt to identify if load
/// balancing or a transient routing change occurred").
///
/// The corpus is taken by value and cleaned in place: move a corpus that
/// is no longer needed in (`sanitize(std::move(corpus))`) and no trace is
/// copied; pass an lvalue and the copy is the only allocation per trace.
///
/// Each trace is sanitized independently, so `threads` workers process
/// trace chunks concurrently (0 = one per hardware thread, 1 = the
/// sequential path). Retained traces keep corpus order and per-worker hop
/// counters and address sets are merged, so the result is identical for
/// every thread count.
[[nodiscard]] SanitizeResult sanitize(TraceCorpus corpus,
                                      unsigned threads = 1);

/// What one worker's sanitize_trace calls have seen. Aligned to a cache
/// line: workers keep one each, side by side, and count every trace.
struct alignas(64) SanitizeTally {
  std::size_t traces = 0;
  std::size_t discarded = 0;
  std::size_t removed_hops = 0;
  /// Addresses of the hops that survive into clean traces, and of every
  /// other raw hop. Each raw hop lands in exactly one of the two.
  net::FlatSet64 kept;
  net::FlatSet64 dropped;
};

/// The per-trace step of sanitize() and of graph::read_graph: strips the
/// quoted-TTL-0 hops of `trace` in place and records it in `tally`. True
/// when the trace is kept, false when an interface cycle discards it.
bool sanitize_trace(Trace& trace, SanitizeTally& tally);

/// The statistics of a pass whose workers kept `tallies`; sets `addresses`
/// to the raw traces' distinct addresses, sorted (SanitizeResult::addresses).
[[nodiscard]] SanitizeStats merge_tallies(
    std::span<const SanitizeTally> tallies,
    std::vector<net::Ipv4Address>& addresses);

}  // namespace mapit::trace
