// Interface-level graph: neighbour sets per interface (paper §3, §4.3)
// plus the other-side relation.
//
// For every interface address the graph stores the set of unique addresses
// seen exactly one hop before it (N_B) and after it (N_F) across all
// sanitized traces. Null hops break adjacency; private/shared/special
// addresses are excluded both as subjects and as neighbours; an address is
// never its own neighbour.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "graph/halves.h"
#include "graph/other_side.h"
#include "net/ipv4.h"
#include "net/load_report.h"
#include "trace/sanitize.h"
#include "trace/trace.h"

namespace mapit::graph {

struct LoadedGraph;

/// Dense contiguous identifier for an interface half.
///
/// Layout: `interface index * 2 + direction` with kForward = 0 and
/// kBackward = 1, so the id order equals (address, direction) order for
/// record halves. Interface indices [0, size()) are the graph's records in
/// address order; indices [size(), size() + phantom_count()) are "phantom"
/// addresses — other-side addresses of records that never appeared as an
/// interface themselves. Phantoms have empty neighbour sets but still need
/// state slots in the engine (indirect inferences land on them).
using HalfId = std::uint32_t;
inline constexpr HalfId kInvalidHalfId = 0xffffffffu;

[[nodiscard]] constexpr std::uint32_t direction_bit(Direction d) {
  return d == Direction::kForward ? 0u : 1u;
}

/// Per-interface record.
struct InterfaceRecord {
  net::Ipv4Address address;
  std::vector<net::Ipv4Address> forward;   ///< N_F, sorted unique
  std::vector<net::Ipv4Address> backward;  ///< N_B, sorted unique
  OtherSide other_side;

  [[nodiscard]] const std::vector<net::Ipv4Address>& neighbors(
      Direction d) const {
    return d == Direction::kForward ? forward : backward;
  }
};

/// Corpus-level statistics mirroring §4.3's reported numbers.
struct GraphStats {
  std::size_t interfaces = 0;             ///< addresses with any neighbour
  std::size_t forward_multi = 0;          ///< |N_F| > 1
  std::size_t backward_multi = 0;         ///< |N_B| > 1
  std::size_t both_directions_overlap = 0;///< same address in N_F and N_B
  double slash31_fraction = 0.0;          ///< §4.2's 40.4% statistic

  [[nodiscard]] double overlap_fraction() const {
    return interfaces == 0 ? 0.0
                           : static_cast<double>(both_directions_overlap) /
                                 static_cast<double>(interfaces);
  }
};

class InterfaceGraph {
 public:
  /// Builds the graph from sanitized traces. `all_addresses` must be the
  /// address population of the *unsanitized* corpus (the §4.2 heuristic
  /// deliberately uses discarded traces too); pass the sanitized corpus's
  /// own addresses when the original corpus is unavailable.
  ///
  /// `threads` workers dedupe the adjacencies of disjoint trace ranges
  /// into flat (from, to) pair sets (0 = one per hardware thread, 1 =
  /// sequential). Everything after that works on the merged, sorted unique
  /// pairs, so the graph is identical for every thread count, and its
  /// memory grows with unique pairs, not with adjacency occurrences.
  InterfaceGraph(const trace::TraceCorpus& sanitized,
                 std::span<const net::Ipv4Address> all_addresses,
                 unsigned threads = 1);

  /// Incrementally folds a batch of sanitized delta traces into the graph:
  /// the delta's pairs that are new are merged into the records' sorted
  /// neighbour lists. `all_addresses` must be the *merged* unsanitized
  /// address population (base + every delta so far) — the §4.2 other-side
  /// heuristic is rebuilt over it, because new witnesses can flip existing
  /// records' /30-vs-/31 decisions.
  ///
  /// Postcondition (pinned by the ingest equivalence tests and the graph
  /// oracle test): the folded graph is indistinguishable — records,
  /// neighbour sets, other sides, phantom order, every HalfId — from a
  /// cold-built graph over the concatenated corpus, for any fold batching
  /// and any thread count.
  void fold(const trace::TraceCorpus& sanitized_delta,
            std::span<const net::Ipv4Address> all_addresses,
            unsigned threads = 1);

  /// The record for `address`, or nullptr when the address never appeared
  /// adjacent to another address.
  [[nodiscard]] const InterfaceRecord* find(net::Ipv4Address address) const;

  /// Neighbour set of one interface half (empty if unknown address).
  [[nodiscard]] const std::vector<net::Ipv4Address>& neighbors(
      const InterfaceHalf& half) const;

  /// The other-side half of `half`: the opposite-direction view of the
  /// interface on the far end of the link prefix (paper §3.2).
  [[nodiscard]] InterfaceHalf other_side_half(const InterfaceHalf& half) const;

  /// All interface records, ordered by address.
  [[nodiscard]] const std::vector<InterfaceRecord>& interfaces() const {
    return records_;
  }

  [[nodiscard]] const OtherSideMap& other_sides() const { return other_sides_; }

  [[nodiscard]] GraphStats stats() const;

  [[nodiscard]] std::size_t size() const { return records_.size(); }

  // --- dense half-ID layout --------------------------------------------
  // Engine hot loops index flat slabs with these ids instead of hashing
  // InterfaceHalf keys (see DESIGN.md "Dense engine state").

  /// Number of phantom (other-side-only) addresses.
  [[nodiscard]] std::size_t phantom_count() const { return phantoms_.size(); }

  /// Total half ids: 2 * (records + phantoms). Valid ids are [0, half_count()).
  [[nodiscard]] std::size_t half_count() const {
    return (records_.size() + phantoms_.size()) * 2;
  }

  /// Half ids below this belong to records (addresses with neighbours).
  [[nodiscard]] std::size_t record_half_count() const {
    return records_.size() * 2;
  }

  /// The id of `half`, or kInvalidHalfId when its address is neither a
  /// record nor a phantom.
  [[nodiscard]] HalfId half_id(const InterfaceHalf& half) const;

  /// Inverse of half_id. `id` must be valid.
  [[nodiscard]] InterfaceHalf half_at(HalfId id) const;

  [[nodiscard]] net::Ipv4Address address_at(HalfId id) const;

  /// Ids of the opposite-direction halves whose votes decide this half's
  /// majority: for half {a, d}, the halves {n, opposite(d)} for every
  /// n in neighbors({a, d}). Parallel to neighbors(half) order. Empty for
  /// phantom halves.
  [[nodiscard]] std::span<const HalfId> neighbor_ids(HalfId id) const;

  /// Reverse adjacency: every half h with `id` in neighbor_ids(h) — i.e.
  /// the halves whose majority counts must be recomputed when this half's
  /// effective mapping changes. Sorted ascending.
  [[nodiscard]] std::span<const HalfId> reverse_neighbor_ids(HalfId id) const;

  /// Id of other_side_half(half_at(id)); kInvalidHalfId when the other-side
  /// address is outside the id universe (possible only for phantom halves).
  [[nodiscard]] HalfId other_side_id(HalfId id) const { return other_ids_[id]; }

 private:
  friend LoadedGraph read_graph(std::istream& in, unsigned threads,
                                LoadReport* report);

  /// Builds the graph from its sorted unique adjacencies as
  /// `from << 32 | to` keys, special-purpose endpoints already dropped.
  InterfaceGraph(std::span<const std::uint64_t> pairs,
                 std::span<const net::Ipv4Address> all_addresses);

  /// Adds adjacencies given as sorted `from << 32 | to` keys, none of them
  /// already in the graph: endpoints without a record get one, then each
  /// pair is merged into its endpoints' sorted forward and backward lists.
  void add(std::span<const std::uint64_t> pairs);
  void build_dense_layout();
  /// Index of the record for `address` in records_, or records_.size().
  [[nodiscard]] std::size_t index_of(net::Ipv4Address address) const;

  std::vector<InterfaceRecord> records_;  // sorted by address
  /// records_[i].address, contiguous: the point lookups (find, half_id)
  /// binary-search this instead of striding through the records. The dense
  /// layout build resolves its addresses through a transient hash index.
  std::vector<net::Ipv4Address> addresses_;
  OtherSideMap other_sides_;

  // Dense layout (rebuilt by construction and by every fold).
  // Phantom discovery (record order) is ascending address order: a
  // record's other side lies in its own /30, and within a /30 the order
  // holds case by case; the build checks it, and half_id relies on it.
  std::vector<net::Ipv4Address> phantoms_;
  std::vector<HalfId> neighbor_ids_;             // flattened spans
  std::vector<std::uint32_t> neighbor_offsets_;  // size half_count() + 1
  std::vector<HalfId> reverse_ids_;              // flattened spans
  std::vector<std::uint32_t> reverse_offsets_;   // size half_count() + 1
  std::vector<HalfId> other_ids_;                // per half id
};

/// A graph read straight from trace text, with what sanitizing saw.
struct LoadedGraph {
  InterfaceGraph graph;
  trace::SanitizeStats stats;
  /// Every distinct responding address of the raw traces, sorted: the §4.2
  /// population the graph's other sides were decided over.
  std::vector<net::Ipv4Address> addresses;
};

/// Reads trace text into its interface graph in one streaming pass. The
/// result equals `sanitize(read_corpus(in, threads, report), threads)`
/// followed by `InterfaceGraph(clean, addresses, threads)`: the same graph
/// (every record, other side and HalfId), SanitizeStats and population,
/// and the same strict-mode error or lenient-mode LoadReport.
///
/// No corpus and no copy of the file exist on the way: trace::scan_traces
/// hands each of `threads` workers (0 = one per hardware thread) one parsed
/// line at a time in its scratch trace, which the worker sanitizes in place
/// and adds to its own flat address and pair sets. Memory is one block of
/// input plus the distinct addresses and pairs, once per worker.
[[nodiscard]] LoadedGraph read_graph(std::istream& in, unsigned threads = 1,
                                     LoadReport* report = nullptr);

}  // namespace mapit::graph
