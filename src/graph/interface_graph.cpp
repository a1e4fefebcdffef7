#include "graph/interface_graph.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "net/error.h"
#include "net/flat_set.h"
#include "net/special_purpose.h"
#include "parallel/thread_pool.h"
#include "trace/trace_io.h"

namespace mapit::graph {

namespace {

/// An adjacency `from -> to` as one sortable key: from << 32 | to.
using Pair = std::uint64_t;

constexpr Pair pair_of(net::Ipv4Address from, net::Ipv4Address to) {
  return std::uint64_t{from.value()} << 32 | to.value();
}
constexpr net::Ipv4Address high(Pair pair) {
  return net::Ipv4Address(static_cast<std::uint32_t>(pair >> 32));
}
constexpr net::Ipv4Address low(Pair pair) {
  return net::Ipv4Address(static_cast<std::uint32_t>(pair));
}

const std::vector<net::Ipv4Address>& empty_neighbors() {
  static const std::vector<net::Ipv4Address> empty;
  return empty;
}

/// The per-trace step of pair gathering: adds the adjacencies of `trace`
/// to `pairs`, each as one key however often it recurs.
void add_adjacencies(const trace::Trace& trace, net::FlatSet64& pairs) {
  const std::vector<trace::TraceHop>& hops = trace.hops;
  for (std::size_t i = 0; i + 1 < hops.size(); ++i) {
    const trace::TraceHop& a = hops[i];
    const trace::TraceHop& b = hops[i + 1];
    if (!a.address || !b.address) continue;  // null hops break adjacency
    if (b.probe_ttl != a.probe_ttl + 1) continue;  // one hop apart
    if (*a.address == *b.address) continue;  // never own neighbour
    pairs.insert(pair_of(*a.address, *b.address));
  }
}

/// The unique adjacencies of per-worker pair sets that enter neighbour
/// sets, sorted. The special-purpose test (a trie walk) runs once per
/// distinct endpoint of the merged set instead of twice per occurrence.
std::vector<Pair> sorted_pairs(std::span<net::FlatSet64> sets) {
  for (std::size_t w = 1; w < sets.size(); ++w) {
    sets[w].for_each([&](Pair pair) { sets[0].insert(pair); });
  }

  // Private/shared addresses are excluded from Ns (§4.3).
  net::FlatSet64 judged;
  net::FlatSet64 special;
  const auto is_special = [&](net::Ipv4Address address) {
    if (judged.insert(address.value()) && net::is_special_purpose(address)) {
      special.insert(address.value());
    }
    return special.contains(address.value());
  };
  std::vector<Pair> pairs;
  pairs.reserve(sets[0].size());
  sets[0].for_each([&](Pair pair) {
    if (!is_special(high(pair)) && !is_special(low(pair))) {
      pairs.push_back(pair);
    }
  });
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

/// The sorted unique adjacencies of `corpus` that enter neighbour sets.
/// Workers dedupe the occurrences of disjoint trace ranges into flat sets.
std::vector<Pair> gather_pairs(const trace::TraceCorpus& corpus,
                               unsigned threads) {
  const std::vector<trace::Trace>& traces = corpus.traces();
  const unsigned resolved = parallel::resolve_threads(threads);
  std::optional<parallel::ThreadPool> pool;
  if (resolved > 1 && traces.size() > 1) pool.emplace(resolved);
  std::vector<net::FlatSet64> sets(pool ? pool->size() : 1);
  parallel::for_ranges(
      pool ? &*pool : nullptr, traces.size(),
      [&](unsigned worker, std::size_t begin, std::size_t end) {
        for (std::size_t t = begin; t < end; ++t) {
          add_adjacencies(traces[t], sets[worker]);
        }
      });
  return sorted_pairs(sets);
}

/// Calls fn(address, run) for each run of `pairs` (sorted) sharing the
/// high address, in ascending order.
template <typename Fn>
void for_each_run(std::span<const Pair> pairs, Fn&& fn) {
  for (std::size_t i = 0; i < pairs.size();) {
    const net::Ipv4Address address = high(pairs[i]);
    std::size_t j = i + 1;
    while (j < pairs.size() && high(pairs[j]) == address) ++j;
    fn(address, pairs.subspan(i, j - i));
    i = j;
  }
}

/// Merges the low addresses of `run` (ascending, none already present)
/// into the ascending `list`, back to front in place.
void merge_neighbors(std::vector<net::Ipv4Address>& list,
                     std::span<const Pair> run) {
  std::size_t kept = list.size();
  std::size_t out = kept + run.size();
  list.resize(out);
  for (std::size_t next = run.size(); next > 0;) {
    const net::Ipv4Address address = low(run[next - 1]);
    if (kept > 0 && address < list[kept - 1]) {
      list[--out] = list[--kept];
    } else {
      list[--out] = address;
      --next;
    }
  }
}

}  // namespace

InterfaceGraph::InterfaceGraph(const trace::TraceCorpus& sanitized,
                               std::span<const net::Ipv4Address> all_addresses,
                               unsigned threads)
    : InterfaceGraph(gather_pairs(sanitized, threads), all_addresses) {}

InterfaceGraph::InterfaceGraph(std::span<const Pair> pairs,
                               std::span<const net::Ipv4Address> all_addresses)
    : other_sides_(all_addresses) {
  add(pairs);
  build_dense_layout();
}

LoadedGraph read_graph(std::istream& in, unsigned threads,
                       LoadReport* report) {
  const unsigned workers = parallel::resolve_threads(threads);
  std::vector<trace::SanitizeTally> tallies(workers);
  std::vector<net::FlatSet64> pairs(workers);
  trace::scan_traces(in, workers, report,
                     [&](unsigned worker, trace::Trace& trace) {
                       if (trace::sanitize_trace(trace, tallies[worker])) {
                         add_adjacencies(trace, pairs[worker]);
                       }
                     });
  std::vector<net::Ipv4Address> addresses;
  const trace::SanitizeStats stats = trace::merge_tallies(tallies, addresses);
  InterfaceGraph graph(sorted_pairs(pairs), addresses);
  return {std::move(graph), stats, std::move(addresses)};
}

void InterfaceGraph::fold(const trace::TraceCorpus& sanitized_delta,
                          std::span<const net::Ipv4Address> all_addresses,
                          unsigned threads) {
  // The §4.2 other-side heuristic is population-sensitive: a delta address
  // can flip an *existing* record's /30-vs-/31 decision by witnessing the
  // other half of its prefix, so the dense layout below recomputes every
  // record's other side over the merged population.
  other_sides_ = OtherSideMap(all_addresses);
  std::vector<Pair> pairs = gather_pairs(sanitized_delta, threads);
  std::erase_if(pairs, [&](Pair pair) {
    const InterfaceRecord* record = find(high(pair));
    return record != nullptr && std::binary_search(record->forward.begin(),
                                                   record->forward.end(),
                                                   low(pair));
  });
  add(pairs);
  // Rebuilt from the records through the construction path, so phantom
  // order (hence every HalfId) matches a cold build over base + delta.
  build_dense_layout();
}

void InterfaceGraph::add(std::span<const Pair> pairs) {
  // The same adjacencies keyed to -> from: their runs are backward lists.
  std::vector<Pair> reversed(pairs.size());
  std::transform(pairs.begin(), pairs.end(), reversed.begin(),
                 [](Pair pair) { return pair << 32 | pair >> 32; });
  std::sort(reversed.begin(), reversed.end());

  // Endpoints without a record yet, merged into records_ back to front.
  std::vector<net::Ipv4Address> added;
  const auto collect = [&](net::Ipv4Address address, std::span<const Pair>) {
    if (find(address) == nullptr) added.push_back(address);
  };
  for_each_run(pairs, collect);
  for_each_run(reversed, collect);
  std::sort(added.begin(), added.end());
  added.erase(std::unique(added.begin(), added.end()), added.end());
  std::size_t kept = records_.size();
  std::size_t out = kept + added.size();
  records_.resize(out);
  for (std::size_t next = added.size(); next > 0;) {
    if (kept > 0 && added[next - 1] < records_[kept - 1].address) {
      records_[--out] = std::move(records_[--kept]);
    } else {
      records_[--out] = InterfaceRecord{added[--next], {}, {}, {}};
    }
  }
  addresses_.resize(records_.size());
  std::transform(records_.begin(), records_.end(), addresses_.begin(),
                 [](const InterfaceRecord& record) { return record.address; });

  for_each_run(pairs, [&](net::Ipv4Address from, std::span<const Pair> run) {
    merge_neighbors(records_[index_of(from)].forward, run);
  });
  for_each_run(reversed, [&](net::Ipv4Address to, std::span<const Pair> run) {
    merge_neighbors(records_[index_of(to)].backward, run);
  });
}

void InterfaceGraph::build_dense_layout() {
  const std::size_t n = records_.size();

  // Every address this build resolves (neighbours, other sides) is a
  // record or a phantom, so one flat table maps each to its interface
  // index: records first, then phantoms as they are discovered. It lives
  // only for the build and is sized once (a record adds at most one
  // phantom); the public point lookups keep their binary search.
  net::AddressIndex index;
  index.reserve(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    index.insert(records_[i].address, static_cast<std::uint32_t>(i));
  }

  // Other sides, and phantom addresses: other sides of records that are
  // not records themselves, discovered in record order.
  phantoms_.clear();
  for (InterfaceRecord& record : records_) {
    record.other_side = other_sides_.other_side(record.address);
    const net::Ipv4Address os = record.other_side.address;
    if (!index.insert(os, static_cast<std::uint32_t>(n + phantoms_.size()))) {
      continue;  // a record, or a phantom found before
    }
    MAPIT_ENSURE(phantoms_.empty() || phantoms_.back() < os,
                 "interface graph phantoms out of address order");
    phantoms_.push_back(os);
  }

  const std::size_t halves = half_count();

  // Neighbour half-ID spans. Only record halves have neighbours; a
  // neighbour address always has a record of its own (both endpoints of
  // every adjacency are records).
  neighbor_offsets_.assign(halves + 1, 0);
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    neighbor_offsets_[2 * i] = static_cast<std::uint32_t>(total);
    total += records_[i].forward.size();
    neighbor_offsets_[2 * i + 1] = static_cast<std::uint32_t>(total);
    total += records_[i].backward.size();
  }
  for (std::size_t id = 2 * n; id <= halves; ++id) {
    neighbor_offsets_[id] = static_cast<std::uint32_t>(total);
  }
  neighbor_ids_.resize(total);
  std::size_t cursor = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (Direction d : {Direction::kForward, Direction::kBackward}) {
      const std::uint32_t bit = direction_bit(opposite(d));
      for (net::Ipv4Address neighbor : records_[i].neighbors(d)) {
        const std::uint32_t at = index.find(neighbor);
        MAPIT_ENSURE(at < n, "interface graph neighbour without a record");
        neighbor_ids_[cursor++] = 2 * at + bit;
      }
    }
  }

  // Reverse adjacency via counting sort: reverse_ids_ holds, for each half
  // g, the halves h whose neighbour span contains g (sorted: sources are
  // visited in ascending id order).
  reverse_ids_.resize(neighbor_ids_.size());
  reverse_offsets_.assign(halves + 1, 0);
  for (HalfId target : neighbor_ids_) ++reverse_offsets_[target + 1];
  for (std::size_t id = 1; id <= halves; ++id) {
    reverse_offsets_[id] += reverse_offsets_[id - 1];
  }
  std::vector<std::uint32_t> fill(reverse_offsets_.begin(),
                                  reverse_offsets_.end() - 1);
  for (std::size_t h = 0; h < halves; ++h) {
    for (std::size_t k = neighbor_offsets_[h]; k < neighbor_offsets_[h + 1];
         ++k) {
      reverse_ids_[fill[neighbor_ids_[k]]++] = static_cast<HalfId>(h);
    }
  }

  // Other-side ids: a half's other side is the opposite half of the far
  // end's address. Record halves always resolve (their other-side address
  // is a record or a phantom by construction); a phantom's own other side
  // may fall outside the universe.
  other_ids_.resize(halves);
  for (std::size_t i = 0; i < halves / 2; ++i) {
    const net::Ipv4Address os =
        i < n ? records_[i].other_side.address
              : other_sides_.other_address(phantoms_[i - n]);
    const std::uint32_t at = index.find(os);
    const bool known = at != net::AddressIndex::kAbsent;
    other_ids_[2 * i] = known ? 2 * at + 1 : kInvalidHalfId;  // backward half
    other_ids_[2 * i + 1] = known ? 2 * at : kInvalidHalfId;  // forward half
  }
}

std::size_t InterfaceGraph::index_of(net::Ipv4Address address) const {
  const auto it =
      std::lower_bound(addresses_.begin(), addresses_.end(), address);
  return it != addresses_.end() && *it == address
             ? static_cast<std::size_t>(it - addresses_.begin())
             : addresses_.size();
}

HalfId InterfaceGraph::half_id(const InterfaceHalf& half) const {
  std::size_t index = index_of(half.address);
  if (index == records_.size()) {
    const auto it =
        std::lower_bound(phantoms_.begin(), phantoms_.end(), half.address);
    if (it == phantoms_.end() || *it != half.address) return kInvalidHalfId;
    index += static_cast<std::size_t>(it - phantoms_.begin());
  }
  return static_cast<HalfId>(2 * index + direction_bit(half.direction));
}

InterfaceHalf InterfaceGraph::half_at(HalfId id) const {
  return {address_at(id),
          (id & 1u) == 0 ? Direction::kForward : Direction::kBackward};
}

net::Ipv4Address InterfaceGraph::address_at(HalfId id) const {
  const std::size_t index = id / 2;
  return index < records_.size() ? records_[index].address
                                 : phantoms_[index - records_.size()];
}

std::span<const HalfId> InterfaceGraph::neighbor_ids(HalfId id) const {
  return {neighbor_ids_.data() + neighbor_offsets_[id],
          neighbor_ids_.data() + neighbor_offsets_[id + 1]};
}

std::span<const HalfId> InterfaceGraph::reverse_neighbor_ids(HalfId id) const {
  return {reverse_ids_.data() + reverse_offsets_[id],
          reverse_ids_.data() + reverse_offsets_[id + 1]};
}

const InterfaceRecord* InterfaceGraph::find(net::Ipv4Address address) const {
  const std::size_t index = index_of(address);
  return index == records_.size() ? nullptr : &records_[index];
}

const std::vector<net::Ipv4Address>& InterfaceGraph::neighbors(
    const InterfaceHalf& half) const {
  const InterfaceRecord* record = find(half.address);
  if (record == nullptr) return empty_neighbors();
  return record->neighbors(half.direction);
}

InterfaceHalf InterfaceGraph::other_side_half(const InterfaceHalf& half) const {
  return {other_sides_.other_address(half.address),
          opposite(half.direction)};
}

GraphStats InterfaceGraph::stats() const {
  GraphStats stats;
  stats.interfaces = records_.size();
  stats.slash31_fraction = other_sides_.slash31_fraction();
  for (const InterfaceRecord& record : records_) {
    if (record.forward.size() > 1) ++stats.forward_multi;
    if (record.backward.size() > 1) ++stats.backward_multi;
    // Sorted-set intersection test for the §3.2 footnote-3 statistic.
    auto f = record.forward.begin();
    auto b = record.backward.begin();
    bool overlap = false;
    while (f != record.forward.end() && b != record.backward.end()) {
      if (*f == *b) {
        overlap = true;
        break;
      }
      if (*f < *b) {
        ++f;
      } else {
        ++b;
      }
    }
    if (overlap) ++stats.both_directions_overlap;
  }
  return stats;
}

}  // namespace mapit::graph
