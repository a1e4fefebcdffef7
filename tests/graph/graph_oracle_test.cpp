// Independent oracle for the interface graph, transcribed directly from
// the paper's §4.2–4.3 with ordered std containers:
//   - N_F / N_B are std::set per address and direction;
//   - null hops and TTL gaps break adjacency;
//   - a special-purpose address on either end excludes the pair;
//   - an address is never its own neighbour;
//   - /30 vs /31 is decided by the reserved-slot witness rule.
// InterfaceGraph must agree with it on records, neighbour lists, other
// sides, phantom order and every dense id, for cold builds and for random
// fold splits, at every thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "graph/interface_graph.h"
#include "net/special_purpose.h"
#include "trace/sanitize.h"

namespace mapit::graph {
namespace {

using net::Ipv4Address;

bool special(Ipv4Address address) {
  // A linear scan of the RFC table, not the registry's trie.
  for (const auto& entry : net::SpecialPurposeRegistry::instance().entries()) {
    if (entry.prefix.contains(address)) return true;
  }
  return false;
}

struct Oracle {
  std::map<Ipv4Address, std::set<Ipv4Address>> forward;
  std::map<Ipv4Address, std::set<Ipv4Address>> backward;
  std::set<Ipv4Address> population;
  std::vector<Ipv4Address> records;   // ascending
  std::vector<Ipv4Address> phantoms;  // discovery order

  Oracle(const trace::TraceCorpus& corpus,
         const std::vector<Ipv4Address>& all_addresses)
      : population(all_addresses.begin(), all_addresses.end()) {
    for (const trace::Trace& trace : corpus.traces()) {
      for (std::size_t i = 0; i + 1 < trace.hops.size(); ++i) {
        const trace::TraceHop& a = trace.hops[i];
        const trace::TraceHop& b = trace.hops[i + 1];
        if (!a.address || !b.address) continue;
        if (b.probe_ttl != a.probe_ttl + 1) continue;
        if (*a.address == *b.address) continue;
        if (special(*a.address) || special(*b.address)) continue;
        forward[*a.address].insert(*b.address);
        backward[*b.address].insert(*a.address);
      }
    }
    std::set<Ipv4Address> all;
    for (const auto& [address, _] : forward) all.insert(address);
    for (const auto& [address, _] : backward) all.insert(address);
    records.assign(all.begin(), all.end());
    for (Ipv4Address record : records) {
      const Ipv4Address other = other_side(record).address;
      if (all.contains(other)) continue;
      if (std::find(phantoms.begin(), phantoms.end(), other) ==
          phantoms.end()) {
        phantoms.push_back(other);
      }
    }
  }

  [[nodiscard]] OtherSide other_side(Ipv4Address address) const {
    const std::uint32_t value = address.value();
    const std::uint32_t low2 = value & 3u;
    if (low2 == 0 || low2 == 3) {
      return {Ipv4Address(value ^ 1u), PrefixInference::kSlash31Reserved};
    }
    const std::uint32_t base = value & ~3u;
    if (population.contains(Ipv4Address(base)) ||
        population.contains(Ipv4Address(base | 3u))) {
      return {Ipv4Address(value ^ 1u), PrefixInference::kSlash31Witness};
    }
    return {Ipv4Address(value ^ 3u), PrefixInference::kSlash30};
  }

  [[nodiscard]] std::vector<Ipv4Address> neighbors(Ipv4Address address,
                                                   Direction d) const {
    const auto& side = d == Direction::kForward ? forward : backward;
    const auto it = side.find(address);
    if (it == side.end()) return {};
    return {it->second.begin(), it->second.end()};
  }

  /// Interface index in the id universe (records, then phantoms).
  [[nodiscard]] std::optional<std::size_t> index(Ipv4Address address) const {
    const auto r = std::find(records.begin(), records.end(), address);
    if (r != records.end()) return static_cast<std::size_t>(r - records.begin());
    const auto p = std::find(phantoms.begin(), phantoms.end(), address);
    if (p != phantoms.end()) {
      return records.size() + static_cast<std::size_t>(p - phantoms.begin());
    }
    return std::nullopt;
  }

  [[nodiscard]] HalfId id(Ipv4Address address, Direction d) const {
    const auto i = index(address);
    return i ? static_cast<HalfId>(2 * *i + direction_bit(d)) : kInvalidHalfId;
  }

  [[nodiscard]] Ipv4Address address_at(HalfId id) const {
    const std::size_t i = id / 2;
    return i < records.size() ? records[i] : phantoms[i - records.size()];
  }

  [[nodiscard]] static Direction direction_of(HalfId id) {
    return (id & 1u) == 0 ? Direction::kForward : Direction::kBackward;
  }

  [[nodiscard]] std::size_t half_count() const {
    return 2 * (records.size() + phantoms.size());
  }

  [[nodiscard]] std::vector<HalfId> neighbor_ids(HalfId id) const {
    std::vector<HalfId> out;
    const Direction d = direction_of(id);
    for (Ipv4Address n : neighbors(address_at(id), d)) {
      out.push_back(this->id(n, opposite(d)));
    }
    return out;
  }
};

void expect_matches(const InterfaceGraph& graph, const Oracle& oracle,
                    const std::string& label) {
  ASSERT_EQ(graph.size(), oracle.records.size()) << label;
  for (std::size_t i = 0; i < graph.size(); ++i) {
    const InterfaceRecord& record = graph.interfaces()[i];
    const Ipv4Address address = oracle.records[i];
    ASSERT_EQ(record.address, address) << label;
    EXPECT_EQ(record.forward, oracle.neighbors(address, Direction::kForward))
        << label << " " << address;
    EXPECT_EQ(record.backward, oracle.neighbors(address, Direction::kBackward))
        << label << " " << address;
    const OtherSide expected = oracle.other_side(address);
    EXPECT_EQ(record.other_side.address, expected.address) << label;
    EXPECT_EQ(record.other_side.inference, expected.inference) << label;
    EXPECT_EQ(graph.find(address), &record) << label;
  }
  ASSERT_EQ(graph.phantom_count(), oracle.phantoms.size()) << label;
  ASSERT_EQ(graph.half_count(), oracle.half_count()) << label;
  // Reverse adjacency: h lists under g when g is among h's neighbour ids,
  // in ascending h.
  std::vector<std::vector<HalfId>> reverse(oracle.half_count());
  for (HalfId h = 0; h < oracle.half_count(); ++h) {
    for (HalfId g : oracle.neighbor_ids(h)) reverse[g].push_back(h);
  }
  for (HalfId id = 0; id < oracle.half_count(); ++id) {
    const Ipv4Address address = oracle.address_at(id);
    const Direction d = Oracle::direction_of(id);
    ASSERT_EQ(graph.address_at(id), address) << label << " id " << id;
    EXPECT_EQ(graph.half_id({address, d}), id) << label;
    const auto ids = graph.neighbor_ids(id);
    EXPECT_EQ(std::vector<HalfId>(ids.begin(), ids.end()),
              oracle.neighbor_ids(id))
        << label << " id " << id;
    const auto rev = graph.reverse_neighbor_ids(id);
    EXPECT_EQ(std::vector<HalfId>(rev.begin(), rev.end()), reverse[id])
        << label << " id " << id;
    EXPECT_EQ(graph.other_side_id(id),
              oracle.id(oracle.other_side(address).address, opposite(d)))
        << label << " id " << id;
    // The engine keeps no source for an indirect inference: it is the
    // half's other side, which holds only while the relation is an
    // involution (also after a fold flips a /30 decision).
    const HalfId other = graph.other_side_id(id);
    if (other != kInvalidHalfId) {
      EXPECT_EQ(graph.other_side_id(other), id) << label << " id " << id;
    }
  }
}

/// Seeded random corpora over a few /30 blocks, so neighbours repeat and
/// witnesses flip /30 decisions; with stars, TTL gaps, quoted-TTL-0 hops,
/// immediate repeats, special-purpose addresses and 0.0.0.0.
class CorpusGenerator {
 public:
  explicit CorpusGenerator(std::uint64_t seed) : rng_(seed) {}

  int pick(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng_);
  }

  Ipv4Address address() {
    static const Ipv4Address kSpecial[] = {
        Ipv4Address(0u),           Ipv4Address(10, 0, 0, 1),
        Ipv4Address(192, 168, 1, 1), Ipv4Address(100, 64, 0, 2),
        Ipv4Address(224, 0, 0, 5),   Ipv4Address(0xffffffffu),
        Ipv4Address(127, 0, 0, 1)};
    if (pick(0, 11) == 0) {
      return kSpecial[static_cast<std::size_t>(pick(0, 6))];
    }
    const auto block = static_cast<std::uint32_t>(pick(0, 47));
    return Ipv4Address((11u << 24) | (block / 16) << 8 | (block % 16) * 4 |
                       static_cast<std::uint32_t>(pick(0, 3)));
  }

  trace::TraceCorpus corpus(int traces) {
    trace::TraceCorpus out;
    for (int t = 0; t < traces; ++t) {
      trace::Trace trace;
      trace.monitor = static_cast<trace::MonitorId>(pick(0, 9));
      trace.destination = address();
      std::uint8_t ttl = 0;
      for (int h = pick(0, 12); h > 0; --h) {
        trace::TraceHop hop;
        ttl = static_cast<std::uint8_t>(ttl + (pick(0, 9) == 0 ? 2 : 1));
        hop.probe_ttl = ttl;
        const int kind = pick(0, 19);
        if (kind < 3) {
          // a null hop
        } else if (kind < 6 && !trace.hops.empty() &&
                   trace.hops.back().address) {
          hop.address = trace.hops.back().address;  // immediate repeat
        } else {
          hop.address = address();
        }
        if (hop.address && pick(0, 9) == 0) {
          hop.quoted_ttl = static_cast<std::uint8_t>(pick(0, 1));
        }
        trace.hops.push_back(hop);
      }
      out.add(std::move(trace));
    }
    return out;
  }

  /// Addresses of traces a sanitizer discarded: witnesses the graph's
  /// traces never show.
  std::vector<Ipv4Address> extra_witnesses() {
    std::vector<Ipv4Address> out;
    for (int i = pick(0, 6); i > 0; --i) out.push_back(address());
    return out;
  }

 private:
  std::mt19937_64 rng_;
};

std::vector<Ipv4Address> merged(std::vector<Ipv4Address> a,
                                const std::vector<Ipv4Address>& b) {
  a.insert(a.end(), b.begin(), b.end());
  std::sort(a.begin(), a.end());
  a.erase(std::unique(a.begin(), a.end()), a.end());
  return a;
}

TEST(GraphOracle, ColdBuildsMatchAtEveryThreadCount) {
  CorpusGenerator gen(4321);
  for (int round = 0; round < 12; ++round) {
    const trace::TraceCorpus raw = gen.corpus(gen.pick(0, 300));
    const trace::SanitizeResult sanitized = trace::sanitize(raw);
    const std::vector<Ipv4Address> population =
        merged(raw.distinct_addresses(), gen.extra_witnesses());
    // Raw corpora carry TTL-0 hops and cycles; sanitized ones carry the
    // TTL gaps that stripping leaves. The graph must follow both.
    for (const trace::TraceCorpus* corpus : {&raw, &sanitized.clean}) {
      const Oracle oracle(*corpus, population);
      for (const unsigned threads : {1u, 2u, 8u}) {
        const InterfaceGraph graph(*corpus, population, threads);
        expect_matches(graph, oracle,
                       "round " + std::to_string(round) + " threads " +
                           std::to_string(threads) +
                           (corpus == &raw ? " raw" : " sanitized"));
      }
    }
  }
}

TEST(GraphOracle, RandomFoldSplitsMatchTheColdOracle) {
  CorpusGenerator gen(99);
  for (int round = 0; round < 10; ++round) {
    const trace::TraceCorpus corpus = gen.corpus(gen.pick(1, 240));
    // Random batch boundaries; each batch brings its own extra witnesses.
    std::vector<std::size_t> cuts = {0, corpus.size()};
    for (int c = gen.pick(0, 5); c > 0; --c) {
      cuts.push_back(static_cast<std::size_t>(
          gen.pick(0, static_cast<int>(corpus.size()))));
    }
    std::sort(cuts.begin(), cuts.end());
    std::vector<trace::TraceCorpus> batches;
    std::vector<std::vector<Ipv4Address>> witnesses;
    std::vector<Ipv4Address> population;
    for (std::size_t b = 0; b + 1 < cuts.size(); ++b) {
      trace::TraceCorpus batch;
      for (std::size_t i = cuts[b]; i < cuts[b + 1]; ++i) {
        batch.add(corpus.traces()[i]);
      }
      witnesses.push_back(
          merged(batch.distinct_addresses(), gen.extra_witnesses()));
      population = merged(population, witnesses.back());
      batches.push_back(std::move(batch));
    }
    const Oracle oracle(corpus, population);
    for (const unsigned threads : {1u, 2u, 8u}) {
      std::vector<Ipv4Address> seen = witnesses[0];
      InterfaceGraph graph(batches[0], seen, threads);
      for (std::size_t b = 1; b < batches.size(); ++b) {
        seen = merged(seen, witnesses[b]);
        graph.fold(batches[b], seen, threads);
      }
      expect_matches(graph, oracle,
                     "fold round " + std::to_string(round) + " threads " +
                         std::to_string(threads) + " batches " +
                         std::to_string(batches.size()));
    }
  }
}

}  // namespace
}  // namespace mapit::graph
