// QueryEngine semantics: exact lookups, flat LPM vs the PrefixTrie oracle,
// link enumeration, the final-mapping override chain, and the line
// protocol's answer strings (including every ERR path).
#include "query/query_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "net/prefix_trie.h"
#include "store/reader.h"
#include "store/writer.h"
#include "test_util.h"

namespace mapit::query {
namespace {

using store::InferenceRecord;
using store::LinkRecord;
using store::MappingRecord;
using store::PrefixRecord;
using store::SnapshotData;
using store::SnapshotReader;
using testutil::addr;

/// Fixture holding the reader alive for the engine's lifetime.
class QueryEngineTest : public ::testing::Test {
 protected:
  void load(const SnapshotData& data) {
    reader_ = std::make_unique<SnapshotReader>(
        SnapshotReader::from_bytes(store::serialize_snapshot(data)));
    engine_ = std::make_unique<QueryEngine>(*reader_);
  }

  SnapshotData sample() {
    SnapshotData data;
    // 10.0.0.1 has both halves; 10.0.0.2 forward only (uncertain).
    data.inferences.push_back(
        InferenceRecord{addr("10.0.0.1").value(), 0, 0, 0, 0, 100, 200, 3,
                        4});
    data.inferences.push_back(
        InferenceRecord{addr("10.0.0.1").value(), 1, 1, 0, 0, 100, 300, 2,
                        4});
    data.inferences.push_back(
        InferenceRecord{addr("10.0.0.2").value(), 0, 2,
                        store::kInferenceUncertain, 0, 300, 100, 1, 2});
    data.links.push_back(LinkRecord{addr("10.0.0.1").value(),
                                    addr("10.0.0.9").value(), 100, 200, 2, 5,
                                    8, 0, {0, 0, 0}});
    data.links.push_back(LinkRecord{addr("10.0.0.3").value(),
                                    addr("10.0.0.4").value(), 100, 200, 1, 2,
                                    4, 0, {0, 0, 0}});
    data.links.push_back(LinkRecord{addr("10.0.0.5").value(),
                                    addr("10.0.0.6").value(), 100, 300, 1, 3,
                                    4, 0, {0, 0, 0}});
    data.bgp_prefixes.push_back(
        PrefixRecord{addr("10.0.0.0").value(), 100, 8, {0, 0, 0}});
    data.bgp_prefixes.push_back(
        PrefixRecord{addr("10.0.0.0").value(), 200, 24, {0, 0, 0}});
    data.fallback_prefixes.push_back(
        PrefixRecord{addr("192.0.0.0").value(), 999, 4, {0, 0, 0}});
    data.mappings.push_back(
        MappingRecord{addr("10.0.0.1").value(), 300, 1, {0, 0, 0}});
    return data;
  }

  /// The answer to `query`, after checking that append_answer appends
  /// exactly those bytes to a buffer that already holds some, leaving them
  /// alone.
  std::string answered(std::string_view query) {
    const std::string answer = engine_->answer(query);
    const std::string prefix = "earlier answer;MISS\n";
    std::string out = prefix;
    engine_->append_answer(out, query);
    EXPECT_EQ(out.substr(0, prefix.size()), prefix) << query;
    EXPECT_EQ(out.substr(prefix.size()), answer) << query;
    return answer;
  }

  std::unique_ptr<SnapshotReader> reader_;
  std::unique_ptr<QueryEngine> engine_;
};

TEST_F(QueryEngineTest, ExactLookupHitAndMiss) {
  load(sample());
  const InferenceRecord* hit =
      engine_->lookup(addr("10.0.0.1"), graph::Direction::kForward);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->other_as, 200u);
  const InferenceRecord* back =
      engine_->lookup(addr("10.0.0.1"), graph::Direction::kBackward);
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->other_as, 300u);
  // 10.0.0.2 backward has no record; neither does an absent address.
  EXPECT_EQ(engine_->lookup(addr("10.0.0.2"), graph::Direction::kBackward),
            nullptr);
  EXPECT_EQ(engine_->lookup(addr("10.0.0.99"), graph::Direction::kForward),
            nullptr);
}

TEST_F(QueryEngineTest, LookupAddressReturnsContiguousRun) {
  load(sample());
  EXPECT_EQ(engine_->lookup_address(addr("10.0.0.1")).size(), 2u);
  EXPECT_EQ(engine_->lookup_address(addr("10.0.0.2")).size(), 1u);
  EXPECT_TRUE(engine_->lookup_address(addr("10.0.0.99")).empty());
}

TEST_F(QueryEngineTest, LinksBetweenIsUnordered) {
  load(sample());
  EXPECT_EQ(engine_->links_between(100, 200).size(), 2u);
  EXPECT_EQ(engine_->links_between(200, 100).size(), 2u);
  EXPECT_EQ(engine_->links_between(100, 300).size(), 1u);
  EXPECT_TRUE(engine_->links_between(100, 999).empty());
}

TEST_F(QueryEngineTest, Ip2AsLayering) {
  load(sample());
  // BGP layer, most specific wins.
  const auto deep = engine_->ip2as(addr("10.0.0.77"));
  EXPECT_EQ(deep.asn, 200u);
  EXPECT_FALSE(deep.from_fallback);
  const auto shallow = engine_->ip2as(addr("10.9.9.9"));
  EXPECT_EQ(shallow.asn, 100u);
  // Fallback only fires when BGP misses.
  const auto fallback = engine_->ip2as(addr("200.1.2.3"));
  EXPECT_EQ(fallback.asn, 999u);
  EXPECT_TRUE(fallback.from_fallback);
  // Nothing covers 64.0.0.0/2.
  EXPECT_FALSE(engine_->ip2as(addr("64.0.0.1")).announced());
}

TEST_F(QueryEngineTest, FinalMappingOverrideChain) {
  load(sample());
  // 10.0.0.1 backward has an engine override to AS300.
  const auto overridden =
      engine_->final_mapping(addr("10.0.0.1"), graph::Direction::kBackward);
  EXPECT_EQ(overridden.first, 300u);
  EXPECT_TRUE(overridden.second);
  // Forward half has no override: base LPM answer (/24 → AS200).
  const auto base =
      engine_->final_mapping(addr("10.0.0.1"), graph::Direction::kForward);
  EXPECT_EQ(base.first, 200u);
  EXPECT_FALSE(base.second);
}

TEST_F(QueryEngineTest, AnswerProtocol) {
  load(sample());
  EXPECT_EQ(answered("lookup 10.0.0.1 f"),
            "10.0.0.1|f|100|200|direct|3/4");
  EXPECT_EQ(answered("lookup 10.0.0.1 b"),
            "10.0.0.1|b|100|300|indirect|2/4");
  EXPECT_EQ(answered("lookup 10.0.0.2 f"),
            "uncertain|10.0.0.2|f|300|100|stub|1/2");
  EXPECT_EQ(answered("lookup 10.0.0.99 f"), "MISS");
  EXPECT_EQ(answered("addr 10.0.0.1"),
            "10.0.0.1|f|100|200|direct|3/4;10.0.0.1|b|100|300|indirect|2/4");
  EXPECT_EQ(answered("addr 10.0.0.2"), "MISS");  // uncertain filtered
  EXPECT_EQ(answered("ip2as 10.0.0.77"), "10.0.0.0/24|200|bgp");
  EXPECT_EQ(answered("ip2as 200.1.2.3"), "192.0.0.0/4|999|fallback");
  EXPECT_EQ(answered("ip2as 64.0.0.1"), "unannounced");
  EXPECT_EQ(answered("ip2as 10.0.0.1 b"), "300|final");
  EXPECT_EQ(answered("ip2as 10.0.0.1 f"), "200|base");
  EXPECT_EQ(answered("links 200 100"),
            "2 10.0.0.1-10.0.0.9 10.0.0.3-10.0.0.4");
  EXPECT_EQ(answered("links 100 999"), "0");
  // Extra whitespace is tolerated, spaces and tabs alike.
  EXPECT_EQ(answered("  lookup   10.0.0.1   f  "),
            "10.0.0.1|f|100|200|direct|3/4");
  EXPECT_EQ(answered("\tlookup\t10.0.0.1 \t b\t"),
            "10.0.0.1|b|100|300|indirect|2/4");
  EXPECT_EQ(answered("links\t100\t200"),
            "2 10.0.0.1-10.0.0.9 10.0.0.3-10.0.0.4");
}

TEST_F(QueryEngineTest, AnswerStats) {
  load(sample());
  const std::string stats = answered("stats");
  EXPECT_NE(stats.find("inferences=2"), std::string::npos) << stats;
  EXPECT_NE(stats.find("uncertain=1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("links=3"), std::string::npos) << stats;
  EXPECT_NE(stats.find("bgp_prefixes=2"), std::string::npos) << stats;
  EXPECT_NE(stats.find("version=1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("crc32="), std::string::npos) << stats;
}

TEST_F(QueryEngineTest, AnswerErrors) {
  load(sample());
  EXPECT_EQ(answered(""), "ERR empty query");
  EXPECT_EQ(answered("   "), "ERR empty query");
  EXPECT_EQ(answered("frobnicate"),
            "ERR unknown command 'frobnicate'");
  EXPECT_EQ(answered("lookup 10.0.0.1"), "ERR usage: lookup <addr> <f|b>");
  EXPECT_EQ(answered("lookup 10.0.0.1 f extra"),
            "ERR usage: lookup <addr> <f|b>");
  EXPECT_EQ(answered("lookup nonsense f"), "ERR bad address");
  EXPECT_EQ(answered("lookup 10.0.0.1 x"),
            "ERR bad direction (want f or b)");
  EXPECT_EQ(answered("addr"), "ERR usage: addr <addr>");
  EXPECT_EQ(answered("ip2as"), "ERR usage: ip2as <addr> [f|b]");
  EXPECT_EQ(answered("ip2as 1.2.3.4 q"),
            "ERR bad direction (want f or b)");
  EXPECT_EQ(answered("links 100"), "ERR usage: links <asn> <asn>");
  EXPECT_EQ(answered("links abc 100"), "ERR bad ASN");
  EXPECT_EQ(answered("links 100 -2"), "ERR bad ASN");
  EXPECT_EQ(answered("stats now"), "ERR usage: stats");
}

TEST_F(QueryEngineTest, EmptySnapshotAnswersGracefully) {
  load(SnapshotData{});
  EXPECT_EQ(answered("lookup 10.0.0.1 f"), "MISS");
  EXPECT_EQ(answered("addr 10.0.0.1"), "MISS");
  EXPECT_EQ(answered("ip2as 10.0.0.1"), "unannounced");
  EXPECT_EQ(answered("links 1 2"), "0");
}

// ---------------------------------------------------------------------------
// Answer text vs a reference formatter on randomized extreme records. The
// reference is the std::to_string code the engine formatted with before it
// appended in place, kept here the way tests/trace/reference_parser.h keeps
// the parser's.
// ---------------------------------------------------------------------------

namespace reference {

std::string address(std::uint32_t value) {
  const net::Ipv4Address address(value);
  std::string out;
  for (int i = 0; i < 4; ++i) {
    if (i > 0) out.push_back('.');
    out += std::to_string(address.octet(i));
  }
  return out;
}

std::string inference(const InferenceRecord& r) {
  static const char* const kKinds[] = {"direct", "indirect", "stub"};
  std::string out = address(r.address);
  out += '|';
  out += r.direction == 0 ? 'f' : 'b';
  out += '|';
  out += std::to_string(r.router_as);
  out += '|';
  out += std::to_string(r.other_as);
  out += '|';
  out += kKinds[r.kind];
  out += '|';
  out += std::to_string(r.votes);
  out += '/';
  out += std::to_string(r.neighbor_count);
  return out;
}

}  // namespace reference

TEST_F(QueryEngineTest, AnswersMatchReferenceFormatterOnExtremeRecords) {
  std::mt19937 rng(19);
  const auto pick = [&rng](std::initializer_list<std::uint32_t> extremes) {
    // About half the draws are extremes, the rest uniform over 32 bits.
    std::uniform_int_distribution<std::size_t> slot(0, 2 * extremes.size());
    const std::size_t i = slot(rng);
    return i < extremes.size() ? *(extremes.begin() + i)
                               : static_cast<std::uint32_t>(rng());
  };
  constexpr std::uint32_t kMax = 4294967295u;

  std::map<std::pair<std::uint32_t, std::uint8_t>, InferenceRecord> records;
  std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t,
                      std::uint32_t>>
      links;
  std::map<std::pair<std::uint32_t, std::uint8_t>, std::uint32_t> mappings;
  for (int i = 0; i < 400; ++i) {
    const std::uint32_t address =
        pick({0u, kMax, 0x0A0A0A0Au, 0x63646364u, 0x09630A64u});
    const auto direction = static_cast<std::uint8_t>(rng() % 2);
    records[{address, direction}] = InferenceRecord{
        address,
        direction,
        static_cast<std::uint8_t>(rng() % 3),
        static_cast<std::uint8_t>(rng() % 2 == 0 ? 0
                                                  : store::kInferenceUncertain),
        0,
        pick({0u, kMax, 1u, 9u, 10u}),
        pick({0u, kMax, 99u, 100u}),
        pick({0u, kMax, 1u}),
        pick({0u, kMax, 1u})};
    if (i % 8 == 0) {
      const std::uint32_t as_a = pick({0u, kMax, 7u});
      const std::uint32_t as_b = pick({0u, kMax, 7u});
      links.emplace(std::min(as_a, as_b), std::max(as_a, as_b),
                    pick({0u, kMax}), pick({0u, kMax}));
      mappings[{address, direction}] = pick({0u, kMax});
    }
  }
  SnapshotData data;
  for (const auto& [key, record] : records) data.inferences.push_back(record);
  for (const auto& [as_a, as_b, low, high] : links) {
    data.links.push_back(
        LinkRecord{low, high, as_a, as_b, 1, 1, 1, 0, {0, 0, 0}});
  }
  for (const auto& [key, asn] : mappings) {
    data.mappings.push_back(
        MappingRecord{key.first, asn, key.second, {0, 0, 0}});
  }
  data.bgp_prefixes.push_back(PrefixRecord{0u, 0u, 0, {0, 0, 0}});
  data.bgp_prefixes.push_back(PrefixRecord{kMax, kMax, 32, {0, 0, 0}});
  load(data);

  std::map<std::uint32_t, std::string> confident;  // the `addr` answers
  for (const auto& [key, record] : records) {
    const auto [address, direction] = key;
    const std::string text = reference::address(address);
    const char half = direction == 0 ? 'f' : 'b';
    const bool uncertain = (record.flags & store::kInferenceUncertain) != 0;
    EXPECT_EQ(answered("lookup " + text + ' ' + half),
              (uncertain ? "uncertain|" : "") + reference::inference(record));
    if (!uncertain) {
      std::string& line = confident[address];
      line += (line.empty() ? "" : ";") + reference::inference(record);
    }
    const auto mapped = mappings.find(key);
    const std::string base = address == kMax ? "4294967295" : "0";
    EXPECT_EQ(answered("ip2as " + text + ' ' + half),
              mapped != mappings.end()
                  ? std::to_string(mapped->second) + "|final"
                  : base + "|base");
  }
  for (const auto& [key, record] : records) {
    const auto it = confident.find(key.first);
    EXPECT_EQ(answered("addr " + reference::address(key.first)),
              it == confident.end() ? "MISS" : it->second);
  }
  for (const std::uint32_t as_a : {0u, 7u, kMax}) {
    for (const std::uint32_t as_b : {0u, 7u, kMax}) {
      std::string expected;
      std::size_t count = 0;
      for (const auto& [low_as, high_as, low, high] : links) {
        if (low_as != std::min(as_a, as_b) || high_as != std::max(as_a, as_b)) {
          continue;
        }
        ++count;
        expected += ' ' + reference::address(low) + '-' +
                    reference::address(high);
      }
      EXPECT_EQ(answered("links " + std::to_string(as_a) + ' ' +
                         std::to_string(as_b)),
                std::to_string(count) + expected);
    }
  }
  EXPECT_EQ(answered("ip2as 255.255.255.255"),
            "255.255.255.255/32|4294967295|bgp");
  EXPECT_EQ(answered("ip2as 0.0.0.0"), "0.0.0.0/0|0|bgp");
  EXPECT_EQ(answered("ip2as 10.10.10.10"), "0.0.0.0/0|0|bgp");
}

// ---------------------------------------------------------------------------
// Flat LPM vs net::PrefixTrie, answer-for-answer on a randomized corpus.
// ---------------------------------------------------------------------------

class FlatLpmOracleTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlatLpmOracleTest, MatchesPrefixTrie) {
  std::mt19937_64 rng(GetParam());
  std::uniform_int_distribution<std::uint32_t> addr_dist;
  std::uniform_int_distribution<int> len_dist(0, 32);
  // Cluster half the prefixes under 10.0.0.0/8 so nesting and
  // miss-after-deeper-branch cases actually occur.
  std::uniform_int_distribution<std::uint32_t> cluster_dist(0x0A000000u,
                                                            0x0AFFFFFFu);

  net::PrefixTrie<asdata::Asn> trie;
  for (int i = 0; i < 400; ++i) {
    const std::uint32_t raw =
        (i % 2 == 0) ? addr_dist(rng) : cluster_dist(rng);
    const net::Prefix prefix(net::Ipv4Address(raw), len_dist(rng));
    trie.insert(prefix, static_cast<asdata::Asn>(i + 1));
  }

  // Flatten exactly the way the snapshot writer stores a trie layer.
  SnapshotData data;
  trie.for_each([&](const net::Prefix& prefix, const asdata::Asn& asn) {
    data.bgp_prefixes.push_back(store::to_record(prefix, asn));
  });
  std::sort(data.bgp_prefixes.begin(), data.bgp_prefixes.end(),
            [](const PrefixRecord& a, const PrefixRecord& b) {
              return std::make_pair(a.network, a.length) <
                     std::make_pair(b.network, b.length);
            });
  const SnapshotReader reader =
      SnapshotReader::from_bytes(store::serialize_snapshot(data));
  const QueryEngine engine(reader);

  auto check = [&](net::Ipv4Address probe) {
    const auto expected = trie.longest_match_entry(probe);
    const auto got = engine.ip2as(probe);
    if (!expected) {
      EXPECT_FALSE(got.announced()) << probe.to_string();
      return;
    }
    ASSERT_TRUE(got.announced()) << probe.to_string();
    EXPECT_EQ(got.prefix, expected->first) << probe.to_string();
    EXPECT_EQ(got.asn, *expected->second) << probe.to_string();
  };

  for (int i = 0; i < 2000; ++i) {
    check(net::Ipv4Address(i % 2 == 0 ? addr_dist(rng) : cluster_dist(rng)));
  }
  // Deterministic boundary probes.
  check(addr("0.0.0.0"));
  check(addr("255.255.255.255"));
  for (const net::Prefix& prefix : trie.prefixes()) {
    check(prefix.network());  // first covered address of every prefix
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatLpmOracleTest,
                         ::testing::Values(1, 2, 3, 5, 8));

}  // namespace
}  // namespace mapit::query
