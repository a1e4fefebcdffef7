// Quickstart: run MAP-IT on a handful of traceroute paths.
//
// This reconstructs the paper's running example (Figs 1-3): an interface
// announced by one AS whose neighbour sets reveal that it actually sits on
// another AS's router, at an inter-AS boundary. Roles:
//
//   AS11537  Internet2        198.71.0.0/16
//   AS2603   NORDUnet         109.105.0.0/16
//   AS20965  GEANT            205.233.0.0/16 (stand-in prefix)
//   AS11164  Internet2 TR-CPS 216.249.0.0/16
//
// 109.105.98.10 is NORDUnet-announced, but every address ever seen after
// it belongs to Internet2 — so it must be the NORDUnet-facing interface of
// an Internet2 router: an inter-AS link between AS11537 and AS2603.
#include <iostream>
#include <sstream>

#include "asdata/as2org.h"
#include "asdata/relationships.h"
#include "bgp/ip2as.h"
#include "core/engine.h"
#include "graph/interface_graph.h"
#include "trace/sanitize.h"
#include "trace/trace_io.h"

int main() {
  using namespace mapit;

  // 1. A few traceroute paths (monitor|destination|hops). In real use,
  //    read these from a file with trace::read_corpus().
  std::istringstream traces(
      "0|198.71.200.1|109.105.98.10 198.71.46.180 205.233.255.36\n"
      "1|198.71.200.1|109.105.98.10 198.71.46.180 216.249.136.197\n"
      "2|198.71.200.1|198.71.45.236 198.71.46.180 *\n"
      "3|198.71.200.1|109.105.98.10 198.71.46.180 199.109.5.1\n"
      "4|198.71.200.1|109.105.98.10 198.71.45.2\n");
  trace::TraceCorpus corpus = trace::read_corpus(traces);

  // 2. BGP-derived IP-to-AS mappings (collector|prefix|origin).
  std::istringstream announcements(
      "rc0|198.71.0.0/16|11537\n"
      "rc0|109.105.0.0/16|2603\n"
      "rc0|205.233.0.0/16|20965\n"
      "rc0|216.249.0.0/16|11164\n"
      "rc0|199.109.0.0/16|3754\n");
  const bgp::Rib rib = bgp::Rib::read(announcements);
  const bgp::Ip2As ip2as(rib);

  // 3. Sanitize (in place), build the interface graph, run MAP-IT.
  const auto sanitized = trace::sanitize(std::move(corpus));
  const graph::InterfaceGraph graph(sanitized.clean, sanitized.addresses);

  const asdata::As2Org orgs;          // no sibling data in this example
  asdata::AsRelationships rels;       // minimal relationship knowledge
  rels.add_transit(11537, 11164);

  core::Options options;
  options.f = 0.5;
  const core::Result result = core::run_mapit(graph, ip2as, orgs, rels,
                                              options);

  // 4. Inspect the inferences.
  std::cout << "MAP-IT found " << result.inferences.size()
            << " inter-AS link interface inferences:\n";
  for (const core::Inference& inference : result.inferences) {
    std::cout << "  " << inference.to_string() << "  ["
              << inference.votes << "/" << inference.neighbor_count
              << " neighbours agree]\n";
  }

  // The headline inference from the paper's Fig 2.
  const core::Inference* headline = result.find(
      graph::forward_half(net::Ipv4Address::parse_or_throw("109.105.98.10")));
  if (headline != nullptr && headline->router_as == 11537 &&
      headline->other_as == 2603) {
    std::cout << "\n109.105.98.10 resides on an Internet2 (AS11537) router\n"
              << "and heads the AS11537 <-> AS2603 inter-AS link — exactly\n"
              << "the paper's reading of Fig 2.\n";
    return 0;
  }
  std::cerr << "unexpected result; see inferences above\n";
  return 1;
}
