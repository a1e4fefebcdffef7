// An independent reference implementation of MAP-IT (paper §4), for
// differential tests against core::Engine.
//
// Transcribed from docs/ALGORITHM.md and the decisions of DESIGN.md §5,
// not from the engine: its state is a std::map keyed by
// graph::InterfaceHalf, every pass recounts every half, and it runs on one
// thread. It has no HalfIds, slabs, dirty sets or stale lists, and it reads
// the graph only through interfaces(), neighbors(half) and
// other_side_half(half). Its one virtue is being plainly right; it is slow
// on purpose.
#pragma once

#include <utility>
#include <vector>

#include "asdata/as2org.h"
#include "asdata/asn.h"
#include "asdata/relationships.h"
#include "bgp/ip2as.h"
#include "core/engine.h"
#include "core/inference.h"
#include "graph/halves.h"
#include "graph/interface_graph.h"

namespace mapit::reference {

/// What core::Result reports, minus stats and snapshots. Every list is in
/// (address, direction) order.
struct Output {
  std::vector<core::Inference> inferences;  ///< confident
  std::vector<core::Inference> uncertain;
  std::vector<std::pair<graph::InterfaceHalf, asdata::Asn>> final_mappings;
};

/// Runs MAP-IT over `graph`. Reads only the algorithm's options (f, the
/// remove rule, the ablation toggles, max_iterations); threads and
/// capture_snapshots do not apply.
[[nodiscard]] Output naive_mapit(const graph::InterfaceGraph& graph,
                                 const bgp::Ip2As& ip2as,
                                 const asdata::As2Org& orgs,
                                 const asdata::AsRelationships& rels,
                                 const core::Options& options);

}  // namespace mapit::reference
