#include "core/links.h"

#include <algorithm>
#include <cstdint>
#include <utility>

namespace mapit::core {

std::vector<InterAsLink> aggregate_links(const Result& result,
                                         const graph::InterfaceGraph& graph) {
  // Key each inference by the unordered {address, other-side} pair, packed
  // as low << 32 | high. Sorted (key, inference index) pairs put the links
  // in (low, high) order and each link's inferences in result order.
  const std::vector<Inference>& inferences = result.inferences;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> keyed;
  keyed.reserve(inferences.size());
  for (std::size_t i = 0; i < inferences.size(); ++i) {
    const net::Ipv4Address address = inferences[i].half.address;
    const net::Ipv4Address other =
        graph.other_sides().other_address(address);
    const net::Ipv4Address low = address < other ? address : other;
    const net::Ipv4Address high = address < other ? other : address;
    keyed.emplace_back(std::uint64_t{low.value()} << 32 | high.value(),
                       static_cast<std::uint32_t>(i));
  }
  std::sort(keyed.begin(), keyed.end());

  std::vector<InterAsLink> out;
  out.reserve(keyed.size());  // at most one link per inference
  for (std::size_t i = 0; i < keyed.size(); ++i) {
    const auto [key, index] = keyed[i];
    if (i == 0 || keyed[i - 1].first != key) {
      InterAsLink& link = out.emplace_back();
      link.low = net::Ipv4Address(static_cast<std::uint32_t>(key >> 32));
      link.high = net::Ipv4Address(static_cast<std::uint32_t>(key));
    }
    InterAsLink& link = out.back();
    const Inference& inference = inferences[index];
    ++link.supporting_inferences;
    const auto pair = inference.as_pair();
    const bool stronger = link.neighbor_count == 0 ||
                          inference.support() > link.support_ratio();
    if (link.supporting_inferences == 1) {
      std::tie(link.as_a, link.as_b) = pair;
    } else if (pair != std::make_pair(link.as_a, link.as_b)) {
      link.conflicting = true;
      if (stronger) std::tie(link.as_a, link.as_b) = pair;
    }
    if (stronger) {
      link.votes = inference.votes;
      link.neighbor_count = inference.neighbor_count;
    }
    link.via_stub_heuristic |= inference.kind == InferenceKind::kStub;
  }
  return out;
}

}  // namespace mapit::core
