#include "graph/other_side.h"

#include <algorithm>

#include "net/point_to_point.h"

namespace mapit::graph {

OtherSideMap::OtherSideMap(std::span<const net::Ipv4Address> addresses)
    : seen_(addresses.begin(), addresses.end()) {
  if (!std::is_sorted(seen_.begin(), seen_.end())) {
    std::sort(seen_.begin(), seen_.end());
  }
  seen_.erase(std::unique(seen_.begin(), seen_.end()), seen_.end());
}

bool OtherSideMap::seen(net::Ipv4Address address) const {
  return std::binary_search(seen_.begin(), seen_.end(), address);
}

OtherSide OtherSideMap::other_side(net::Ipv4Address address) const {
  if (!net::is_slash30_host(address)) {
    // Reserved in its /30: can only be a /31-numbered endpoint.
    return {net::slash31_other_side(address), PrefixInference::kSlash31Reserved};
  }
  // Valid /30 host. If any *different* address occupying a reserved slot of
  // this /30 was seen, the block must be split into /31s.
  const std::uint32_t base = address.value() & ~0x3u;
  if (seen(net::Ipv4Address(base)) || seen(net::Ipv4Address(base | 0x3u))) {
    return {net::slash31_other_side(address), PrefixInference::kSlash31Witness};
  }
  return {*net::slash30_other_side(address), PrefixInference::kSlash30};
}

double OtherSideMap::slash31_fraction() const {
  if (seen_.empty()) return 0.0;
  const auto slash31 = std::count_if(
      seen_.begin(), seen_.end(),
      [&](net::Ipv4Address address) { return other_side(address).is_slash31(); });
  return static_cast<double>(slash31) / static_cast<double>(seen_.size());
}

}  // namespace mapit::graph
