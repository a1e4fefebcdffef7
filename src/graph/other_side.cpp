#include "graph/other_side.h"

#include <algorithm>
#include <vector>

#include "net/point_to_point.h"

namespace mapit::graph {

OtherSideMap::OtherSideMap(std::span<const net::Ipv4Address> addresses) {
  if (!std::is_sorted(addresses.begin(), addresses.end())) {
    std::vector<net::Ipv4Address> sorted(addresses.begin(), addresses.end());
    std::sort(sorted.begin(), sorted.end());
    *this = OtherSideMap(sorted);
    return;
  }
  const auto reserved = [](net::Ipv4Address a) {
    return !net::is_slash30_host(a);
  };
  witnesses_.reserve(static_cast<std::size_t>(
      std::count_if(addresses.begin(), addresses.end(), reserved)));
  // Sorted input keeps each /30 block contiguous. A block holding a
  // witness is /31-numbered throughout: its reserved members by
  // definition, its hosts by the witness. A block without one holds only
  // hosts, all /30-numbered.
  std::size_t slash31 = 0;
  for (std::size_t i = 0; i < addresses.size();) {
    const std::uint32_t block = addresses[i].value() & ~0x3u;
    std::size_t distinct = 0;
    bool witnessed = false;
    std::size_t j = i;
    for (; j < addresses.size() && (addresses[j].value() & ~0x3u) == block;
         ++j) {
      if (j > i && addresses[j] == addresses[j - 1]) continue;
      ++distinct;
      if (reserved(addresses[j])) {
        witnessed = true;
        witnesses_.insert(addresses[j].value());
      }
    }
    size_ += distinct;
    if (witnessed) slash31 += distinct;
    i = j;
  }
  if (size_ != 0) {
    slash31_fraction_ =
        static_cast<double>(slash31) / static_cast<double>(size_);
  }
}

OtherSide OtherSideMap::other_side(net::Ipv4Address address) const {
  if (!net::is_slash30_host(address)) {
    // Reserved in its /30: can only be a /31-numbered endpoint.
    return {net::slash31_other_side(address), PrefixInference::kSlash31Reserved};
  }
  // Valid /30 host. If any *different* address occupying a reserved slot of
  // this /30 was seen, the block must be split into /31s.
  const std::uint32_t base = address.value() & ~0x3u;
  if (witnesses_.contains(base) || witnesses_.contains(base | 0x3u)) {
    return {net::slash31_other_side(address), PrefixInference::kSlash31Witness};
  }
  return {*net::slash30_other_side(address), PrefixInference::kSlash30};
}

}  // namespace mapit::graph
